// MemFabric's out-of-band control mesh. Its RC/UD verbs are checked with
// the other backends' in test_fabric_conformance.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>

#include "fabric/mem_fabric.hpp"

namespace rdmc::fabric {
namespace {

using namespace std::chrono_literals;

TEST(MemFabric, OobMesh) {
  MemFabric fabric(3);
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::pair<NodeId, std::string>> got;
  fabric.endpoint(2).set_oob_handler(
      [&](NodeId from, std::span<const std::byte> payload) {
        std::lock_guard lock(m);
        got.emplace_back(from,
                         std::string(reinterpret_cast<const char*>(
                                         payload.data()),
                                     payload.size()));
        cv.notify_all();
      });
  const char* msg = "failure:group7";
  std::vector<std::byte> payload(
      reinterpret_cast<const std::byte*>(msg),
      reinterpret_cast<const std::byte*>(msg) + std::strlen(msg));
  fabric.endpoint(0).send_oob(2, payload);
  fabric.endpoint(1).send_oob(2, payload);
  std::unique_lock lock(m);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return got.size() == 2; }));
  EXPECT_EQ(got[0].second, "failure:group7");
}

}  // namespace
}  // namespace rdmc::fabric
