// TcpFabric (§5.3 "RDMC on TCP"): the identical RDMC engine over kernel
// TCP sockets on loopback — fabric semantics, then full end-to-end
// multicasts, the small-message protocol and the atomic layer.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>

#include "core/group.hpp"
#include "core/rdmc.hpp"
#include "core/small_group.hpp"
#include "derecho_lite/atomic_group.hpp"
#include "fabric/tcp_fabric.hpp"
#include "util/random.hpp"

namespace rdmc {
namespace {

using namespace std::chrono_literals;

std::vector<fabric::TcpAddress> loopback(std::size_t n) {
  return std::vector<fabric::TcpAddress>(n);  // 127.0.0.1, ephemeral ports
}

std::vector<NodeId> all_nodes(std::size_t n) {
  std::vector<NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<NodeId>(i);
  return v;
}

std::vector<std::byte> pattern(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::byte> v(size);
  for (auto& b : v) b = static_cast<std::byte>(rng());
  return v;
}

TEST(TcpFabric, WindowWriteAndImm) {
  std::mutex m;
  std::condition_variable cv;
  std::vector<fabric::Completion> r1;
  fabric::TcpFabric fabric(loopback(2), all_nodes(2));
  fabric.endpoint(1).set_completion_handler(
      [&](const fabric::Completion& c) {
        std::lock_guard lock(m);
        r1.push_back(c);
        cv.notify_all();
      });
  fabric.endpoint(0).set_completion_handler([](const fabric::Completion&) {});
  std::vector<std::byte> window(128, std::byte{0});
  fabric.endpoint(1).register_window(
      4, fabric::MemoryView{window.data(), window.size()});
  fabric::QueuePair* qp = fabric.connect(0, 1, 4);
  auto payload = pattern(40, 3);
  ASSERT_TRUE(ok(qp->post_window_write(
      4, 16, fabric::MemoryView{payload.data(), payload.size()}, 9, 1,
      true)));
  ASSERT_TRUE(ok(qp->post_write_imm(31337, 2)));
  std::unique_lock lock(m);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return r1.size() >= 2; }));
  EXPECT_EQ(r1[0].opcode, fabric::WcOpcode::kRecvWindowWrite);
  EXPECT_EQ(std::memcmp(window.data() + 16, payload.data(), 40), 0);
  EXPECT_EQ(r1[1].opcode, fabric::WcOpcode::kRecvWriteImm);
  EXPECT_EQ(r1[1].immediate, 31337u);
}

// ----------------------------------------------- full RDMC over TCP -------

struct TcpCluster {
  explicit TcpCluster(std::size_t n)
      : received(n), fabric(loopback(n), all_nodes(n)) {
    for (std::size_t i = 0; i < n; ++i)
      nodes.push_back(
          std::make_unique<Node>(fabric, static_cast<NodeId>(i)));
  }
  ~TcpCluster() {
    nodes.clear();
    fabric.stop();  // joins reader threads before `received` dies
  }
  // Declaration order matters: posted receive buffers (in `received`) must
  // outlive the fabric's socket reader threads.
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::vector<std::vector<std::byte>>> received;
  std::size_t delivered = 0;
  std::size_t root_completions = 0;
  fabric::TcpFabric fabric;
  std::vector<std::unique_ptr<Node>> nodes;
};

TEST(TcpRdmc, BinomialPipelineMulticast) {
  constexpr std::size_t kNodes = 5;
  TcpCluster c(kNodes);
  GroupOptions options;
  options.block_size = 16 * 1024;
  for (NodeId node = 0; node < kNodes; ++node) {
    ASSERT_TRUE(c.nodes[node]->create_group(
        1, all_nodes(kNodes), options,
        [&c, node](std::size_t size) {
          c.received[node].emplace_back(size);
          return fabric::MemoryView{c.received[node].back().data(), size};
        },
        [&c, node](std::byte*, std::size_t) {
          std::lock_guard lock(c.m);
          if (node == 0)
            ++c.root_completions;
          else
            ++c.delivered;
          c.cv.notify_all();
        }));
  }
  auto payload = pattern(700 * 1024 + 13, 10);
  ASSERT_TRUE(c.nodes[0]->send(1, payload.data(), payload.size()));
  {
    // The send buffer may only be released after the ROOT's completion
    // callback (the documented contract), so wait for it too.
    std::unique_lock lock(c.m);
    ASSERT_TRUE(c.cv.wait_for(lock, 20s, [&] {
      return c.delivered == kNodes - 1 && c.root_completions == 1;
    }));
  }
  for (NodeId node = 1; node < kNodes; ++node)
    EXPECT_EQ(c.received[node][0], payload) << "node " << node;
}

TEST(TcpRdmc, MessageSequenceAllAlgorithms) {
  for (auto algorithm :
       {sched::Algorithm::kSequential, sched::Algorithm::kChain,
        sched::Algorithm::kBinomialTree,
        sched::Algorithm::kBinomialPipeline}) {
    constexpr std::size_t kNodes = 4;
    TcpCluster c(kNodes);
    GroupOptions options;
    options.algorithm = algorithm;
    options.block_size = 8 * 1024;
    for (NodeId node = 0; node < kNodes; ++node) {
      ASSERT_TRUE(c.nodes[node]->create_group(
          1, all_nodes(kNodes), options,
          [&c, node](std::size_t size) {
            c.received[node].emplace_back(size);
            return fabric::MemoryView{c.received[node].back().data(), size};
          },
          [&c, node](std::byte*, std::size_t) {
            std::lock_guard lock(c.m);
            if (node == 0)
              ++c.root_completions;
            else
              ++c.delivered;
            c.cv.notify_all();
          }));
    }
    std::vector<std::vector<std::byte>> payloads;
    for (int i = 0; i < 5; ++i) payloads.push_back(pattern(30000 + i, i));
    for (auto& p : payloads)
      ASSERT_TRUE(c.nodes[0]->send(1, p.data(), p.size()));
    {
      // Buffers may be released only after the root's own completions.
      std::unique_lock lock(c.m);
      ASSERT_TRUE(c.cv.wait_for(lock, 20s, [&] {
        return c.delivered == (kNodes - 1) * 5 && c.root_completions == 5;
      }));
    }
    for (NodeId node = 1; node < kNodes; ++node)
      for (int i = 0; i < 5; ++i)
        EXPECT_EQ(c.received[node][i], payloads[i])
            << sched::algorithm_name(algorithm) << " node " << node;
  }
}

TEST(TcpRdmc, SmallMessageProtocol) {
  TcpCluster c(3);
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::vector<std::byte>> got;
  for (NodeId node = 0; node < 3; ++node) {
    ASSERT_TRUE(c.nodes[node]->create_small_group(
        1, all_nodes(3), SmallGroupOptions{},
        [&, node](const std::byte* data, std::size_t size) {
          if (node != 1) return;
          std::lock_guard lock(m);
          got.emplace_back(data, data + size);
          cv.notify_all();
        }));
  }
  auto msg = pattern(500, 4);
  while (!c.nodes[0]->send_small(1, msg.data(), msg.size()))
    std::this_thread::sleep_for(1ms);
  std::unique_lock lock(m);
  ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return !got.empty(); }));
  EXPECT_EQ(got[0], msg);
}

TEST(TcpRdmc, AtomicGroupOverTcp) {
  TcpCluster c(3);
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::size_t> delivered(3, 0);
  std::vector<std::unique_ptr<derecho_lite::AtomicGroup>> groups;
  for (NodeId node = 0; node < 3; ++node) {
    groups.push_back(std::make_unique<derecho_lite::AtomicGroup>(
        *c.nodes[node], 1, all_nodes(3), derecho_lite::AtomicGroupOptions{},
        [&, node](std::size_t, const std::byte*, std::size_t) {
          std::lock_guard lock(m);
          ++delivered[node];
          cv.notify_all();
        }));
  }
  auto payload = pattern(100000, 5);
  ASSERT_TRUE(groups[0]->send(payload.data(), payload.size()));
  {
    std::unique_lock lock(m);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] {
      return delivered[0] == 1 && delivered[1] == 1 && delivered[2] == 1;
    }));
  }
  groups.clear();
}

TEST(TcpRdmc, CrashDetectedViaSocketEof) {
  constexpr std::size_t kNodes = 4;
  TcpCluster c(kNodes);
  std::mutex m;
  std::condition_variable cv;
  std::size_t failures = 0;
  GroupOptions options;
  options.block_size = 4096;
  for (NodeId node = 0; node < kNodes; ++node) {
    ASSERT_TRUE(c.nodes[node]->create_group(
        1, all_nodes(kNodes), options,
        [&c, node](std::size_t size) {
          c.received[node].emplace_back(size);
          return fabric::MemoryView{c.received[node].back().data(), size};
        },
        [](std::byte*, std::size_t) {},
        [&](GroupId, NodeId) {
          std::lock_guard lock(m);
          ++failures;
          cv.notify_all();
        }));
  }
  auto payload = pattern(3 << 20, 6);
  ASSERT_TRUE(c.nodes[0]->send(1, payload.data(), payload.size()));
  c.fabric.crash_node(2);
  std::unique_lock lock(m);
  // The three survivors all learn of the failure (the crashed node's
  // endpoint is gone).
  ASSERT_TRUE(cv.wait_for(lock, 20s, [&] { return failures >= 3; }));
}

}  // namespace
}  // namespace rdmc
