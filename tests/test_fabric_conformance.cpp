// One contract, three fabrics: the RC/UD verbs slice of fabric.hpp checked
// on MemFabric, SimFabric and TcpFabric by the same typed tests. Each
// backend differs only in how a test waits — running the simulator dry,
// or polling real time — and in one documented trait: TcpFabric completes
// a send once the kernel holds the bytes, so it parks early sends at the
// receiver instead of queueing them at the sender.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "fabric/mem_fabric.hpp"
#include "fabric/sim_fabric.hpp"
#include "fabric/tcp_fabric.hpp"

namespace rdmc::fabric {
namespace {

using namespace std::chrono_literals;

/// Wait until `pred` holds, polling real time for up to 5 s.
bool poll(const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

struct MemBackend {
  static constexpr const char* kName = "MemFabric";
  static constexpr bool kParksEarlySends = false;
  explicit MemBackend(std::size_t nodes) : fabric(nodes) {}
  bool eventually(const std::function<bool()>& pred) { return poll(pred); }
  void quiesce() { fabric.drain(); }
  MemFabric fabric;
};

struct SimBackend {
  static constexpr const char* kName = "SimFabric";
  static constexpr bool kParksEarlySends = false;
  explicit SimBackend(std::size_t nodes)
      : topo(config(nodes)), fabric(sim, topo, {}) {}
  static sim::TopologyConfig config(std::size_t nodes) {
    sim::TopologyConfig c;
    c.num_nodes = nodes;
    c.nic_gbps = 100.0;
    return c;
  }
  bool eventually(const std::function<bool()>& pred) {
    sim.run();
    return pred();
  }
  void quiesce() { sim.run(); }
  sim::Simulator sim;
  sim::Topology topo;
  SimFabric fabric;
};

struct TcpBackend {
  static constexpr const char* kName = "TcpFabric";
  static constexpr bool kParksEarlySends = true;
  explicit TcpBackend(std::size_t nodes)
      : fabric(std::vector<TcpAddress>(nodes), all(nodes)) {}
  static std::vector<NodeId> all(std::size_t nodes) {
    std::vector<NodeId> v(nodes);
    for (std::size_t i = 0; i < nodes; ++i) v[i] = static_cast<NodeId>(i);
    return v;
  }
  bool eventually(const std::function<bool()>& pred) { return poll(pred); }
  // Loopback frames land within microseconds; 50 ms is ample for "nothing
  // more arrives".
  void quiesce() { std::this_thread::sleep_for(50ms); }
  TcpFabric fabric;
};

/// Completions seen by one endpoint, in dispatch order.
class Log {
 public:
  void add(const Completion& c) {
    std::lock_guard lock(mutex_);
    seen_.push_back(c);
  }
  std::vector<Completion> all() const {
    std::lock_guard lock(mutex_);
    return seen_;
  }
  std::size_t count(WcOpcode op) const {
    std::size_t n = 0;
    for (const auto& c : all()) n += c.opcode == op;
    return n;
  }
  std::size_t size() const { return all().size(); }

 private:
  mutable std::mutex mutex_;
  std::vector<Completion> seen_;
};

template <class Backend>
class FabricConformance : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 3;

  FabricConformance() : backend_(kNodes) {
    for (NodeId n = 0; n < kNodes; ++n)
      fabric().endpoint(n).set_completion_handler(
          [log = &logs_[n]](const Completion& c) { log->add(c); });
  }

  Fabric& fabric() { return backend_.fabric; }
  const Log& log(NodeId n) const { return logs_[n]; }
  bool eventually(const std::function<bool()>& pred) {
    return backend_.eventually(pred);
  }
  void quiesce() { backend_.quiesce(); }

  /// A registered-memory buffer that outlives the fabric's threads.
  MemoryView buffer(std::size_t size, std::uint8_t fill = 0) {
    auto& b = buffers_.emplace_back(size, static_cast<std::byte>(fill));
    return MemoryView{b.data(), b.size()};
  }

  // Declaration order: buffers and logs outlive the fabric, whose
  // destructor joins every thread that could still touch them.
  std::deque<std::vector<std::byte>> buffers_;
  std::array<Log, kNodes> logs_;
  Backend backend_;
};

struct BackendNames {
  template <class T>
  static std::string GetName(int) {
    return T::kName;
  }
};

using Backends = ::testing::Types<MemBackend, SimBackend, TcpBackend>;
TYPED_TEST_SUITE(FabricConformance, Backends, BackendNames);

bool filled(MemoryView v, std::uint8_t value) {
  for (std::size_t i = 0; i < v.size; ++i)
    if (v.data[i] != static_cast<std::byte>(value)) return false;
  return true;
}

TYPED_TEST(FabricConformance, FifoPerQpAndIndependentChannels) {
  constexpr int kCount = 16;
  QueuePair* a0 = this->fabric().connect(0, 1, 0);
  QueuePair* a1 = this->fabric().connect(1, 0, 0);
  QueuePair* b0 = this->fabric().connect(0, 1, 7);
  QueuePair* b1 = this->fabric().connect(1, 0, 7);
  EXPECT_EQ(a0->peer(), 1u);
  EXPECT_EQ(a1->peer(), 0u);
  EXPECT_NE(a0, b0);
  EXPECT_NE(a0->id(), b0->id());

  // Channel 7's receive must not be consumed by channel 0's sends.
  const MemoryView other = this->buffer(64);
  ASSERT_EQ(b1->post_recv(other, 100), PostResult::kOk);
  for (int i = 0; i < kCount; ++i)
    ASSERT_EQ(a0->post_send(this->buffer(64, i), i, 1000 + i),
              PostResult::kOk);
  ASSERT_EQ(b0->post_send(this->buffer(64, 0xEE), 50, 777), PostResult::kOk);
  ASSERT_TRUE(this->eventually([&] { return this->log(1).size() >= 1; }));
  this->quiesce();
  auto got = this->log(1).all();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].opcode, WcOpcode::kRecv);
  EXPECT_EQ(got[0].wr_id, 100u);
  EXPECT_EQ(got[0].immediate, 777u);
  EXPECT_EQ(got[0].qp, b1->id());
  EXPECT_EQ(got[0].peer, 0u);
  EXPECT_TRUE(filled(other, 0xEE));

  // The i-th receive gets the i-th send.
  std::vector<MemoryView> dst;
  for (int i = 0; i < kCount; ++i) {
    dst.push_back(this->buffer(64, 0xFF));
    ASSERT_EQ(a1->post_recv(dst.back(), i), PostResult::kOk);
  }
  ASSERT_TRUE(
      this->eventually([&] { return this->log(1).size() == 1 + kCount; }));
  got = this->log(1).all();
  for (int i = 0; i < kCount; ++i) {
    const Completion& c = got[1 + i];
    EXPECT_EQ(c.opcode, WcOpcode::kRecv);
    EXPECT_EQ(c.status, WcStatus::kSuccess);
    EXPECT_EQ(c.wr_id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(c.immediate, 1000u + i);
    EXPECT_EQ(c.byte_len, 64u);
    EXPECT_TRUE(filled(dst[i], i)) << "receive " << i;
  }
  ASSERT_TRUE(this->eventually(
      [&] { return this->log(0).count(WcOpcode::kSend) == kCount + 1; }));
  std::uint64_t next = 0;
  for (const auto& c : this->log(0).all()) {
    EXPECT_EQ(c.status, WcStatus::kSuccess);
    if (c.qp == a0->id()) {
      EXPECT_EQ(c.wr_id, next++);
    }
  }
  EXPECT_EQ(next, static_cast<std::uint64_t>(kCount));
}

TYPED_TEST(FabricConformance, PhantomBuffersCarryLengthAndImmediate) {
  QueuePair* qp0 = this->fabric().connect(0, 1, 0);
  QueuePair* qp1 = this->fabric().connect(1, 0, 0);
  ASSERT_EQ(qp1->post_recv(MemoryView{nullptr, 4096}, 1), PostResult::kOk);
  ASSERT_EQ(qp0->post_send(MemoryView{nullptr, 4096}, 2, 5), PostResult::kOk);
  ASSERT_TRUE(this->eventually([&] { return this->log(1).size() == 1; }));
  EXPECT_EQ(this->log(1).all()[0].byte_len, 4096u);
  EXPECT_EQ(this->log(1).all()[0].immediate, 5u);
}

TYPED_TEST(FabricConformance, SendWaitsForReceive) {
  QueuePair* qp0 = this->fabric().connect(0, 1, 0);
  QueuePair* qp1 = this->fabric().connect(1, 0, 0);
  ASSERT_EQ(qp0->post_send(this->buffer(100, 5), 1, 9), PostResult::kOk);
  this->quiesce();
  EXPECT_EQ(this->log(1).size(), 0u);  // nothing before a receive exists
  const MemoryView dst = this->buffer(100);
  ASSERT_EQ(qp1->post_recv(dst, 2), PostResult::kOk);
  ASSERT_TRUE(this->eventually([&] { return this->log(1).size() == 1; }));
  EXPECT_EQ(this->log(1).all()[0].wr_id, 2u);
  EXPECT_EQ(this->log(1).all()[0].immediate, 9u);
  EXPECT_TRUE(filled(dst, 5));
}

TYPED_TEST(FabricConformance, WriteImmBypassesReceiveQueue) {
  QueuePair* qp0 = this->fabric().connect(0, 1, 0);
  QueuePair* qp1 = this->fabric().connect(1, 0, 0);
  const MemoryView dst = this->buffer(32);
  ASSERT_EQ(qp1->post_recv(dst, 9), PostResult::kOk);
  ASSERT_EQ(qp0->post_write_imm(4242, 77), PostResult::kOk);
  ASSERT_TRUE(this->eventually([&] {
    return this->log(1).count(WcOpcode::kRecvWriteImm) == 1 &&
           this->log(0).count(WcOpcode::kWriteImm) == 1;
  }));
  EXPECT_EQ(this->log(1).all()[0].immediate, 4242u);
  EXPECT_EQ(this->log(1).all()[0].qp, qp1->id());
  EXPECT_EQ(this->log(0).all()[0].wr_id, 77u);
  // The posted receive is still there for the next two-sided send.
  ASSERT_EQ(qp0->post_send(this->buffer(32, 3), 1, 0), PostResult::kOk);
  ASSERT_TRUE(
      this->eventually([&] { return this->log(1).count(WcOpcode::kRecv); }));
  EXPECT_EQ(this->log(1).all()[1].wr_id, 9u);
  EXPECT_TRUE(filled(dst, 3));
}

TYPED_TEST(FabricConformance, WindowWritePlacesBytes) {
  const MemoryView window = this->buffer(128);
  this->fabric().endpoint(1).register_window(4, window);
  QueuePair* qp0 = this->fabric().connect(0, 1, 4);
  ASSERT_EQ(qp0->post_window_write(4, 16, this->buffer(40, 0xAB), 9, 1, true),
            PostResult::kOk);
  // Unsignaled: no issuer completion, the target still sees it.
  ASSERT_EQ(qp0->post_window_write(4, 64, this->buffer(8, 0xCD), 10, 2, false),
            PostResult::kOk);
  ASSERT_TRUE(this->eventually([&] {
    return this->log(1).count(WcOpcode::kRecvWindowWrite) == 2;
  }));
  this->quiesce();
  const auto target = this->log(1).all();
  EXPECT_EQ(target[0].wr_id, 16u);  // the window offset
  EXPECT_EQ(target[0].byte_len, 40u);
  EXPECT_EQ(target[0].immediate, 9u);
  EXPECT_EQ(target[1].wr_id, 64u);
  EXPECT_EQ(target[1].immediate, 10u);
  const auto issuer = this->log(0).all();
  ASSERT_EQ(issuer.size(), 1u);
  EXPECT_EQ(issuer[0].opcode, WcOpcode::kWindowWrite);
  EXPECT_EQ(issuer[0].wr_id, 1u);
  EXPECT_TRUE(filled({window.data, 16}, 0));
  EXPECT_TRUE(filled({window.data + 16, 40}, 0xAB));
  EXPECT_TRUE(filled({window.data + 56, 8}, 0));
  EXPECT_TRUE(filled({window.data + 64, 8}, 0xCD));
  EXPECT_TRUE(filled({window.data + 72, 56}, 0));
}

TYPED_TEST(FabricConformance, WindowWriteOutOfBoundsBreaksQp) {
  const MemoryView window = this->buffer(32);
  this->fabric().endpoint(1).register_window(4, window);
  QueuePair* qp0 = this->fabric().connect(0, 1, 4);
  QueuePair* qp1 = this->fabric().connect(1, 0, 4);
  ASSERT_EQ(qp0->post_window_write(4, 24, this->buffer(16, 1), 0, 1, true),
            PostResult::kOk);
  ASSERT_TRUE(this->eventually(
      [&] { return this->log(1).count(WcOpcode::kDisconnect) == 1; }));
  EXPECT_TRUE(qp1->broken());
  EXPECT_EQ(this->log(1).count(WcOpcode::kRecvWindowWrite), 0u);
  EXPECT_TRUE(filled(window, 0));
}

TYPED_TEST(FabricConformance, UnregisterWindowFences) {
  const MemoryView window = this->buffer(64);
  this->fabric().endpoint(1).register_window(5, window);
  QueuePair* qp0 = this->fabric().connect(0, 1, 5);
  this->fabric().endpoint(1).unregister_window(5);
  // A write to a withdrawn window is dropped, not a fault.
  ASSERT_EQ(qp0->post_window_write(5, 0, this->buffer(16, 7), 0, 1, true),
            PostResult::kOk);
  ASSERT_TRUE(this->eventually(
      [&] { return this->log(0).count(WcOpcode::kWindowWrite) == 1; }));
  this->quiesce();
  EXPECT_TRUE(filled(window, 0));
  EXPECT_EQ(this->log(1).size(), 0u);
  EXPECT_FALSE(qp0->broken());
}

TYPED_TEST(FabricConformance, CloseRevokesPostedReceives) {
  QueuePair* qp0 = this->fabric().connect(0, 1, 0);
  QueuePair* qp1 = this->fabric().connect(1, 0, 0);
  const MemoryView dst = this->buffer(64);
  ASSERT_EQ(qp1->post_recv(dst, 1), PostResult::kOk);
  ASSERT_EQ(qp1->post_recv_ud(this->buffer(64), 2), PostResult::kOk);
  qp1->close();
  EXPECT_TRUE(qp1->broken());
  ASSERT_EQ(qp0->post_send(this->buffer(64, 9), 3, 0), PostResult::kOk);
  ASSERT_EQ(qp0->post_send_ud(this->buffer(16, 9), 4, 0), PostResult::kOk);
  // The sender's send "succeeds": its bytes are discarded, as after a
  // remote destroy-QP during teardown.
  ASSERT_TRUE(this->eventually(
      [&] { return this->log(0).count(WcOpcode::kSend) == 1; }));
  this->quiesce();
  // No completion after close — not even flushes — and the revoked buffer
  // is never written.
  EXPECT_EQ(this->log(1).size(), 0u);
  EXPECT_TRUE(filled(dst, 0));
  EXPECT_EQ(qp1->post_recv(dst, 5), PostResult::kQpBroken);
  this->fabric().break_link(0, 1);
  this->quiesce();
  EXPECT_EQ(this->log(1).size(), 0u);
}

TYPED_TEST(FabricConformance, BreakLinkFlushesThenDisconnectsOnce) {
  QueuePair* qp0 = this->fabric().connect(0, 1, 0);
  QueuePair* qp1 = this->fabric().connect(1, 0, 0);
  ASSERT_EQ(qp1->post_recv(this->buffer(64), 5), PostResult::kOk);
  ASSERT_EQ(qp1->post_recv_ud(this->buffer(64), 6), PostResult::kOk);
  ASSERT_EQ(qp0->post_recv(this->buffer(64), 7), PostResult::kOk);
  this->quiesce();
  this->fabric().break_link(0, 1);
  ASSERT_TRUE(this->eventually([&] {
    return this->log(0).count(WcOpcode::kDisconnect) == 1 &&
           this->log(1).count(WcOpcode::kDisconnect) == 1;
  }));
  this->quiesce();
  const auto one = this->log(1).all();
  ASSERT_EQ(one.size(), 3u);
  EXPECT_EQ(one[0].opcode, WcOpcode::kRecv);
  EXPECT_EQ(one[0].status, WcStatus::kFlushed);
  EXPECT_EQ(one[0].wr_id, 5u);
  EXPECT_EQ(one[1].opcode, WcOpcode::kRecvUd);
  EXPECT_EQ(one[1].status, WcStatus::kFlushed);
  EXPECT_EQ(one[1].wr_id, 6u);
  EXPECT_EQ(one[2].opcode, WcOpcode::kDisconnect);
  EXPECT_EQ(one[2].qp, qp1->id());
  EXPECT_EQ(one[2].peer, 0u);
  const auto zero = this->log(0).all();
  ASSERT_EQ(zero.size(), 2u);
  EXPECT_EQ(zero[0].status, WcStatus::kFlushed);
  EXPECT_EQ(zero[0].wr_id, 7u);
  EXPECT_EQ(zero[1].opcode, WcOpcode::kDisconnect);
  EXPECT_TRUE(qp0->broken());
  EXPECT_TRUE(qp1->broken());
  EXPECT_EQ(qp0->post_send(this->buffer(8), 9, 0), PostResult::kQpBroken);
  EXPECT_EQ(qp1->post_recv(this->buffer(8), 9), PostResult::kQpBroken);
  EXPECT_EQ(qp0->post_write_imm(1, 9), PostResult::kQpBroken);
  EXPECT_EQ(qp0->post_send_ud(this->buffer(8), 9, 0), PostResult::kQpBroken);
}

TYPED_TEST(FabricConformance, BreakLinkFlushesQueuedSends) {
  if constexpr (TypeParam::kParksEarlySends) {
    GTEST_SKIP() << "sends complete once the kernel holds the bytes";
  } else {
    QueuePair* qp0 = this->fabric().connect(0, 1, 0);
    this->fabric().connect(1, 0, 0);
    ASSERT_EQ(qp0->post_send(this->buffer(64), 3, 0), PostResult::kOk);
    this->quiesce();
    this->fabric().break_link(0, 1);
    ASSERT_TRUE(this->eventually([&] { return this->log(0).size() == 2; }));
    const auto zero = this->log(0).all();
    EXPECT_EQ(zero[0].opcode, WcOpcode::kSend);
    EXPECT_EQ(zero[0].status, WcStatus::kFlushed);
    EXPECT_EQ(zero[0].wr_id, 3u);
    EXPECT_EQ(zero[1].opcode, WcOpcode::kDisconnect);
  }
}

TYPED_TEST(FabricConformance, CrashNodeBreaksItsConnections) {
  // Traffic first from the node about to crash, so that every backend has
  // a live path on which its peers can notice the crash.
  QueuePair* to1 = this->fabric().connect(0, 1, 0);
  QueuePair* to2 = this->fabric().connect(0, 2, 0);
  QueuePair* from1 = this->fabric().connect(1, 0, 0);
  QueuePair* from2 = this->fabric().connect(2, 0, 0);
  QueuePair* q12 = this->fabric().connect(1, 2, 0);
  QueuePair* q21 = this->fabric().connect(2, 1, 0);
  ASSERT_EQ(from1->post_recv(this->buffer(8), 1), PostResult::kOk);
  ASSERT_EQ(from2->post_recv(this->buffer(8), 1), PostResult::kOk);
  ASSERT_EQ(to1->post_send(this->buffer(8), 1, 0), PostResult::kOk);
  ASSERT_EQ(to2->post_send(this->buffer(8), 1, 0), PostResult::kOk);
  ASSERT_TRUE(this->eventually([&] {
    return this->log(1).size() == 1 && this->log(2).size() == 1;
  }));

  this->fabric().crash_node(0);
  EXPECT_TRUE(this->fabric().faults().crashed(0));
  EXPECT_FALSE(this->fabric().faults().crashed(1));
  ASSERT_TRUE(this->eventually([&] {
    return this->log(1).count(WcOpcode::kDisconnect) == 1 &&
           this->log(2).count(WcOpcode::kDisconnect) == 1;
  }));
  this->quiesce();
  EXPECT_TRUE(from1->broken());
  EXPECT_TRUE(from2->broken());
  for (NodeId n : {1u, 2u}) {
    for (const auto& c : this->log(n).all())
      if (c.opcode == WcOpcode::kDisconnect) {
        EXPECT_EQ(c.peer, 0u);
        EXPECT_EQ(c.qp, n == 1 ? from1->id() : from2->id());
      }
  }

  // The survivors' own link is untouched.
  EXPECT_FALSE(q12->broken());
  ASSERT_EQ(q21->post_recv(this->buffer(8), 2), PostResult::kOk);
  ASSERT_EQ(q12->post_send(this->buffer(8, 4), 3, 0), PostResult::kOk);
  ASSERT_TRUE(this->eventually(
      [&] { return this->log(2).count(WcOpcode::kRecv) == 2; }));

  // A new connection to the crashed node is born broken, not a hang.
  QueuePair* late = this->fabric().connect(1, 0, 9);
  this->quiesce();
  EXPECT_EQ(late->post_send(this->buffer(8), 4, 0), PostResult::kQpBroken);
}

TYPED_TEST(FabricConformance, RecvTooSmallBreaksQp) {
  QueuePair* qp0 = this->fabric().connect(0, 1, 0);
  QueuePair* qp1 = this->fabric().connect(1, 0, 0);
  const MemoryView small = this->buffer(32);
  ASSERT_EQ(qp1->post_recv(small, 1), PostResult::kOk);
  ASSERT_EQ(qp0->post_send(this->buffer(128, 6), 2, 0), PostResult::kOk);
  ASSERT_TRUE(this->eventually(
      [&] { return this->log(1).count(WcOpcode::kDisconnect) == 1; }));
  EXPECT_TRUE(qp1->broken());
  EXPECT_TRUE(filled(small, 0));
  for (const auto& c : this->log(1).all())
    EXPECT_NE(c.status, WcStatus::kSuccess);
  if constexpr (!TypeParam::kParksEarlySends) {
    // The sender learns too: an error completion, then the disconnect.
    ASSERT_TRUE(this->eventually(
        [&] { return this->log(0).count(WcOpcode::kDisconnect) == 1; }));
    EXPECT_EQ(this->log(0).all()[0].status, WcStatus::kError);
    EXPECT_TRUE(qp0->broken());
  }
}

TYPED_TEST(FabricConformance, UdUsesItsOwnReceiveQueue) {
  QueuePair* qp0 = this->fabric().connect(0, 1, 0);
  QueuePair* qp1 = this->fabric().connect(1, 0, 0);
  const MemoryView rc = this->buffer(64);
  ASSERT_EQ(qp1->post_recv(rc, 1), PostResult::kOk);
  // No UD receive posted: the datagram is discarded and counted, never an
  // error, and the RC receive is not touched.
  ASSERT_EQ(qp0->post_send_ud(this->buffer(16, 2), 2, 3), PostResult::kOk);
  ASSERT_TRUE(this->eventually([&] {
    return this->fabric().faults().datagram_counters().no_recv == 1;
  }));
  this->quiesce();
  EXPECT_EQ(this->log(1).size(), 0u);
  EXPECT_TRUE(filled(rc, 0));
  EXPECT_EQ(this->log(0).count(WcOpcode::kSendUd), 1u);

  const MemoryView ud = this->buffer(64);
  ASSERT_EQ(qp1->post_recv_ud(ud, 4), PostResult::kOk);
  ASSERT_EQ(qp0->post_send_ud(this->buffer(16, 8), 5, 6), PostResult::kOk);
  ASSERT_TRUE(
      this->eventually([&] { return this->log(1).count(WcOpcode::kRecvUd); }));
  const Completion got = this->log(1).all()[0];
  EXPECT_EQ(got.wr_id, 4u);
  EXPECT_EQ(got.immediate, 6u);
  EXPECT_EQ(got.byte_len, 16u);
  EXPECT_TRUE(filled({ud.data, 16}, 8));
  EXPECT_FALSE(qp0->broken());
  EXPECT_FALSE(qp1->broken());
  ASSERT_EQ(qp0->post_send(this->buffer(64, 1), 7, 0), PostResult::kOk);
  ASSERT_TRUE(
      this->eventually([&] { return this->log(1).count(WcOpcode::kRecv); }));
  EXPECT_TRUE(filled(rc, 1));
}

TYPED_TEST(FabricConformance, PostResultArgumentChecks) {
  QueuePair* qp = this->fabric().connect(0, 1, 0);
  // A real (non-phantom) payload must fit the 32-bit byte_len field; the
  // pointer is never dereferenced.
  auto* fake = reinterpret_cast<std::byte*>(0x1000);
  const MemoryView huge{fake, std::size_t{5} << 30};
  EXPECT_EQ(qp->post_send(huge, 1, 0), PostResult::kBadArgs);
  EXPECT_EQ(qp->post_recv(huge, 1), PostResult::kBadArgs);
  EXPECT_EQ(qp->post_send_ud(huge, 1, 0), PostResult::kBadArgs);
  EXPECT_EQ(qp->post_recv_ud(huge, 1), PostResult::kBadArgs);
  EXPECT_EQ(qp->post_window_write(0, 0, huge, 0, 1, true),
            PostResult::kBadArgs);
  // Window writes must not wrap the 64-bit window address space.
  EXPECT_EQ(qp->post_window_write(0, ~std::uint64_t{0} - 8, this->buffer(64),
                                  0, 2, true),
            PostResult::kWindowViolation);
  this->quiesce();
  EXPECT_FALSE(qp->broken());
  EXPECT_EQ(this->log(0).size(), 0u);
  // A closed QP reports kQpBroken before looking at the arguments.
  qp->close();
  EXPECT_EQ(qp->post_send(huge, 1, 0), PostResult::kQpBroken);
  EXPECT_EQ(qp->post_window_write(0, ~std::uint64_t{0} - 8, this->buffer(64),
                                  0, 2, true),
            PostResult::kQpBroken);
}

}  // namespace
}  // namespace rdmc::fabric
