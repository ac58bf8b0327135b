// SimFabric's virtual-time behaviour: flow-paced transfers, completion
// modes, software cost accounting, preemption injection. The verbs contract
// it shares with the other backends is in test_fabric_conformance.
#include <gtest/gtest.h>

#include "fabric/sim_fabric.hpp"

namespace rdmc::fabric {
namespace {

constexpr double kGbps = 1e9 / 8.0;

struct Fixture {
  explicit Fixture(std::size_t nodes, double gbps = 100.0,
                   SimFabric::Options opts = {})
      : topo(sim::TopologyConfig{.num_nodes = nodes, .nic_gbps = gbps}),
        fabric(sim, topo, opts) {}
  sim::Simulator sim;
  sim::Topology topo;
  SimFabric fabric;
};

TEST(SimFabric, TransferTimeMatchesLineRate) {
  Fixture f(2, 100.0);
  double recv_at = -1;
  f.fabric.endpoint(1).set_completion_handler(
      [&](const Completion&) { recv_at = f.sim.now(); });
  f.fabric.endpoint(0).set_completion_handler([](const Completion&) {});
  QueuePair* qp0 = f.fabric.connect(0, 1, 0);
  QueuePair* qp1 = f.fabric.connect(1, 0, 0);
  const double bytes = 100.0 * kGbps;  // 100 Gb of payload => 1 s at line rate
  qp1->post_recv(MemoryView{nullptr, static_cast<std::size_t>(bytes)}, 1);
  qp0->post_send(MemoryView{nullptr, static_cast<std::size_t>(bytes)}, 2, 0);
  f.sim.run();
  EXPECT_NEAR(recv_at, 1.0, 1e-3);  // + latency + software costs
}

TEST(SimFabric, FifoSerializesPerQp) {
  // Two 1-second sends on one QP take ~2 seconds end to end.
  Fixture f(2, 100.0);
  std::vector<double> recv_times;
  f.fabric.endpoint(1).set_completion_handler(
      [&](const Completion&) { recv_times.push_back(f.sim.now()); });
  f.fabric.endpoint(0).set_completion_handler([](const Completion&) {});
  QueuePair* qp0 = f.fabric.connect(0, 1, 0);
  QueuePair* qp1 = f.fabric.connect(1, 0, 0);
  const auto bytes = static_cast<std::size_t>(100.0 * kGbps);  // 1 s each
  qp1->post_recv(MemoryView{nullptr, bytes}, 1);
  qp1->post_recv(MemoryView{nullptr, bytes}, 2);
  qp0->post_send(MemoryView{nullptr, bytes}, 3, 0);
  qp0->post_send(MemoryView{nullptr, bytes}, 4, 0);
  f.sim.run();
  ASSERT_EQ(recv_times.size(), 2u);
  EXPECT_NEAR(recv_times[0], 1.0, 1e-3);
  EXPECT_NEAR(recv_times[1], 2.0, 1e-3);
}

TEST(SimFabric, ParallelQpsShareBandwidth) {
  // Sends to two different peers share the tx port fairly.
  Fixture f(3, 100.0);
  std::vector<double> done(3, -1);
  for (NodeId n = 1; n <= 2; ++n) {
    f.fabric.endpoint(n).set_completion_handler(
        [&, n](const Completion&) { done[n] = f.sim.now(); });
  }
  f.fabric.endpoint(0).set_completion_handler([](const Completion&) {});
  const auto bytes = static_cast<std::size_t>(50.0 * kGbps);  // 0.5 s alone
  for (NodeId n = 1; n <= 2; ++n) {
    QueuePair* qpn = f.fabric.connect(n, 0, 0);
    qpn->post_recv(MemoryView{nullptr, bytes}, 1);
    QueuePair* qp0 = f.fabric.connect(0, n, 0);
    qp0->post_send(MemoryView{nullptr, bytes}, 2, 0);
  }
  f.sim.run();
  // Shared port: both take ~1 s instead of 0.5 s.
  EXPECT_NEAR(done[1], 1.0, 1e-2);
  EXPECT_NEAR(done[2], 1.0, 1e-2);
}

TEST(SimFabric, InterruptModeAddsLatency) {
  auto run_mode = [](CompletionMode mode) {
    SimFabric::Options opts;
    opts.default_mode = mode;
    // Make the hybrid window tiny so hybrid==interrupt is distinguishable.
    Fixture f(2, 100.0, opts);
    double recv_at = -1;
    f.fabric.endpoint(1).set_completion_handler(
        [&](const Completion&) { recv_at = f.sim.now(); });
    f.fabric.endpoint(0).set_completion_handler([](const Completion&) {});
    QueuePair* qp0 = f.fabric.connect(0, 1, 0);
    QueuePair* qp1 = f.fabric.connect(1, 0, 0);
    qp1->post_recv(MemoryView{nullptr, 1000}, 1);
    qp0->post_send(MemoryView{nullptr, 1000}, 2, 0);
    f.sim.run();
    return recv_at;
  };
  const double polling = run_mode(CompletionMode::kPolling);
  const double interrupt = run_mode(CompletionMode::kInterrupt);
  EXPECT_GT(interrupt, polling);
  EXPECT_NEAR(interrupt - polling, SimFabric::Options{}.costs.interrupt_wakeup_s,
              1e-6);
}

TEST(SimFabric, CrossChannelRemovesSoftwareCosts) {
  SimFabric::Options opts;
  opts.cross_channel = true;
  Fixture f(2, 100.0, opts);
  f.fabric.endpoint(0).set_completion_handler([](const Completion&) {});
  f.fabric.endpoint(1).set_completion_handler([](const Completion&) {});
  QueuePair* qp0 = f.fabric.connect(0, 1, 0);
  QueuePair* qp1 = f.fabric.connect(1, 0, 0);
  qp1->post_recv(MemoryView{nullptr, 1000}, 1);
  qp0->post_send(MemoryView{nullptr, 1000}, 2, 0);
  f.sim.run();
  EXPECT_DOUBLE_EQ(f.fabric.cpu_busy_seconds(0), 0.0);
  EXPECT_DOUBLE_EQ(f.fabric.cpu_busy_seconds(1), 0.0);
}

TEST(SimFabric, CpuBusyAccounted) {
  Fixture f(2);
  f.fabric.endpoint(0).set_completion_handler([](const Completion&) {});
  f.fabric.endpoint(1).set_completion_handler([](const Completion&) {});
  QueuePair* qp0 = f.fabric.connect(0, 1, 0);
  QueuePair* qp1 = f.fabric.connect(1, 0, 0);
  qp1->post_recv(MemoryView{nullptr, 100}, 1);
  qp0->post_send(MemoryView{nullptr, 100}, 2, 0);
  f.sim.run();
  EXPECT_GT(f.fabric.cpu_busy_seconds(0), 0.0);
  EXPECT_GT(f.fabric.cpu_busy_seconds(1), 0.0);
}

TEST(SimFabric, BreakAbortsInFlightFlow) {
  Fixture f(2);
  std::vector<Completion> r0, r1;
  f.fabric.endpoint(0).set_completion_handler(
      [&](const Completion& c) { r0.push_back(c); });
  f.fabric.endpoint(1).set_completion_handler(
      [&](const Completion& c) { r1.push_back(c); });
  QueuePair* qp0 = f.fabric.connect(0, 1, 0);
  QueuePair* qp1 = f.fabric.connect(1, 0, 0);
  const auto bytes = static_cast<std::size_t>(100.0 * kGbps);  // 1 s
  qp1->post_recv(MemoryView{nullptr, bytes}, 1);
  qp0->post_send(MemoryView{nullptr, bytes}, 2, 0);
  f.sim.after(0.1, [&] { f.fabric.break_link(0, 1); });
  f.sim.run();
  EXPECT_LT(f.sim.now(), 0.5);  // flow aborted, not completed
  bool disc0 = false, disc1 = false;
  for (const auto& c : r0) disc0 |= c.opcode == WcOpcode::kDisconnect;
  for (const auto& c : r1) disc1 |= c.opcode == WcOpcode::kDisconnect;
  EXPECT_TRUE(disc0);
  EXPECT_TRUE(disc1);
  EXPECT_EQ(qp0->post_send(MemoryView{nullptr, 10}, 9, 0), PostResult::kQpBroken);
}

TEST(SimFabric, OobDelivery) {
  Fixture f(3);
  std::vector<NodeId> froms;
  f.fabric.endpoint(2).set_oob_handler(
      [&](NodeId from, std::span<const std::byte>) {
        froms.push_back(from);
      });
  f.fabric.endpoint(0).send_oob(2, std::vector<std::byte>(4));
  f.fabric.endpoint(1).send_oob(2, std::vector<std::byte>(4));
  f.sim.run();
  ASSERT_EQ(froms.size(), 2u);
  EXPECT_GT(f.sim.now(), 0.0);  // OOB has latency
}

TEST(SimFabric, PreemptionInjectsDelay) {
  SimFabric::Options heavy;
  heavy.preemption.probability = 1.0;  // every op preempted
  heavy.preemption.mean_duration_s = 100e-6;
  SimFabric::Options none;
  none.preemption.probability = 0.0;

  auto run = [](SimFabric::Options opts) {
    Fixture f(2, 100.0, opts);
    double recv_at = -1;
    f.fabric.endpoint(1).set_completion_handler(
        [&](const Completion&) { recv_at = f.sim.now(); });
    f.fabric.endpoint(0).set_completion_handler([](const Completion&) {});
    QueuePair* qp0 = f.fabric.connect(0, 1, 0);
    QueuePair* qp1 = f.fabric.connect(1, 0, 0);
    qp1->post_recv(MemoryView{nullptr, 1000}, 1);
    qp0->post_send(MemoryView{nullptr, 1000}, 2, 0);
    f.sim.run();
    return recv_at;
  };
  EXPECT_GT(run(heavy), run(none) + 20e-6);
}

}  // namespace
}  // namespace rdmc::fabric
