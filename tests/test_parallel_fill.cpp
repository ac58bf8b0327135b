// Determinism of component-parallel max-min filling: set_fill_jobs(N)
// distributes independent component fills across N worker threads, and the
// contract (see flow_network.hpp) is that results are *byte-identical* for
// any N — same rates, same counters, same virtual timeline. This holds by
// construction (components share no mutable state and the merge is in
// deterministic component order), and this test is the regression gate:
// identical racked workloads run at fill_jobs 1 and 4 must produce
// bit-equal makespans and deterministic-counter values, and a direct
// FlowNetwork churn sequence must produce bit-equal rates.
#include <gtest/gtest.h>

#include <vector>

#include "harness/sim_harness.hpp"
#include "sim/cluster_profiles.hpp"
#include "sim/flow_network.hpp"
#include "util/random.hpp"

namespace rdmc {
namespace {

harness::ConcurrentResult run_racked(std::size_t fill_jobs) {
  harness::ConcurrentConfig cfg;
  cfg.profile = sim::racked_profile(64, 16, 3.5);
  cfg.group_size = 64;
  cfg.senders = 8;
  cfg.message_bytes = 2ull << 20;
  cfg.messages = 1;
  cfg.fill_jobs = fill_jobs;
  return harness::run_concurrent(cfg);
}

TEST(ParallelFill, ConcurrentRackedRunIsByteIdentical) {
  const auto serial = run_racked(1);
  const auto parallel = run_racked(4);

  // Bit-equality, not tolerance: the parallel dispatch must not change a
  // single operation in the virtual timeline.
  EXPECT_EQ(serial.makespan_seconds, parallel.makespan_seconds);
  EXPECT_EQ(serial.perf.events_processed, parallel.perf.events_processed);
  EXPECT_EQ(serial.perf.reallocations, parallel.perf.reallocations);
  EXPECT_EQ(serial.perf.filling_rounds, parallel.perf.filling_rounds);
  EXPECT_EQ(serial.perf.flows_touched, parallel.perf.flows_touched);
  EXPECT_EQ(serial.perf.max_component, parallel.perf.max_component);
  EXPECT_EQ(serial.perf.expand_rounds, parallel.perf.expand_rounds);
  EXPECT_EQ(serial.perf.component_fills, parallel.perf.component_fills);
}

TEST(ParallelFill, ChurnRatesAreBitEqualAcrossJobCounts) {
  sim::TopologyConfig cfg;
  cfg.num_nodes = 48;
  cfg.nic_gbps = 56.0;
  cfg.nodes_per_rack = 16;
  cfg.rack_uplink_gbps = 256.0;

  sim::Simulator sim1, sim4;
  sim::Topology topo1(cfg), topo4(cfg);
  sim::FlowNetwork net1(sim1, topo1);
  sim::FlowNetwork net4(sim4, topo4);
  net1.set_fill_jobs(1);
  net4.set_fill_jobs(4);

  util::Rng rng(2026);
  struct Live {
    sim::FlowId a, b;
  };
  std::vector<Live> live;
  for (std::size_t step = 0; step < 400; ++step) {
    if (live.size() < 4 || rng.uniform01() < 0.55) {
      NodeId src = static_cast<NodeId>(rng.uniform(0, cfg.num_nodes - 1));
      NodeId dst = static_cast<NodeId>(rng.uniform(0, cfg.num_nodes - 1));
      if (src == dst) dst = (dst + 1) % cfg.num_nodes;
      live.push_back({net1.start_flow(src, dst, 1e15, [](sim::SimTime) {}),
                      net4.start_flow(src, dst, 1e15, [](sim::SimTime) {})});
    } else {
      const std::size_t i = rng.uniform(0, live.size() - 1);
      net1.abort_flow(live[i].a);
      net4.abort_flow(live[i].b);
      live[i] = live.back();
      live.pop_back();
    }
    for (const Live& fl : live)
      ASSERT_EQ(net1.flow_rate(fl.a), net4.flow_rate(fl.b)) << "step " << step;
  }
  EXPECT_EQ(net1.counters().filling_rounds, net4.counters().filling_rounds);
  EXPECT_EQ(net1.counters().component_fills, net4.counters().component_fills);

  for (const Live& fl : live) {
    net1.abort_flow(fl.a);
    net4.abort_flow(fl.b);
  }
  sim1.run();
  sim4.run();
}

}  // namespace
}  // namespace rdmc
