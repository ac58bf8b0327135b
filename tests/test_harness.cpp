// The experiment harness itself (SimCluster, run_multicast,
// run_concurrent): every bench stands on these, so their contracts get
// their own coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "harness/sim_harness.hpp"
#include "sim/flow_network.hpp"

namespace rdmc::harness {
namespace {

TEST(Harness, RunOneReportsMakespan) {
  SimCluster cluster(sim::fractus_profile(4));
  GroupOptions options;
  cluster.create_group(1, {0, 1, 2, 3}, options);
  const double t = cluster.run_one(1, 16ull << 20);
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1.0);
  // Delivery records exist for every receiver, none for the 4th member
  // beyond its own send bookkeeping.
  const auto& rec = cluster.record(1);
  for (std::size_t m = 1; m < 4; ++m)
    EXPECT_EQ(rec.delivery_times[m].size(), 1u);
}

TEST(Harness, SequentialMessagesAccumulateRecords) {
  SimCluster cluster(sim::fractus_profile(4));
  cluster.create_group(1, {0, 1, 2, 3}, GroupOptions{});
  cluster.run_one(1, 1 << 20);
  cluster.run_one(1, 2 << 20);
  const auto& rec = cluster.record(1);
  for (std::size_t m = 1; m < 4; ++m) {
    ASSERT_EQ(rec.delivery_times[m].size(), 2u);
    EXPECT_LT(rec.delivery_times[m][0], rec.delivery_times[m][1]);
  }
}

TEST(Harness, MulticastResultFieldsConsistent) {
  MulticastConfig cfg;
  cfg.profile = sim::fractus_profile(8);
  cfg.group_size = 8;
  cfg.message_bytes = 32ull << 20;
  cfg.messages = 2;
  const auto r = run_multicast(cfg);
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_NEAR(r.latency_seconds, r.total_seconds / 2, 1e-12);
  EXPECT_NEAR(r.bandwidth_gbps,
              2.0 * 32.0 * (1 << 20) * 8 / r.total_seconds / 1e9, 1e-6);
  EXPECT_GE(r.skew_seconds, 0.0);
  EXPECT_GE(r.root_cpu_fraction, 0.0);
  EXPECT_LE(r.root_cpu_fraction, 1.0);
}

TEST(Harness, MembersOverrideChoosesRoot) {
  // An explicit member list re-roots the group: the front member is the
  // sender regardless of node id, and every other listed node delivers.
  MulticastConfig cfg;
  cfg.profile = sim::fractus_profile(8);
  cfg.group_size = 4;
  cfg.members = std::vector<NodeId>{5, 2, 7, 0};
  cfg.message_bytes = 4ull << 20;
  const auto r = run_multicast(cfg);
  EXPECT_GT(r.bandwidth_gbps, 1.0);
  EXPECT_GE(r.skew_seconds, 0.0);
}

TEST(Harness, ConcurrentAggregatesAllGroups) {
  ConcurrentConfig cfg;
  cfg.profile = sim::fractus_profile(8);
  cfg.group_size = 4;
  cfg.senders = 4;
  cfg.message_bytes = 4ull << 20;
  cfg.messages = 2;
  const auto r = run_concurrent(cfg);
  EXPECT_GT(r.makespan_seconds, 0.0);
  EXPECT_NEAR(r.aggregate_gbps,
              4.0 * 2.0 * 4.0 * (1 << 20) * 8 / r.makespan_seconds / 1e9,
              1e-6);
}

TEST(Harness, HybridConfigRuns) {
  MulticastConfig cfg;
  cfg.profile = sim::apt_profile(32);
  cfg.group_size = 32;
  cfg.message_bytes = 4ull << 20;
  std::vector<std::uint32_t> racks(32);
  for (std::size_t i = 0; i < 32; ++i)
    racks[i] = static_cast<std::uint32_t>(i / 16);
  cfg.hybrid_racks = racks;
  const auto r = run_multicast(cfg);
  EXPECT_GT(r.bandwidth_gbps, 1.0);
}

// Release builds define NDEBUG, which turns the flow solver's progressive
// oracle off. This runs a coupled end-to-end workload with it on: 8
// rotated-root groups of 64 on 3.5:1 oversubscribed racks, so components
// couple through the shared uplinks. Every reallocation is checked against
// a from-scratch water filling (divergence aborts), and the oracle must
// not perturb the run: the makespan is bit-equal to run_concurrent's.
TEST(Harness, ConcurrentRackedRunPassesOracle) {
  ConcurrentConfig cfg;
  cfg.profile = sim::racked_profile(64, 16, 3.5);
  cfg.group_size = 64;
  cfg.senders = 8;
  cfg.message_bytes = 2ull << 20;
  cfg.messages = 1;
  const auto reference = run_concurrent(cfg);

  fabric::SimFabric::Options options;
  options.costs = cfg.profile.costs;
  options.preemption = cfg.profile.preemption;
  options.default_mode = cfg.completion_mode;
  SimCluster cluster(cfg.profile, options, /*use_profile_costs=*/false);
  cluster.fabric().flows().set_cross_check(true);
  std::vector<SimCluster::GroupRecord*> recs;
  for (std::size_t g = 0; g < cfg.senders; ++g) {
    std::vector<NodeId> members{static_cast<NodeId>(g)};
    for (std::size_t i = 0; i < cfg.group_size; ++i)
      if (i != g) members.push_back(static_cast<NodeId>(i));
    GroupOptions group_options;
    group_options.block_size = cfg.block_size;
    recs.push_back(&cluster.create_group(static_cast<GroupId>(g), members,
                                         group_options));
  }
  const double start = cluster.sim().now();
  for (std::size_t g = 0; g < cfg.senders; ++g)
    ASSERT_TRUE(cluster.node(static_cast<NodeId>(g))
                    .send(static_cast<GroupId>(g), nullptr,
                          cfg.message_bytes));
  cluster.run_to_quiescence();

  double last = start;
  for (const auto* rec : recs) {
    for (std::size_t m = 1; m < rec->members.size(); ++m) {
      ASSERT_EQ(rec->delivery_times[m].size(), 1u) << "member " << m;
      last = std::max(last, rec->delivery_times[m].back());
    }
  }
  EXPECT_GT(cluster.fabric().flows().counters().cross_checks, 0u);
  EXPECT_EQ(last - start, reference.makespan_seconds);
}

}  // namespace
}  // namespace rdmc::harness
