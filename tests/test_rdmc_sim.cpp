// End-to-end RDMC over SimFabric: virtual-time behaviour must match the
// paper's first-order performance models — the foundation every bench
// stands on.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "analysis/model.hpp"
#include "baselines/mpi_bcast.hpp"
#include "core/group.hpp"
#include "harness/sim_harness.hpp"
#include "util/bytes.hpp"
#include "util/random.hpp"

namespace rdmc::harness {
namespace {

using sched::Algorithm;

sim::ClusterProfile ideal_fractus(std::size_t nodes) {
  auto p = sim::fractus_profile(nodes);
  p.preemption.probability = 0.0;  // deterministic timing checks
  return p;
}

MulticastConfig base_config(std::size_t n, std::uint64_t bytes,
                            Algorithm algorithm) {
  MulticastConfig c;
  c.profile = ideal_fractus(std::max<std::size_t>(n, 16));
  c.group_size = n;
  c.message_bytes = bytes;
  c.algorithm = algorithm;
  c.ideal_software = true;  // compare against pure network models
  return c;
}

constexpr double kBps100G = 100e9 / 8.0;  // bytes/sec at 100 Gb/s

TEST(RdmcSim, SequentialMatchesModel) {
  // n-1 full-message copies through the root's tx port.
  const std::uint64_t bytes = 64ull << 20;
  for (std::size_t n : {2, 4, 8}) {
    auto r = run_multicast(base_config(n, bytes, Algorithm::kSequential));
    const double expect =
        static_cast<double>(bytes) * static_cast<double>(n - 1) / kBps100G;
    EXPECT_NEAR(r.total_seconds, expect, expect * 0.03) << "n=" << n;
  }
}

TEST(RdmcSim, BinomialPipelineMatchesModel) {
  // (l + k - 1) block times (paper §4.4).
  const std::uint64_t bytes = 64ull << 20;
  const std::size_t block = 1 << 20;
  for (std::size_t n : {2, 4, 8, 16}) {
    auto cfg = base_config(n, bytes, Algorithm::kBinomialPipeline);
    cfg.block_size = block;
    auto r = run_multicast(cfg);
    const double block_time = static_cast<double>(block) / kBps100G;
    const double expect = analysis::binomial_pipeline_time(
        n, bytes / block, block_time);
    // The asynchronous engine under fluid fair sharing runs within ~15% of
    // the lock-step model (real RDMC similarly runs 15-25% below line rate
    // on hardware — e.g. Table 1's 62 ms for a 51 ms ideal transfer).
    EXPECT_GE(r.total_seconds, expect * 0.99) << "n=" << n;
    EXPECT_LE(r.total_seconds, expect * 1.20) << "n=" << n;
  }
}

TEST(RdmcSim, ChainMatchesModel) {
  const std::uint64_t bytes = 64ull << 20;
  const std::size_t block = 1 << 20;
  auto cfg = base_config(8, bytes, Algorithm::kChain);
  cfg.block_size = block;
  auto r = run_multicast(cfg);
  const double block_time = static_cast<double>(block) / kBps100G;
  const double expect =
      analysis::chain_time(8, bytes / block, block_time);
  EXPECT_NEAR(r.total_seconds, expect, expect * 0.05);
}

TEST(RdmcSim, BinomialTreeMatchesModel) {
  const std::uint64_t bytes = 64ull << 20;
  const std::size_t block = 1 << 20;
  auto cfg = base_config(8, bytes, Algorithm::kBinomialTree);
  cfg.block_size = block;
  auto r = run_multicast(cfg);
  const double block_time = static_cast<double>(block) / kBps100G;
  const double expect =
      analysis::binomial_tree_time(8, bytes / block, block_time);
  EXPECT_NEAR(r.total_seconds, expect, expect * 0.05);
}

TEST(RdmcSim, AlgorithmOrderingLargeMessage) {
  // Fig 4a's shape: pipeline ~ chain < MPI < tree < sequential at n=16.
  const std::uint64_t bytes = 64ull << 20;
  auto run = [&](Algorithm a) {
    auto cfg = base_config(16, bytes, a);
    return run_multicast(cfg).total_seconds;
  };
  const double pipe = run(Algorithm::kBinomialPipeline);
  const double chain = run(Algorithm::kChain);
  const double tree = run(Algorithm::kBinomialTree);
  const double seq = run(Algorithm::kSequential);

  auto mpi_cfg = base_config(16, bytes, Algorithm::kBinomialPipeline);
  mpi_cfg.make_schedule = [](std::size_t n, std::size_t rank) {
    return std::make_unique<baseline::MpiBcastSchedule>(n, rank);
  };
  const double mpi = run_multicast(mpi_cfg).total_seconds;

  EXPECT_LT(pipe, tree);
  EXPECT_LT(tree, seq);
  EXPECT_LE(pipe, chain * 1.05);
  EXPECT_GT(mpi, pipe);          // MVAPICH between pipeline and tree-ish
  EXPECT_LT(mpi, seq);
  // Paper: MPI takes 1.03x-3x the binomial pipeline's time.
  EXPECT_LT(mpi / pipe, 3.5);
}

TEST(RdmcSim, ReplicationAlmostFree) {
  // Fig 8's headline: 127 vs 511 copies cost nearly the same.
  const std::uint64_t bytes = 32ull << 20;
  auto cfg128 = base_config(128, bytes, Algorithm::kBinomialPipeline);
  cfg128.profile = ideal_fractus(128);
  auto cfg512 = base_config(512, bytes, Algorithm::kBinomialPipeline);
  cfg512.profile = ideal_fractus(512);
  const double t128 = run_multicast(cfg128).total_seconds;
  const double t512 = run_multicast(cfg512).total_seconds;
  // Paper Fig 8: "whether making 127, 255 or 511 copies, the total time
  // required is almost the same" (their curve grows mildly too).
  EXPECT_LT(t512 / t128, 1.45);
  // While sequential scales linearly.
  auto seq128 = base_config(128, bytes, Algorithm::kSequential);
  seq128.profile = ideal_fractus(128);
  const double s128 = run_multicast(seq128).total_seconds;
  EXPECT_GT(s128 / t128, 20.0);
}

TEST(RdmcSim, PipelineSkewIsTiny) {
  // Receivers finish nearly simultaneously (§5.2.2).
  auto cfg = base_config(16, 64ull << 20, Algorithm::kBinomialPipeline);
  auto pipe = run_multicast(cfg);
  // All receivers finish within a small fraction of the transfer (the
  // paper: "binomial pipeline transfers complete nearly simultaneously").
  EXPECT_LT(pipe.skew_seconds, pipe.total_seconds * 0.15);
}

TEST(RdmcSim, BandwidthApproachesLineRateForLargeMessages) {
  auto cfg = base_config(4, 256ull << 20, Algorithm::kBinomialPipeline);
  auto r = run_multicast(cfg);
  EXPECT_GT(r.bandwidth_gbps, 90.0);
  EXPECT_LE(r.bandwidth_gbps, 100.5);
}

TEST(RdmcSim, SmallBlocksCostOverheadWithRealSoftware) {
  // Fig 6's left edge: tiny blocks => per-block software costs dominate.
  auto small = base_config(4, 16ull << 20, Algorithm::kBinomialPipeline);
  small.ideal_software = false;
  small.block_size = 16 * 1024;
  auto large = base_config(4, 16ull << 20, Algorithm::kBinomialPipeline);
  large.ideal_software = false;
  large.block_size = 1 << 20;
  EXPECT_GT(run_multicast(large).bandwidth_gbps,
            run_multicast(small).bandwidth_gbps);
}

TEST(RdmcSim, MultipleMessagesSustainThroughput) {
  auto cfg = base_config(8, 16ull << 20, Algorithm::kBinomialPipeline);
  cfg.messages = 8;
  auto r = run_multicast(cfg);
  // Messages are not pipelined (§5.1), so each message pays the l-step
  // refill; sustained rate stays within ~30% of line rate at this size.
  EXPECT_GT(r.bandwidth_gbps, 70.0);
}

TEST(RdmcSim, InterruptModeCheaperCpuSlightlySlower) {
  auto polling = base_config(4, 100ull << 20, Algorithm::kBinomialPipeline);
  polling.ideal_software = false;
  polling.completion_mode = fabric::CompletionMode::kPolling;
  auto interrupt = polling;
  interrupt.completion_mode = fabric::CompletionMode::kInterrupt;
  const auto rp = run_multicast(polling);
  const auto ri = run_multicast(interrupt);
  // Fig 11: minimal bandwidth impact for large transfers.
  EXPECT_LT(rp.total_seconds, ri.total_seconds);
  EXPECT_LT((ri.total_seconds - rp.total_seconds) / rp.total_seconds, 0.10);
}

TEST(RdmcSim, CrossChannelSpeedsUpChainSend) {
  // Fig 12: CORE-Direct removes the software relay delay (~5% on chain).
  auto normal = base_config(6, 100ull << 20, Algorithm::kChain);
  normal.ideal_software = false;
  auto offload = normal;
  offload.cross_channel = true;
  const auto rn = run_multicast(normal);
  const auto ro = run_multicast(offload);
  EXPECT_LT(ro.total_seconds, rn.total_seconds);
  EXPECT_DOUBLE_EQ(ro.root_cpu_fraction, 0.0);
}

TEST(RdmcSim, HybridBeatsFlatWithRandomPlacement) {
  // §4.3 Hybrid Algorithms: datacenters hide topology, so the flat
  // overlay is "built using random pairs of nodes [and] many links connect
  // nodes that reside in different racks" — most steps cross the
  // oversubscribed TOR. The topology-aware two-level pipeline pays the
  // rack leaders\' double duty but crosses the TOR once per block per
  // rack, and wins.
  auto apt = sim::apt_profile(64);
  apt.preemption.probability = 0.0;

  MulticastConfig flat;
  flat.profile = apt;
  flat.group_size = 64;
  flat.message_bytes = 64ull << 20;
  flat.ideal_software = true;
  flat.algorithm = Algorithm::kBinomialPipeline;
  // Random placement: shuffle member ranks across racks.
  std::vector<NodeId> shuffled(64);
  for (std::size_t i = 0; i < 64; ++i) shuffled[i] = static_cast<NodeId>(i);
  util::Rng rng(99);
  for (std::size_t i = 63; i > 0; --i)
    std::swap(shuffled[i], shuffled[rng.uniform(0, i)]);
  flat.members = shuffled;

  MulticastConfig hybrid = flat;
  hybrid.members.reset();  // rack-aware: ranks align with racks
  std::vector<std::uint32_t> racks(64);
  for (std::size_t i = 0; i < 64; ++i)
    racks[i] = static_cast<std::uint32_t>(i / 16);
  hybrid.hybrid_racks = racks;

  const auto rf = run_multicast(flat);
  const auto rh = run_multicast(hybrid);
  EXPECT_LT(rh.total_seconds, rf.total_seconds);
}

TEST(RdmcSim, ConcurrentSendersShareFabricFairly) {
  // Fig 10a shape: aggregate bandwidth grows with more senders and
  // approaches the fabric's bisection capacity.
  ConcurrentConfig one;
  one.profile = ideal_fractus(16);
  one.group_size = 8;
  one.senders = 1;
  one.message_bytes = 100ull << 20;
  one.messages = 2;
  ConcurrentConfig all = one;
  all.senders = 8;
  const auto r1 = run_concurrent(one);
  const auto r8 = run_concurrent(all);
  // For large messages one pipeline already saturates per-node NICs, so
  // aggregate goodput stays nearly flat as senders are added (Fig 10a\'s
  // 100 MB curves); the theoretical ceiling is C*n/(n-1).
  EXPECT_GT(r8.aggregate_gbps, r1.aggregate_gbps * 0.95);
  EXPECT_LE(r8.aggregate_gbps, 100.0 * 8.0 / 7.0 + 1);

  // Small messages: per-message latency and per-node CPU dominate; the
  // robust property (paper: "no sign of interference between concurrent
  // overlapping transfers") is that adding senders never collapses
  // aggregate goodput.
  ConcurrentConfig tiny = one;
  tiny.message_bytes = 64 * 1024;
  tiny.block_size = 16 * 1024;
  tiny.messages = 16;
  ConcurrentConfig tiny_all = tiny;
  tiny_all.senders = 8;
  const auto t1 = run_concurrent(tiny);
  const auto t8 = run_concurrent(tiny_all);
  EXPECT_GT(t8.aggregate_gbps, t1.aggregate_gbps * 0.8);
}

TEST(RdmcSim, OversubscribedTorCapsAggregate) {
  // Fig 10b: on Apt the TOR limits aggregate inter-rack goodput.
  ConcurrentConfig cfg;
  cfg.profile = sim::apt_profile(32);
  cfg.profile.preemption.probability = 0.0;
  cfg.group_size = 32;
  cfg.senders = 8;
  cfg.message_bytes = 16ull << 20;
  cfg.messages = 1;
  const auto r = run_concurrent(cfg);
  ConcurrentConfig flatcfg = cfg;
  flatcfg.profile = ideal_fractus(32);
  const auto rflat = run_concurrent(flatcfg);
  EXPECT_LT(r.aggregate_gbps, rflat.aggregate_gbps);
}

TEST(RdmcSim, SlowLinkDegradationBounded) {
  // §4.5 item 2: one slow link costs the pipeline little; it gates the
  // chain completely.
  auto run_with_slow = [&](Algorithm a, bool slow) {
    auto profile = ideal_fractus(16);
    MulticastConfig cfg;
    cfg.profile = profile;
    cfg.group_size = 16;
    cfg.message_bytes = 64ull << 20;
    cfg.ideal_software = true;
    cfg.algorithm = a;
    // Build manually so we can degrade a link before running.
    fabric::SimFabric::Options options;
    options.costs = sim::SoftwareCosts{0, 0, 0, 0, 1e18, 0};
    options.preemption = sim::PreemptionModel{0.0, 0.0};
    SimCluster cluster(cfg.profile, options, false);
    if (slow) {
      // Degrade a link both overlays use: (2,3) is a hypercube edge
      // (2 XOR 3 = 1) and a chain hop. 10 Gb/s is below the T/l level the
      // pipeline's 1/l duty cycle can hide, so both algorithms feel it.
      cluster.topology().set_pair_cap(2, 3, 10.0);
      cluster.topology().set_pair_cap(3, 2, 10.0);
    }
    std::vector<NodeId> members(16);
    for (std::size_t i = 0; i < 16; ++i) members[i] = i;
    GroupOptions go;
    go.algorithm = a;
    cluster.create_group(1, members, go);
    return cluster.run_one(1, cfg.message_bytes);
  };
  const double pipe_fast = run_with_slow(Algorithm::kBinomialPipeline, false);
  const double pipe_slow = run_with_slow(Algorithm::kBinomialPipeline, true);
  const double chain_fast = run_with_slow(Algorithm::kChain, false);
  const double chain_slow = run_with_slow(Algorithm::kChain, true);
  // Chain: every block crosses the 10x-degraded link; time ~10x.
  EXPECT_GT(chain_slow / chain_fast, 5.0);
  // Pipeline: the link carries only 1/l of the steps, so the slowdown is
  // bounded by ~ (T/T')/l plus slack effects — far below the chain's.
  EXPECT_LT(pipe_slow / pipe_fast, 4.0);
  EXPECT_LT(pipe_slow / pipe_fast, 0.5 * chain_slow / chain_fast);
  // And the paper's closed form is a valid lower bound on bandwidth.
  const double fraction = analysis::slow_link_fraction(16, 100.0, 10.0);
  EXPECT_GE(pipe_fast / pipe_slow + 0.02, fraction);
}

TEST(RdmcSim, DelayInjectionAddsBoundedTime) {
  // §4.5 item 1: epsilon of scheduling delay adds O(epsilon), not O(k x
  // epsilon), thanks to slack.
  auto quiet = base_config(8, 64ull << 20, Algorithm::kBinomialPipeline);
  quiet.ideal_software = false;
  quiet.profile.preemption.probability = 0.0;
  auto noisy = quiet;
  noisy.profile.preemption.probability = 0.02;
  noisy.profile.preemption.mean_duration_s = 100e-6;
  const double tq = run_multicast(quiet).total_seconds;
  const double tn = run_multicast(noisy).total_seconds;
  EXPECT_GE(tn, tq);
  EXPECT_LT(tn / tq, 1.6);
}

TEST(RdmcSim, DataIntegrityWithRealBuffers) {
  // Small sim run with real memory: bytes must arrive intact.
  auto profile = ideal_fractus(4);
  SimCluster cluster(profile);
  std::vector<NodeId> members{0, 1, 2, 3};
  std::vector<std::vector<std::byte>> bufs(4);
  std::vector<bool> delivered(4, false);
  GroupOptions go;
  go.block_size = 4096;
  for (NodeId m : members) {
    cluster.node(m).create_group(
        7, members, go,
        [&, m](std::size_t size) {
          bufs[m].assign(size, std::byte{0});
          return fabric::MemoryView{bufs[m].data(), size};
        },
        [&, m](std::byte*, std::size_t) { delivered[m] = true; });
  }
  std::vector<std::byte> payload(100000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i * 31);
  ASSERT_TRUE(cluster.node(0).send(7, payload.data(), payload.size()));
  cluster.sim().run();
  for (NodeId m = 1; m < 4; ++m) {
    ASSERT_TRUE(delivered[m]);
    ASSERT_EQ(bufs[m].size(), payload.size());
    EXPECT_EQ(std::memcmp(bufs[m].data(), payload.data(), payload.size()),
              0);
  }
}

TEST(RdmcSim, DeterministicAcrossRuns) {
  auto cfg = base_config(8, 32ull << 20, Algorithm::kBinomialPipeline);
  cfg.ideal_software = false;  // includes seeded preemption noise
  const auto a = run_multicast(cfg);
  const auto b = run_multicast(cfg);
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
}

// -- Node completion routing ----------------------------------------------
// Two safeguards in Node::on_completion / register_qp, driven on Node
// directly (SimCluster::create_group would create every member at once).

/// What one member's side of a group observed.
struct MemberProbe {
  std::size_t delivered = 0;
  std::size_t failures = 0;
};

/// Create `node`'s side of `group` (phantom receive regions, 64 KB
/// blocks), reporting into `probe`.
bool join(SimCluster& cluster, NodeId node, GroupId group,
          const std::vector<NodeId>& members, MemberProbe& probe) {
  GroupOptions options;
  options.block_size = 64 << 10;
  return cluster.node(node).create_group(
      group, members, options,
      [](std::size_t size) { return fabric::MemoryView{nullptr, size}; },
      [&probe](std::byte*, std::size_t) { ++probe.delivered; },
      [&probe](GroupId, NodeId) { ++probe.failures; });
}

TEST(NodeRouting, EarlyCreditIsReplayedOnRegistration) {
  // create_group is collective but unsynchronised: here both receivers
  // finish theirs, and their ready-for-block credits reach the root, before
  // the root creates its side. The root's Node must buffer those credits
  // and replay them when the group registers its queue pairs; without the
  // replay the root never learns it may send, and nothing delivers.
  SimCluster cluster(ideal_fractus(4));
  const std::vector<NodeId> members{0, 1, 2};
  MemberProbe probes[3];
  ASSERT_TRUE(join(cluster, 1, 1, members, probes[1]));
  ASSERT_TRUE(join(cluster, 2, 1, members, probes[2]));
  cluster.sim().run();  // every credit lands while the root has no group
  EXPECT_GT(cluster.sim().now(), 0.0);

  ASSERT_TRUE(join(cluster, 0, 1, members, probes[0]));
  ASSERT_TRUE(cluster.node(0).send(1, nullptr, 1 << 20));
  cluster.sim().run();
  for (NodeId m = 1; m < 3; ++m) {
    EXPECT_EQ(probes[m].delivered, 1u) << "member " << m;
    EXPECT_EQ(probes[m].failures, 0u) << "member " << m;
  }
  EXPECT_EQ(cluster.node(0).group(1)->stats().messages_sent, 1u);
}

TEST(NodeRouting, DeadEpochCompletionsAreQuarantined) {
  // Mid-transfer, the root->rank1 link breaks and every member destroys
  // group 1 in the same instant. The break's disconnects and flushes, and
  // the block receives and credits already in flight, then arrive at
  // retired queue pairs. They must be dropped: none may reach group 2,
  // re-formed on the same nodes under a fresh id.
  SimCluster cluster(ideal_fractus(4));
  const std::vector<NodeId> members{0, 1, 2};
  MemberProbe old_epoch[3];
  for (NodeId m = 0; m < 3; ++m)
    ASSERT_TRUE(join(cluster, m, 1, members, old_epoch[m]));
  ASSERT_TRUE(cluster.node(0).send(1, nullptr, 4 << 20));
  const auto& faults = cluster.fabric().fault_counters();
  std::uint64_t dead_epoch = 0;
  cluster.sim().after(100e-6, [&] {
    const std::uint64_t before =
        faults.flushed_completions + faults.disconnects_delivered;
    cluster.fabric().break_link(0, 1);
    dead_epoch =
        faults.flushed_completions + faults.disconnects_delivered - before;
    for (NodeId m = 0; m < 3; ++m) cluster.node(m).destroy_group(1);
  });
  cluster.sim().run();
  EXPECT_GT(dead_epoch, 0u) << "the teardown raced no completions";
  for (NodeId m = 0; m < 3; ++m) {
    EXPECT_EQ(old_epoch[m].delivered, 0u) << "member " << m;
    EXPECT_EQ(old_epoch[m].failures, 0u) << "member " << m;
    EXPECT_EQ(cluster.node(m).group(1), nullptr);
  }

  MemberProbe new_epoch[3];
  for (NodeId m = 0; m < 3; ++m)
    ASSERT_TRUE(join(cluster, m, 2, members, new_epoch[m]));
  ASSERT_TRUE(cluster.node(0).send(2, nullptr, 4 << 20));
  cluster.sim().run();
  constexpr std::uint64_t kBlocks = (4 << 20) / (64 << 10);
  for (NodeId m = 0; m < 3; ++m) {
    const Group::Stats& stats = cluster.node(m).group(2)->stats();
    EXPECT_FALSE(cluster.node(m).group_failed(2)) << "member " << m;
    EXPECT_EQ(new_epoch[m].failures, 0u) << "member " << m;
    EXPECT_EQ(stats.flushed_completions, 0u) << "member " << m;
    EXPECT_EQ(stats.disconnects, 0u) << "member " << m;
    EXPECT_EQ(stats.duplicate_blocks, 0u) << "member " << m;
    if (m == 0) continue;
    EXPECT_EQ(new_epoch[m].delivered, 1u) << "member " << m;
    EXPECT_EQ(stats.blocks_received, kBlocks) << "member " << m;
  }
}

}  // namespace
}  // namespace rdmc::harness
