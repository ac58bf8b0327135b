// Failure handling across the stack: the §3 reliability contract's item 6
// ("failures are reported to every survivor"), the unified FaultInjector
// semantics on all three backends, FaultPlan determinism, and the §4.6
// recovery driver + chaos invariants.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "fabric/fault_plan.hpp"
#include "fabric/mem_fabric.hpp"
#include "fabric/tcp_fabric.hpp"
#include "harness/chaos.hpp"
#include "harness/recovery.hpp"
#include "harness/sim_harness.hpp"
#include "util/random.hpp"

namespace rdmc {
namespace {

using namespace std::chrono_literals;

std::vector<NodeId> all_members(std::size_t n) {
  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
  return members;
}

// ------------------------------------------------ sim: schedule matrix ----

struct CrashCase {
  const char* name;
  sched::Algorithm algorithm;
  bool hybrid;
  std::size_t victim_rank;  // 0 = root, 1 = interior relay, n-1 = leaf
};

class SimCrash : public ::testing::TestWithParam<CrashCase> {};

/// Crash one member mid-transfer; every survivor must observe the failure
/// exactly once (fail-stop: the victim observes nothing), and nobody may
/// deliver the interrupted message twice.
TEST_P(SimCrash, EverySurvivorNotifiedExactlyOnce) {
  const CrashCase c = GetParam();
  constexpr std::size_t kN = 8;
  harness::SimCluster cluster(sim::fractus_profile(16));
  GroupOptions options;
  options.block_size = 64 << 10;
  options.algorithm = c.algorithm;
  if (c.hybrid)
    options.hybrid_racks = std::vector<std::uint32_t>{0, 0, 0, 0, 1, 1, 1, 1};
  const auto members = all_members(kN);
  auto& rec = cluster.create_group(1, members, options);

  const NodeId victim = members[c.victim_rank];
  cluster.sim().after(100e-6,
                      [&] { cluster.fabric().crash_node(victim); });
  cluster.node(0).send(1, nullptr, 4 << 20);
  cluster.run_to_quiescence();

  std::map<NodeId, std::size_t> notices;
  for (const auto& obs : rec.failure_log) ++notices[obs.by];
  EXPECT_EQ(notices.count(victim), 0u)
      << "fail-stop violated: the crashed node ran its failure callback";
  for (NodeId m : members) {
    if (m == victim) continue;
    EXPECT_EQ(notices[m], 1u) << "survivor " << m << " saw "
                              << notices[m] << " notices";
  }
  for (std::size_t i = 0; i < members.size(); ++i)
    EXPECT_LE(rec.delivery_times[i].size(), 1u) << "duplicate delivery";
  EXPECT_GT(cluster.fabric().fault_counters().crashes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedules, SimCrash,
    ::testing::Values(
        CrashCase{"binomial_root", sched::Algorithm::kBinomialPipeline,
                  false, 0},
        CrashCase{"binomial_interior", sched::Algorithm::kBinomialPipeline,
                  false, 1},
        CrashCase{"binomial_leaf", sched::Algorithm::kBinomialPipeline,
                  false, 7},
        CrashCase{"chain_root", sched::Algorithm::kChain, false, 0},
        CrashCase{"chain_interior", sched::Algorithm::kChain, false, 4},
        CrashCase{"chain_leaf", sched::Algorithm::kChain, false, 7},
        CrashCase{"sequential_root", sched::Algorithm::kSequential, false,
                  0},
        CrashCase{"sequential_interior", sched::Algorithm::kSequential,
                  false, 1},
        CrashCase{"sequential_leaf", sched::Algorithm::kSequential, false,
                  7},
        CrashCase{"hybrid_root", sched::Algorithm::kBinomialPipeline, true,
                  0},
        CrashCase{"hybrid_interior", sched::Algorithm::kBinomialPipeline,
                  true, 1},
        CrashCase{"hybrid_leaf", sched::Algorithm::kBinomialPipeline, true,
                  7}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(SimFailure, LinkBreakMidBlockNotifiesWholeGroup) {
  constexpr std::size_t kN = 8;
  harness::SimCluster cluster(sim::fractus_profile(16));
  GroupOptions options;
  options.block_size = 64 << 10;
  auto& rec = cluster.create_group(1, all_members(kN), options);

  // Break the root->rank1 link while its blocks are in flight.
  cluster.sim().after(100e-6, [&] { cluster.fabric().break_link(0, 1); });
  cluster.node(0).send(1, nullptr, 4 << 20);
  cluster.run_to_quiescence();

  std::map<NodeId, std::size_t> notices;
  for (const auto& obs : rec.failure_log) ++notices[obs.by];
  for (NodeId m : all_members(kN))
    EXPECT_EQ(notices[m], 1u) << "member " << m;
  EXPECT_GT(cluster.fabric().fault_counters().links_broken, 0u);
  EXPECT_GT(cluster.fabric().fault_counters().disconnects_delivered, 0u);
}

// ------------------------------------------------ fault injector timing ---

TEST(SimFaultInjector, DegradeScalesAndExpires) {
  sim::Simulator sim;
  sim::Topology topo(sim::TopologyConfig{.num_nodes = 2, .nic_gbps = 100.0});
  fabric::SimFabric fabric(sim, topo, {});
  double recv_at = -1;
  fabric.endpoint(1).set_completion_handler(
      [&](const fabric::Completion&) { recv_at = sim.now(); });
  fabric.endpoint(0).set_completion_handler([](const fabric::Completion&) {});
  auto* qp0 = fabric.connect(0, 1, 0);
  auto* qp1 = fabric.connect(1, 0, 0);
  const auto bytes = static_cast<std::size_t>(100.0 * 1e9 / 8.0);  // 1 s
  // Half bandwidth for the first 0.5 s: 0.5 s covers 0.25 of the payload,
  // the remaining 0.75 runs at full rate -> ~1.25 s total.
  ASSERT_TRUE(fabric.degrade_link(0, 1, 0.5, 0.5));
  qp1->post_recv(fabric::MemoryView{nullptr, bytes}, 1);
  qp0->post_send(fabric::MemoryView{nullptr, bytes}, 2, 0);
  sim.run();
  EXPECT_NEAR(recv_at, 1.25, 0.05);
  EXPECT_EQ(fabric.fault_counters().degrades, 1u);
}

TEST(SimFaultInjector, SlowNodeScalesSoftwareCosts) {
  auto run_with_slowdown = [](bool slow) {
    sim::Simulator sim;
    sim::Topology topo(
        sim::TopologyConfig{.num_nodes = 2, .nic_gbps = 100.0});
    auto options = fabric::SimFabric::options_from(sim::fractus_profile(2));
    fabric::SimFabric fabric(sim, topo, options);
    fabric.endpoint(0).set_completion_handler([](const fabric::Completion&) {});
    fabric.endpoint(1).set_completion_handler([](const fabric::Completion&) {});
    auto* qp0 = fabric.connect(0, 1, 0);
    auto* qp1 = fabric.connect(1, 0, 0);
    if (slow) {
      EXPECT_TRUE(fabric.slow_node(1, 10.0, 1.0));
    }
    for (std::uint64_t i = 0; i < 16; ++i) {
      qp1->post_recv(fabric::MemoryView{nullptr, 4096}, i);
      qp0->post_send(fabric::MemoryView{nullptr, 4096}, i, 0);
    }
    sim.run();
    return fabric.cpu_busy_seconds(1);
  };
  const double base = run_with_slowdown(false);
  const double slowed = run_with_slowdown(true);
  ASSERT_GT(base, 0.0);
  EXPECT_NEAR(slowed / base, 10.0, 0.5);
}

TEST(SimFaultInjector, ConnectToCrashedNodeIsBornBroken) {
  sim::Simulator sim;
  sim::Topology topo(sim::TopologyConfig{.num_nodes = 2, .nic_gbps = 100.0});
  fabric::SimFabric fabric(sim, topo, {});
  std::size_t disconnects = 0;
  fabric.endpoint(0).set_completion_handler(
      [&](const fabric::Completion& c) {
        disconnects += c.opcode == fabric::WcOpcode::kDisconnect;
      });
  fabric.crash_node(1);
  EXPECT_TRUE(fabric.faults().crashed(1));
  auto* qp = fabric.connect(0, 1, 0);
  sim.run();
  ASSERT_NE(qp, nullptr);
  EXPECT_EQ(qp->post_send(fabric::MemoryView{nullptr, 16}, 1, 0),
            fabric::PostResult::kQpBroken);
  EXPECT_EQ(disconnects, 1u);
}

// ------------------------------------------------ fault plans -------------

TEST(FaultPlan, DeterministicPerSeed) {
  fabric::FaultPlanSpec spec;
  spec.nodes = all_members(16);
  spec.protect = {0};
  spec.max_events = 4;
  const auto a = fabric::FaultPlan::random(42, spec);
  const auto b = fabric::FaultPlan::random(42, spec);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_EQ(a.events()[i].peer, b.events()[i].peer);
    EXPECT_EQ(a.events()[i].factor, b.events()[i].factor);
  }
  EXPECT_EQ(a.describe(), b.describe());
  const auto c = fabric::FaultPlan::random(43, spec);
  EXPECT_NE(a.describe(), c.describe());
}

TEST(FaultPlan, RespectsProtectionAndSurvivorFloor) {
  fabric::FaultPlanSpec spec;
  spec.nodes = all_members(6);
  spec.protect = {0};
  spec.min_survivors = 4;
  spec.max_events = 8;
  spec.crash_weight = 10.0;  // crash-heavy mix to stress the limits
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto plan = fabric::FaultPlan::random(seed, spec);
    const auto crashed = plan.crashed_nodes();
    EXPECT_LE(crashed.size(), spec.nodes.size() - spec.min_survivors);
    for (NodeId n : crashed) EXPECT_NE(n, 0u);
    for (const auto& e : plan.events()) {
      EXPECT_GE(e.at, 0.0);
      EXPECT_LT(e.at, spec.window_s);
    }
  }
}

// ------------------------------------------------ §4.6 recovery driver ----

TEST(Recovery, CrashMidTransferReformsAndResumes) {
  harness::SimCluster cluster(sim::fractus_profile(8));
  harness::RecoveryConfig config;
  config.members = all_members(8);
  config.group_options.block_size = 32 << 10;
  config.messages = 3;
  config.message_bytes = 256 << 10;
  cluster.sim().after(100e-6, [&] { cluster.fabric().crash_node(5); });

  harness::RecoveryDriver driver(cluster, config);
  const auto result = driver.run();
  EXPECT_TRUE(result.ok) << (result.violations.empty()
                                 ? ""
                                 : result.violations.front());
  EXPECT_EQ(result.reforms, 1u);
  EXPECT_FALSE(result.root_lost);
  EXPECT_EQ(result.final_members.size(), 7u);
  for (NodeId n : result.final_members) EXPECT_NE(n, 5u);
  EXPECT_EQ(cluster.perf_stats().reforms, 1u);
  EXPECT_GT(cluster.perf_stats().breaks_delivered, 0u);
}

TEST(Recovery, RootCrashIsReportedAsRootLoss) {
  harness::SimCluster cluster(sim::fractus_profile(8));
  harness::RecoveryConfig config;
  config.members = all_members(4);
  config.group_options.block_size = 32 << 10;
  config.messages = 2;
  config.message_bytes = 256 << 10;
  cluster.sim().after(50e-6, [&] { cluster.fabric().crash_node(0); });

  harness::RecoveryDriver driver(cluster, config);
  const auto result = driver.run();
  EXPECT_TRUE(result.root_lost);
  EXPECT_TRUE(result.violations.empty())
      << result.violations.front();
}

TEST(Chaos, SmokeSweepHoldsInvariants) {
  harness::ChaosSpec spec;
  spec.group_size = 8;
  spec.messages = 2;
  spec.message_bytes = 256 << 10;
  spec.group_options.block_size = 32 << 10;
  spec.faults.max_events = 2;
  const auto result = harness::run_chaos_campaign(1, 12, spec);
  EXPECT_EQ(result.passed, result.seeds_run);
  EXPECT_GT(result.fault_hit, 0u);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << "seed " << f.seed << " failed: "
                  << (f.violations.empty() ? "?" : f.violations.front())
                  << "\nplan:\n"
                  << f.plan;
  }
}

// ------------------------------------------------ threaded backends -------

/// Minimal threaded cluster with per-member failure counting.
class MemCluster {
 public:
  explicit MemCluster(std::size_t n) : fabric_(n), inboxes_(n) {
    for (std::size_t i = 0; i < n; ++i)
      nodes_.push_back(
          std::make_unique<Node>(fabric_, static_cast<NodeId>(i)));
  }

  ~MemCluster() {
    nodes_.clear();
    fabric_.stop();
  }

  void create_group_everywhere(GroupId id, const std::vector<NodeId>& members,
                               GroupOptions options) {
    for (NodeId m : members) {
      ASSERT_TRUE(nodes_[m]->create_group(
          id, members, options,
          [this, m](std::size_t size) {
            inboxes_[m].resize(size);
            return fabric::MemoryView{inboxes_[m].data(), size};
          },
          [this, m](std::byte*, std::size_t) {
            std::lock_guard lock(mutex_);
            ++delivered_[m];
            cv_.notify_all();
          },
          [this, m](GroupId, NodeId) {
            std::lock_guard lock(mutex_);
            ++failures_[m];
            cv_.notify_all();
          }));
    }
  }

  bool wait_failure_on(const std::vector<NodeId>& nodes,
                       std::chrono::seconds timeout = 20s) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] {
      for (NodeId n : nodes)
        if (failures_[n] == 0) return false;
      return true;
    });
  }

  std::size_t failures_on(NodeId n) {
    std::lock_guard lock(mutex_);
    return failures_[n];
  }

  Node& node(std::size_t i) { return *nodes_[i]; }
  fabric::MemFabric& fabric() { return fabric_; }

 private:
  fabric::MemFabric fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::vector<std::byte>> inboxes_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<NodeId, std::size_t> delivered_;
  std::map<NodeId, std::size_t> failures_;
};

TEST(MemFailure, CrashMidTransferNotifiesSurvivorsExactlyOnce) {
  constexpr std::size_t kN = 5;
  MemCluster cluster(kN);
  GroupOptions options;
  options.block_size = 64 << 10;
  cluster.create_group_everywhere(1, all_members(kN), options);

  std::vector<std::byte> payload(16 << 20);
  ASSERT_TRUE(cluster.node(0).send(1, payload.data(), payload.size()));
  cluster.fabric().crash_node(3);
  ASSERT_TRUE(cluster.wait_failure_on({0, 1, 2, 4}));
  std::this_thread::sleep_for(100ms);  // settle: no extra notices may arrive
  for (NodeId n : {0u, 1u, 2u, 4u})
    EXPECT_EQ(cluster.failures_on(n), 1u) << "member " << n;
  EXPECT_TRUE(cluster.fabric().crashed(3));
}

TEST(MemFailure, LinkBreakMidTransferNotifiesEveryone) {
  constexpr std::size_t kN = 5;
  MemCluster cluster(kN);
  GroupOptions options;
  options.block_size = 64 << 10;
  cluster.create_group_everywhere(1, all_members(kN), options);

  std::vector<std::byte> payload(16 << 20);
  ASSERT_TRUE(cluster.node(0).send(1, payload.data(), payload.size()));
  cluster.fabric().break_link(0, 1);
  ASSERT_TRUE(cluster.wait_failure_on({0, 1, 2, 3, 4}));
  std::this_thread::sleep_for(100ms);  // settle: no extra notices may arrive
  for (NodeId n : all_members(kN))
    EXPECT_EQ(cluster.failures_on(n), 1u) << "member " << n;
}

TEST(MemFailure, ImmediateModeInjectorContract) {
  fabric::MemFabric fabric(2);
  // No bandwidth model: degradations are accepted-and-ignored.
  EXPECT_FALSE(fabric.faults().degrade_link(0, 1, 0.5, 1.0));
  // Slowdowns are real dispatch delays and validate their arguments.
  EXPECT_FALSE(fabric.faults().slow_node(0, 0.5, 1.0));
  EXPECT_TRUE(fabric.faults().slow_node(0, 4.0, 0.05));
  fabric.stop();
}

TEST(TcpFailure, LinkBreakMidTransferNotifiesGroup) {
  constexpr std::size_t kN = 3;
  std::vector<fabric::TcpAddress> addresses(kN);  // loopback, ephemeral
  fabric::TcpFabric fabric(addresses, all_members(kN));
  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t i = 0; i < kN; ++i)
    nodes.push_back(
        std::make_unique<Node>(fabric, static_cast<NodeId>(i)));

  std::mutex mutex;
  std::condition_variable cv;
  std::map<NodeId, std::size_t> failures;
  std::vector<std::vector<std::byte>> inboxes(kN);
  GroupOptions options;
  options.block_size = 256 << 10;
  for (NodeId m : all_members(kN)) {
    ASSERT_TRUE(nodes[m]->create_group(
        1, all_members(kN), options,
        [&, m](std::size_t size) {
          inboxes[m].resize(size);
          return fabric::MemoryView{inboxes[m].data(), size};
        },
        [](std::byte*, std::size_t) {},
        [&, m](GroupId, NodeId) {
          std::lock_guard lock(mutex);
          ++failures[m];
          cv.notify_all();
        }));
  }

  std::vector<std::byte> payload(32 << 20);
  ASSERT_TRUE(nodes[0]->send(1, payload.data(), payload.size()));
  fabric.break_link(0, 1);
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 20s, [&] {
      return failures[0] > 0 && failures[1] > 0 && failures[2] > 0;
    }));
  }
  std::this_thread::sleep_for(100ms);
  {
    std::lock_guard lock(mutex);
    for (NodeId n : all_members(kN))
      EXPECT_EQ(failures[n], 1u) << "member " << n;
  }
  nodes.clear();
  fabric.stop();
}

}  // namespace
}  // namespace rdmc
