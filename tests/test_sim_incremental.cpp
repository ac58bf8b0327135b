// Stress and property tests for the incremental simulator core: flow aborts
// mid-transfer, EventQueue cancellation under churn, and randomized
// equivalence of the incremental reallocation against from-scratch fills
// by the progressive oracle and by the production exact fill.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/flow_network.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "util/random.hpp"

namespace rdmc::sim {
namespace {

constexpr double kGbps = 1e9 / 8.0;  // bytes/sec per Gb/s

struct Fixture {
  explicit Fixture(TopologyConfig cfg) : topo(cfg), net(sim, topo) {
    net.set_cross_check(true);
  }
  Simulator sim;
  Topology topo;
  FlowNetwork net;
};

// ---------------------------------------------------------- abort_flow --

TEST(AbortFlow, MidFlightAbortRedistributesBandwidth) {
  // Two flows share the tx port at 50 Gb/s each. Aborting one at t=0.5
  // doubles the survivor's rate: it has moved 25 Gb by then and the
  // remaining 75 Gb go at 100 Gb/s, finishing at t = 0.5 + 0.75.
  Fixture f(TopologyConfig{.num_nodes = 3, .nic_gbps = 100.0});
  double t1 = -1, t2 = -1;
  const FlowId a = f.net.start_flow(0, 1, 100.0 * kGbps,
                                    [&](SimTime t) { t1 = t; });
  f.net.start_flow(0, 2, 100.0 * kGbps, [&](SimTime t) { t2 = t; });
  f.sim.at(0.5, [&] { f.net.abort_flow(a); });
  f.sim.run();
  EXPECT_EQ(t1, -1) << "aborted flow's callback must never fire";
  EXPECT_NEAR(t2, 1.25, 1e-9);
  EXPECT_EQ(f.net.active_flows(), 0u);
  EXPECT_EQ(f.net.counters().flow_aborts, 1u);
}

TEST(AbortFlow, AbortWithinStartInstant) {
  // Start and abort inside one virtual instant: the flow is never wired
  // into any resource, and the neighbour is unaffected.
  Fixture f(TopologyConfig{.num_nodes = 3, .nic_gbps = 100.0});
  double t2 = -1;
  f.net.start_flow(0, 2, 100.0 * kGbps, [&](SimTime t) { t2 = t; });
  const FlowId a = f.net.start_flow(0, 1, 100.0 * kGbps,
                                    [](SimTime) { FAIL(); });
  f.net.abort_flow(a);
  f.sim.run();
  EXPECT_NEAR(t2, 1.0, 1e-9);
}

TEST(AbortFlow, UnknownAndDoubleAbortAreNoOps) {
  Fixture f(TopologyConfig{.num_nodes = 2, .nic_gbps = 100.0});
  double t1 = -1;
  const FlowId a = f.net.start_flow(0, 1, 100.0 * kGbps,
                                    [&](SimTime t) { t1 = t; });
  f.net.abort_flow(a + 100);  // never issued
  f.sim.at(0.25, [&] {
    f.net.abort_flow(a);
    f.net.abort_flow(a);  // second abort of the same id
  });
  f.sim.run();
  EXPECT_EQ(t1, -1);
  EXPECT_EQ(f.net.counters().flow_aborts, 1u);
  EXPECT_TRUE(f.net.rates_match_full_recompute());
}

TEST(AbortFlow, ManyInFlightAbortsKeepRatesConsistent) {
  // A fan-in of 16 senders; abort half of them at staggered times while
  // the rest complete. Every reallocation is cross-checked (fixture), and
  // the survivors must finish with all bytes accounted for.
  Fixture f(TopologyConfig{.num_nodes = 17, .nic_gbps = 100.0});
  int completed = 0;
  std::vector<FlowId> ids;
  for (NodeId s = 0; s < 16; ++s) {
    ids.push_back(f.net.start_flow(s, 16, 10.0 * kGbps,
                                   [&](SimTime) { ++completed; }));
  }
  for (int i = 0; i < 8; ++i) {
    f.sim.at(0.05 + 0.01 * i, [&f, &ids, i] { f.net.abort_flow(ids[2 * i]); });
  }
  f.sim.run();
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(f.net.counters().flow_aborts, 8u);
  EXPECT_DOUBLE_EQ(f.net.bytes_completed(), 8 * 10.0 * kGbps);
}

// ------------------------------------------------- EventQueue::cancel --

TEST(EventQueueCancel, StressAgainstReferenceModel) {
  // Random schedule/cancel/pop churn, mirrored into a reference ordered
  // map. The queue must fire exactly the never-cancelled events, in
  // (time, insertion-sequence) order, and cancel() must report precisely
  // whether the id was still pending.
  std::mt19937 rng(0xC0FFEE);
  EventQueue queue;
  // (time, insertion seq) -> event id; mirrors the queue's live set.
  std::map<std::pair<SimTime, std::uint64_t>, EventId> model;
  std::uint64_t seq = 0;
  SimTime now = 0.0;
  std::vector<EventId> history;  // every id ever issued (mostly stale)
  std::uniform_real_distribution<double> dt(0.0, 10.0);

  int fired_payload = -1;
  for (int op = 0; op < 20000; ++op) {
    const int pick = static_cast<int>(rng() % 10);
    if (pick < 5 || model.empty()) {
      const SimTime when = now + dt(rng);
      const EventId id = queue.schedule(when, [&fired_payload, op] {
        fired_payload = op;
      });
      model.emplace(std::make_pair(when, seq++), id);
      history.push_back(id);
    } else if (pick < 8) {
      // Cancel: half the time a live id, half the time a stale one.
      if (rng() % 2 == 0) {
        auto it = model.begin();
        std::advance(it, rng() % model.size());
        EXPECT_TRUE(queue.cancel(it->second));
        EXPECT_FALSE(queue.cancel(it->second)) << "double cancel must fail";
        model.erase(it);
      } else {
        const EventId stale = history[rng() % history.size()];
        bool live = false;
        for (const auto& [key, id] : model) live |= (id == stale);
        EXPECT_EQ(queue.cancel(stale), live);
        if (live) {
          for (auto it = model.begin(); it != model.end(); ++it) {
            if (it->second == stale) {
              model.erase(it);
              break;
            }
          }
        }
      }
    } else {
      auto [when, fn] = queue.pop();
      ASSERT_FALSE(model.empty());
      EXPECT_EQ(when, model.begin()->first.first);
      fired_payload = -1;
      fn();
      EXPECT_NE(fired_payload, -1) << "popped event must carry its closure";
      model.erase(model.begin());
      EXPECT_GE(when, now);
      now = when;
    }
    ASSERT_EQ(queue.size(), model.size());
    EXPECT_EQ(queue.empty(), model.empty());
    if (!model.empty()) {
      EXPECT_EQ(queue.next_time(), model.begin()->first.first);
    }
  }
  // Drain what's left; order must match the model exactly.
  while (!model.empty()) {
    auto [when, fn] = queue.pop();
    EXPECT_EQ(when, model.begin()->first.first);
    model.erase(model.begin());
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueCancel, SlotReuseNeverHonoursStaleIds) {
  // Churn a single-slot queue: each generation's id must die with it.
  EventQueue queue;
  std::vector<EventId> stale;
  for (int i = 0; i < 1000; ++i) {
    const EventId id = queue.schedule(static_cast<double>(i), [] {});
    for (const EventId old : stale) EXPECT_FALSE(queue.cancel(old));
    if (i % 2 == 0) {
      EXPECT_TRUE(queue.cancel(id));
    } else {
      (void)queue.pop();
    }
    if (stale.size() < 16) stale.push_back(id);
  }
  EXPECT_TRUE(queue.empty());
}

// ------------------------------------ incremental == full water-filling --

TEST(IncrementalReallocation, RandomizedEquivalenceWithFullRecompute) {
  // Random topology (racks, uplink caps, slow pair links, slow nodes) and
  // a random start/abort/complete schedule. Cross-check mode already
  // validates every single reallocation internally; on top of that the
  // test samples rates_match_full_recompute(1e-9) at random instants.
  std::mt19937 rng(2024);
  for (int round = 0; round < 6; ++round) {
    TopologyConfig cfg;
    cfg.num_nodes = 10 + rng() % 6;
    cfg.nic_gbps = 100.0;
    if (rng() % 2 == 0) {
      cfg.nodes_per_rack = 4;
      cfg.rack_uplink_gbps = 100.0 + static_cast<double>(rng() % 200);
    }
    Fixture f(cfg);
    const auto n = static_cast<NodeId>(cfg.num_nodes);
    // A few slow directed links, established before any flow starts.
    for (int i = 0; i < 3; ++i) {
      const NodeId s = rng() % n;
      const NodeId d = (s + 1 + rng() % (n - 1)) % n;
      f.topo.set_pair_cap(s, d, 5.0 + static_cast<double>(rng() % 40));
    }

    std::vector<FlowId> live;
    std::uniform_real_distribution<double> when(0.0, 0.5);
    std::uniform_real_distribution<double> size(0.05, 2.0);
    for (int i = 0; i < 120; ++i) {
      const double t = when(rng);
      const int action = static_cast<int>(rng() % 10);
      if (action < 6) {
        const NodeId s = rng() % n;
        const NodeId d = (s + 1 + rng() % (n - 1)) % n;
        const double bytes = size(rng) * kGbps;
        f.sim.at(t, [&f, &live, s, d, bytes] {
          live.push_back(f.net.start_flow(s, d, bytes, nullptr));
        });
      } else if (action < 8) {
        f.sim.at(t, [&f, &live, &rng] {
          if (live.empty()) return;
          const std::size_t k = rng() % live.size();
          f.net.abort_flow(live[k]);  // may already be complete: no-op
          live.erase(live.begin() + k);
        });
      } else if (action == 8) {
        // Mutate a node's NIC mid-run: exercises the topology-version
        // rebuild-everything path.
        const NodeId slow = rng() % n;
        const double gbps = 25.0 + static_cast<double>(rng() % 75);
        f.sim.at(t, [&f, slow, gbps] {
          f.topo.set_node_nic(slow, gbps);
          f.net.topology_changed();
        });
      } else {
        f.sim.at(t, [&f] {
          EXPECT_TRUE(f.net.rates_match_full_recompute(1e-9));
        });
      }
    }
    f.sim.run();
    EXPECT_EQ(f.net.active_flows(), 0u);
    EXPECT_TRUE(f.net.rates_match_full_recompute(1e-9));
    EXPECT_GT(f.net.counters().cross_checks, 0u);
  }
}

TEST(IncrementalReallocation, PairCapAppearsAfterFlowsStarted) {
  // Capacity mutation after flows are established must invalidate the
  // cached membership (the flow gains a new resource), not just rates.
  Fixture f(TopologyConfig{.num_nodes = 2, .nic_gbps = 100.0});
  double t1 = -1;
  f.net.start_flow(0, 1, 50.0 * kGbps, [&](SimTime t) { t1 = t; });
  f.sim.at(0.25, [&] {
    f.topo.set_pair_cap(0, 1, 25.0);
    f.net.topology_changed();
  });
  f.sim.run();
  // 25 Gb at 100 Gb/s until t=0.25, then the remaining 25 Gb at 25 Gb/s.
  EXPECT_NEAR(t1, 0.25 + 25.0 / 25.0, 1e-9);
}

TEST(IncrementalReallocation, LinkDegradeRefillsEstablishedRates) {
  // A capacity mutation after flows are established must invalidate every
  // held rate, not only the degraded flow's: the capped flow drops to its
  // cap, its tx peers pick up the slack, and clearing the cap restores the
  // even split.
  Fixture f(TopologyConfig{.num_nodes = 8, .nic_gbps = 100.0});
  std::vector<FlowId> ids;
  for (NodeId dst = 1; dst <= 5; ++dst)
    ids.push_back(f.net.start_flow(0, dst, 1e13, nullptr));
  for (const FlowId id : ids)
    EXPECT_NEAR(f.net.flow_rate(id), 20.0 * kGbps, 1e-9 * kGbps);

  f.topo.set_pair_cap(0, 5, 10.0);
  f.net.topology_changed();
  EXPECT_NEAR(f.net.flow_rate(ids[4]), 10.0 * kGbps, 1e-9 * kGbps);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(f.net.flow_rate(ids[i]), 22.5 * kGbps, 1e-9 * kGbps);
  EXPECT_TRUE(f.net.rates_match_full_recompute(1e-9));

  f.topo.clear_pair_cap(0, 5);
  f.net.topology_changed();
  for (const FlowId id : ids)
    EXPECT_NEAR(f.net.flow_rate(id), 20.0 * kGbps, 1e-9 * kGbps);

  for (const FlowId id : ids) f.net.abort_flow(id);
  f.sim.run();
}

// ----------------------------------- exact fill == oracle under churn --

// Randomized churn — flow starts, aborts and, where enabled, pair-cap and
// NIC mutations via topology_changed() — with the incremental allocation
// checked after every step against from-scratch fills by both the
// progressive oracle and the production exact fill. Cross-checking is on,
// so every incremental reallocation is also validated inside the
// allocator (divergence aborts). The racked scenarios sweep rack
// oversubscription x fan-out (nodes per rack), including a two-node rack
// and a rack holding half the cluster, and bias flows across racks so
// components couple through the uplinks.
struct ChurnScenario {
  std::uint64_t seed;
  std::size_t nodes;
  double nic_gbps;
  std::size_t nodes_per_rack;  // 0: a single rack, no uplinks
  double uplink_gbps;
  std::size_t flows;        // warm-up population; churn drifts around it
  std::size_t churn_steps;  // operations after warm-up
  bool mutate;              // also mutate pair caps and NICs
};

class ChurnProperty : public ::testing::TestWithParam<ChurnScenario> {};

TEST_P(ChurnProperty, ExactMatchesProgressiveAndFull) {
  const ChurnScenario sc = GetParam();
  util::Rng rng(sc.seed);
  TopologyConfig cfg;
  cfg.num_nodes = sc.nodes;
  cfg.nic_gbps = sc.nic_gbps;
  cfg.nodes_per_rack = sc.nodes_per_rack;
  cfg.rack_uplink_gbps = sc.uplink_gbps;
  Fixture f(cfg);
  const auto pick = [&] {
    return static_cast<NodeId>(rng.uniform(0, sc.nodes - 1));
  };

  std::vector<FlowId> live;
  const auto start_one = [&] {
    const NodeId src = pick();
    NodeId dst = pick();
    if (src == dst) dst = (dst + 1) % sc.nodes;
    // Same-rack-only components never touch an uplink; push most of them
    // across racks.
    if (sc.nodes_per_rack > 0 && f.topo.same_rack(src, dst) &&
        rng.uniform01() < 0.75)
      dst = static_cast<NodeId>((dst + sc.nodes_per_rack) % sc.nodes);
    if (src == dst) dst = (dst + 1) % sc.nodes;
    live.push_back(f.net.start_flow(src, dst, 1e15, nullptr));
  };
  const auto mutate_one = [&] {
    if (rng.uniform01() < 0.5) {
      const NodeId a = pick();
      NodeId b = pick();
      if (a == b) b = (b + 1) % sc.nodes;
      if (rng.uniform01() < 0.5)
        f.topo.set_pair_cap(a, b, 2.0 + 60.0 * rng.uniform01());
      else
        f.topo.clear_pair_cap(a, b);
    } else {
      f.topo.set_node_nic(pick(), 0.4 * sc.nic_gbps +
                                      0.8 * sc.nic_gbps * rng.uniform01());
    }
    f.net.topology_changed();
  };
  const auto check = [&](std::size_t step) {
    for (const FlowId id : live) ASSERT_GT(f.net.flow_rate(id), 0.0);
    ASSERT_TRUE(f.net.rates_match_full_recompute(1e-9, /*exact=*/false))
        << "progressive oracle diverged at step " << step;
    ASSERT_TRUE(f.net.rates_match_full_recompute(1e-9, /*exact=*/true))
        << "exact fill diverged at step " << step;
  };

  for (std::size_t i = 0; i < sc.flows; ++i) start_one();
  check(0);
  for (std::size_t step = 1; step <= sc.churn_steps; ++step) {
    if (sc.mutate && rng.uniform01() < 0.25) {
      mutate_one();
    } else if (live.size() < 2 ||
               (live.size() < 2 * sc.flows && rng.uniform01() < 0.5)) {
      start_one();
    } else {
      const std::size_t i = rng.uniform(0, live.size() - 1);
      f.net.abort_flow(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    check(step);
  }
  EXPECT_GT(f.net.counters().cross_checks, 0u);

  for (const FlowId id : live) f.net.abort_flow(id);
  f.sim.run();
}

std::vector<ChurnScenario> churn_scenarios() {
  std::vector<ChurnScenario> out;
  // Oversubscribed racks: 56 Gb/s NICs behind an uplink of
  // nodes_per_rack * 56 / oversubscription.
  const auto racked = [&](std::uint64_t seed, std::size_t nodes,
                          std::size_t per_rack, double over,
                          std::size_t flows, std::size_t steps) {
    out.push_back({seed, nodes, 56.0, per_rack,
                   56.0 * static_cast<double>(per_rack) / over, flows, steps,
                   false});
  };
  std::uint64_t seed = 7000;
  for (const double over : {2.0, 3.5, 7.0}) {
    racked(seed++, 32, 8, over, 90, 40);
    racked(seed++, 48, 16, over, 120, 30);
  }
  racked(seed++, 24, 2, 4.0, 80, 30);
  racked(seed++, 24, 12, 1.5, 80, 30);
  // Small clusters under capacity mutations: two racks from 8 nodes up,
  // a single rack below.
  for (const std::uint64_t s : {11ull, 23ull, 47ull, 91ull}) {
    const std::size_t nodes = 6 + s % 7;
    out.push_back({s, nodes, 100.0, nodes >= 8 ? nodes / 2 : 0, 150.0, 8,
                   120, true});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChurnProperty, ::testing::ValuesIn(churn_scenarios()),
    [](const ::testing::TestParamInfo<ChurnScenario>& info) {
      const ChurnScenario& s = info.param;
      return "n" + std::to_string(s.nodes) + "_rack" +
             std::to_string(s.nodes_per_rack) + "_up" +
             std::to_string(static_cast<int>(s.uplink_gbps)) +
             (s.mutate ? "_mutate" : "") + "_s" + std::to_string(s.seed);
    });

}  // namespace
}  // namespace rdmc::sim
