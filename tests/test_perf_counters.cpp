// Counters-based performance regression smoke.
//
// Wall-clock thresholds are useless in CI (shared, throttled runners), but
// the FlowNetwork work counters are deterministic for a fixed
// configuration: filling_rounds counts bottleneck saturations and
// flows_touched the sizes of recomputed sets. An algorithmic regression —
// losing incrementality, the exact fill degenerating toward the
// progressive O(rounds * touch) behaviour, the expansion loop failing to
// converge — inflates them by integer factors, far above the ceilings
// here, while legitimate changes move them by percents. The ceilings sit
// ~2x above the values measured when the exact fill landed (the
// pre-optimization progressive allocator exceeded them by ~10x).
#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/sim_harness.hpp"
#include "sim/cluster_profiles.hpp"

namespace rdmc::harness {
namespace {

PerfStats run_fixed_fig8() {
  MulticastConfig cfg;
  cfg.profile = sim::sierra_profile(128);
  cfg.group_size = 128;
  cfg.message_bytes = 8ull << 20;
  cfg.block_size = 1 << 20;
  return run_multicast(cfg).perf;
}

TEST(PerfCounters, Fig8WorkCountersUnderCeilings) {
  const PerfStats p = run_fixed_fig8();
  // Measured at the exact-fill landing: 9485 rounds, 9754 touched, 1977
  // reallocations over 12233 events.
  EXPECT_LE(p.filling_rounds, 20000u);
  EXPECT_LE(p.flows_touched, 25000u);
  EXPECT_LE(p.reallocations, 4500u);
  EXPECT_LE(p.full_recomputes, 10u);
  // Locality: the average recomputed set stays far below the 127 active
  // flows of the steady-state pipeline.
  ASSERT_GT(p.reallocations, 0u);
  EXPECT_LE(p.flows_touched / p.reallocations, 25u);
}

TEST(PerfCounters, Fig8Deterministic) {
  const PerfStats a = run_fixed_fig8();
  const PerfStats b = run_fixed_fig8();
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.reallocations, b.reallocations);
  EXPECT_EQ(a.filling_rounds, b.filling_rounds);
  EXPECT_EQ(a.flows_touched, b.flows_touched);
  EXPECT_EQ(a.expand_rounds, b.expand_rounds);
}

// Datacenter-scale smoke behind an env guard: the 4096-node Fig 8
// pipeline is the configuration the incremental machinery must hold flat, but it costs several seconds,
// so the default ctest run skips it. CI sets RDMC_BIG_SMOKE=1 on a
// dedicated step. Ceilings sit well above the currently measured values
// (5.6M rounds, 260k reallocations, 4.7M touched); losing incrementality
// at this scale overshoots them by integer factors.
TEST(PerfCounters, Fig8At4096WorkCountersUnderCeilings) {
  if (std::getenv("RDMC_BIG_SMOKE") == nullptr)
    GTEST_SKIP() << "set RDMC_BIG_SMOKE=1 to run the 4096-node smoke";
  MulticastConfig cfg;
  cfg.profile = sim::sierra_profile(4096);
  cfg.group_size = 4096;
  cfg.message_bytes = 32ull << 20;
  cfg.block_size = 1 << 20;
  const auto result = run_multicast(cfg);
  const PerfStats& p = result.perf;
  EXPECT_LE(p.filling_rounds, 25000000u);
  EXPECT_LE(p.reallocations, 520000u);
  EXPECT_LE(p.full_recomputes, 100u);
  ASSERT_GT(p.reallocations, 0u);
  // Locality: average recomputed set far below the ~4095 active flows.
  EXPECT_LE(p.flows_touched / p.reallocations, 400u);
  // The virtual result is deterministic; pin it so a solver change that
  // moves rates at all (not just perf) fails loudly here too. The pin
  // moved from 0.030547233 when kMaxExpandRounds went 6 -> 32: expansions
  // that previously hit the round cap and took the fallback full-component
  // recompute now converge locally, and the two arithmetic paths differ at
  // the kExpandTol/ulp level. Both produce the unique max-min allocation
  // within tolerance (cross-check enforced in debug builds); the pinned
  // digits are simply the deterministic output of the current path.
  EXPECT_NEAR(result.total_seconds, 0.030547272, 1e-9);
}

}  // namespace
}  // namespace rdmc::harness
