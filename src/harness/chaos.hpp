// Chaos campaigns: hundreds of seeded fault plans against §4.6 recovery.
//
// One seed = one experiment: build a fresh simulated cluster, derive a
// deterministic FaultPlan from the seed, schedule it, and drive the
// workload through RecoveryDriver, which checks the reliability contract
// (§3) on every delivery. A campaign sweeps a seed range and aggregates;
// any failing seed is reported with its plan and replays bit-identically
// via run_chaos_seed (the bench/chaos_campaign --replay flag).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "fabric/fault_plan.hpp"
#include "sim/cluster_profiles.hpp"

namespace rdmc::harness {

struct ChaosSpec {
  sim::ClusterProfile profile = sim::fractus_profile(16);
  std::size_t group_size = 16;
  GroupOptions group_options;

  std::size_t messages = 3;
  std::size_t message_bytes = 1 << 20;

  /// Fault-mix knobs. `faults.nodes`, `faults.protect` and (when zero)
  /// `faults.window_s` are filled in per run: nodes from the membership,
  /// protect from `protect_root`, window from `calibrate()`.
  fabric::FaultPlanSpec faults;
  /// Never crash the root (RDMC cannot replace the sender below the
  /// application layer, so a crashed root ends the experiment early; the
  /// campaign's default is to probe recovery instead).
  bool protect_root = true;
};

struct ChaosSeedResult {
  std::uint64_t seed = 0;
  bool ok = false;
  bool root_lost = false;
  bool exhausted = false;
  std::size_t reforms = 0;
  std::size_t failures_observed = 0;
  std::size_t deliveries = 0;
  std::size_t redeliveries = 0;
  double virtual_seconds = 0.0;
  std::vector<std::string> violations;
  std::string plan;  // FaultPlan::describe()
};

/// Fault-free run time of the workload (virtual seconds). Campaigns spread
/// fault events over ~1.5x this window so they land mid-transfer.
double calibrate(const ChaosSpec& spec);

/// Run one seed. `window_s` must come from the same calibrate() result the
/// campaign used, or a replay will schedule different fault times.
ChaosSeedResult run_chaos_seed(std::uint64_t seed, const ChaosSpec& spec,
                               double window_s);

struct ChaosCampaignResult {
  std::size_t seeds_run = 0;
  std::size_t passed = 0;
  std::size_t root_lost = 0;   // counted as passed (separate outcome)
  std::size_t exhausted = 0;   // counted as passed (separate outcome)
  std::size_t fault_hit = 0;   // seeds whose plan caused >= 1 failure
  std::uint64_t total_reforms = 0;
  std::uint64_t total_deliveries = 0;
  double window_s = 0.0;       // calibrated fault window used
  std::vector<ChaosSeedResult> failures;  // failing seeds only
};

/// Sweep `count` seeds starting at `first_seed`. `jobs` > 1 fans the seeds
/// out over a thread pool (util/parallel.hpp); every per-seed result is
/// bit-identical to a serial run regardless of job count — each seed builds
/// its own cluster, and when tracing is on, per-seed trace shards are merged
/// into the process recorder in seed order, so the exported trace matches
/// serial execution too.
ChaosCampaignResult run_chaos_campaign(std::uint64_t first_seed,
                                       std::size_t count,
                                       const ChaosSpec& spec,
                                       std::size_t jobs = 1);

}  // namespace rdmc::harness
