#include "harness/chaos.hpp"

#include <algorithm>

#include "harness/recovery.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace rdmc::harness {

namespace {

std::vector<NodeId> membership(const ChaosSpec& spec) {
  std::vector<NodeId> members(spec.group_size);
  for (std::size_t i = 0; i < spec.group_size; ++i)
    members[i] = static_cast<NodeId>(i);
  return members;
}

RecoveryConfig recovery_config(const ChaosSpec& spec) {
  RecoveryConfig config;
  config.members = membership(spec);
  config.group_options = spec.group_options;
  config.messages = spec.messages;
  config.message_bytes = spec.message_bytes;
  return config;
}

}  // namespace

double calibrate(const ChaosSpec& spec) {
  sim::ClusterProfile profile = spec.profile;
  profile.topology.num_nodes =
      std::max<std::size_t>(profile.topology.num_nodes, spec.group_size);
  SimCluster cluster(profile);
  RecoveryDriver driver(cluster, recovery_config(spec));
  return driver.run().virtual_seconds;
}

ChaosSeedResult run_chaos_seed(std::uint64_t seed, const ChaosSpec& spec,
                               double window_s) {
  sim::ClusterProfile profile = spec.profile;
  profile.topology.num_nodes =
      std::max<std::size_t>(profile.topology.num_nodes, spec.group_size);
  SimCluster cluster(profile);

  RecoveryConfig config = recovery_config(spec);
  config.payload_seed = seed;

  fabric::FaultPlanSpec fault_spec = spec.faults;
  fault_spec.nodes = config.members;
  if (spec.protect_root &&
      std::find(fault_spec.protect.begin(), fault_spec.protect.end(),
                config.members.front()) == fault_spec.protect.end()) {
    fault_spec.protect.push_back(config.members.front());
  }
  if (fault_spec.window_s <= 0.0 || window_s > 0.0)
    fault_spec.window_s = window_s;

  const fabric::FaultPlan plan = fabric::FaultPlan::random(seed, fault_spec);
  plan.schedule_on(cluster.fabric());

  RecoveryDriver driver(cluster, config);
  const RecoveryResult r = driver.run();

  ChaosSeedResult out;
  out.seed = seed;
  out.ok = r.ok;
  out.root_lost = r.root_lost;
  out.exhausted = r.exhausted;
  out.reforms = r.reforms;
  out.failures_observed = r.failures_observed;
  out.deliveries = r.deliveries;
  out.redeliveries = r.redeliveries;
  out.virtual_seconds = r.virtual_seconds;
  out.violations = r.violations;
  out.plan = plan.describe();
  return out;
}

ChaosCampaignResult run_chaos_campaign(std::uint64_t first_seed,
                                       std::size_t count,
                                       const ChaosSpec& spec,
                                       std::size_t jobs) {
  ChaosCampaignResult result;
  // Spread fault events over 1.5x the fault-free makespan: most plans then
  // strike mid-transfer, some strike near/after completion (both matter —
  // late breaks exercise the post-delivery failure report).
  result.window_s = 1.5 * calibrate(spec);

  // Seeds are independent experiments; fan them out and aggregate in seed
  // order afterwards so the verdict table, the failure list and (with
  // tracing on) the exported trace are identical for any job count.
  std::vector<ChaosSeedResult> results(count);
  const bool tracing = obs::TraceRecorder::instance().enabled();
  std::vector<std::vector<obs::TraceEvent>> shards(tracing ? count : 0);
  util::parallel_for(count, jobs, [&](std::size_t i) {
    if (tracing) {
      obs::TraceRecorder::ThreadShard shard;
      results[i] = run_chaos_seed(first_seed + i, spec, result.window_s);
      shards[i] = shard.take();
    } else {
      results[i] = run_chaos_seed(first_seed + i, spec, result.window_s);
    }
  });
  if (tracing) {
    auto& recorder = obs::TraceRecorder::instance();
    for (const auto& shard : shards) recorder.absorb(shard);
  }

  for (ChaosSeedResult& r : results) {
    ++result.seeds_run;
    if (r.ok) ++result.passed;
    if (r.root_lost) ++result.root_lost;
    if (r.exhausted) ++result.exhausted;
    if (r.failures_observed > 0) ++result.fault_hit;
    result.total_reforms += r.reforms;
    result.total_deliveries += r.deliveries;
    if (!r.ok) result.failures.push_back(std::move(r));
  }
  return result;
}

}  // namespace rdmc::harness
