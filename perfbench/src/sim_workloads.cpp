// Simulator workloads: the paper's Fig 8, Fig 10 and Fig 10b set-ups on
// SimFabric, composed here (simulator + topology + fabric + one rdmc::Node
// per machine, as harness::SimCluster composes them) so that a traced run
// can slide the fabric decorator between the nodes and SimFabric.
//
// Every repetition uses the same simulator seed, so the simulated results
// repeat exactly within a run, and across runs of the same seed; the
// repetition compares its results with the first one's.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "checks.hpp"
#include "core/group.hpp"
#include "core/rdmc.hpp"
#include "fabric/sim_fabric.hpp"
#include "layers.hpp"
#include "obs/stall.hpp"
#include "obs/trace.hpp"
#include "sim/cluster_profiles.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace rdmc;

constexpr std::size_t kBlock = std::size_t{1} << 20;

struct SimSpec {
  sim::ClusterProfile profile;
  std::size_t group_size = 0;
  std::size_t groups = 0;
  std::uint64_t large_bytes = 0;
  /// 1 KB messages sent one at a time, then queued as one burst, on the
  /// first group after its large message. Enough of each that the
  /// profile's preemption jitter averages out within one seed.
  std::size_t one_at_a_time = 301;
  std::size_t burst = 0;
};

struct Delivery {
  double when = 0.0;
  std::uint64_t size = 0;
};

/// A simulated cluster with the workload's groups created on every member.
/// Members are declared so that the nodes go before the fabrics they use.
struct Cluster {
  /// deliveries[g][m]: what member m of group g delivered, in order.
  std::vector<std::vector<std::vector<Delivery>>> deliveries;
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<sim::Topology> topology;
  std::unique_ptr<fabric::SimFabric> sim_fabric;
  std::unique_ptr<TracedFabric> traced_fabric;
  std::vector<std::unique_ptr<Node>> nodes;
  double cluster_build_s = 0.0;
  double fabric_build_s = 0.0;
  double group_create_s = 0.0;
  double group_rss_mb = 0.0;
  bool groups_created = true;
};

class SimWorkload final : public Workload {
 public:
  SimWorkload(SimSpec spec, std::uint64_t seed, bool traced)
      : spec_(std::move(spec)), sim_seed_(mix64(seed)), traced_(traced) {
    for (std::size_t i = 0; i < spec_.one_at_a_time + spec_.burst; ++i)
      small_sizes_.push_back(small_size(seed, i));
    nic_Bps_ = spec_.profile.topology.nic_gbps * 1e9 / 8.0;
  }

  Rep run_rep() override;
  std::optional<double> setup_only() override {
    const Cluster c = build(nullptr);
    return c.cluster_build_s + c.group_create_s;
  }

 private:
  std::vector<NodeId> members_of(std::size_t g) const {
    // Rotated roots over the same machines (the Fig 10 overlap pattern).
    std::vector<NodeId> members;
    const auto root = static_cast<NodeId>(g % spec_.group_size);
    members.push_back(root);
    for (std::size_t i = 0; i < spec_.group_size; ++i)
      if (i != root) members.push_back(static_cast<NodeId>(i));
    return members;
  }

  /// Set-up: the cluster, then the groups on every member.
  Cluster build(Tracer* tracer) const;

  SimSpec spec_;
  std::uint64_t sim_seed_;
  bool traced_;
  double nic_Bps_ = 0.0;
  std::vector<std::uint64_t> small_sizes_;
  std::vector<double> first_results_;
};

Cluster SimWorkload::build(Tracer* tracer) const {
  Cluster c;
  const double t_setup = now_s();
  {
    Span span(SpanKind::kClusterBuild);
    c.simulator = std::make_unique<sim::Simulator>();
    c.topology = std::make_unique<sim::Topology>(spec_.profile.topology);
    auto options = fabric::SimFabric::options_from(spec_.profile);
    options.seed = sim_seed_;
    const double t_fabric = now_s();
    {
      Span fabric_span(SpanKind::kFabricBuild);
      c.sim_fabric = std::make_unique<fabric::SimFabric>(
          *c.simulator, *c.topology, options);
    }
    c.fabric_build_s = now_s() - t_fabric;
    sim::Simulator* s = c.simulator.get();
    const Clock clock = [s] { return s->now(); };
    fabric::Fabric* fab = c.sim_fabric.get();
    if (tracer != nullptr) {
      c.traced_fabric = std::make_unique<TracedFabric>(*c.sim_fabric, clock);
      fab = c.traced_fabric.get();
    }
    for (std::size_t i = 0; i < c.topology->num_nodes(); ++i)
      c.nodes.push_back(
          std::make_unique<Node>(*fab, static_cast<NodeId>(i), clock));
  }
  const double t_built = now_s();
  c.cluster_build_s = t_built - t_setup;

  c.deliveries.resize(spec_.groups);
  GroupOptions options;
  options.block_size = kBlock;
  if (tracer != nullptr)
    options.make_schedule = [](std::size_t n, std::size_t rank) {
      return std::make_unique<TracedSchedule>(sched::make_schedule(
          sched::Algorithm::kBinomialPipeline, n, rank));
    };
  const double rss_before = current_rss_mb();
  for (std::size_t g = 0; g < spec_.groups; ++g) {
    const auto members = members_of(g);
    c.deliveries[g].resize(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      auto* log = &c.deliveries[g][m];
      sim::Simulator* s = c.simulator.get();
      Span span(SpanKind::kCreateGroup);
      c.groups_created &= c.nodes[members[m]]->create_group(
          static_cast<GroupId>(g + 1), members, options,
          [](std::size_t size) { return fabric::MemoryView{nullptr, size}; },
          [log, s, m](std::byte*, std::size_t size) {
            if (m > 0) log->push_back({s->now(), size});
          });
    }
  }
  c.group_rss_mb = current_rss_mb() - rss_before;
  c.group_create_s = now_s() - t_built;
  return c;
}

Rep SimWorkload::run_rep() {
  Rep rep;
  Tracer* tracer = traced_ ? Tracer::active() : nullptr;
  if (tracer != nullptr) tracer->reset();

  Cluster c = build(tracer);
  if (!c.groups_created) note_error(rep, "create_group failed");
  rep.values["setup_s"] = c.cluster_build_s + c.group_create_s;
  sim::Simulator* simulator = c.simulator.get();
  auto& nodes = c.nodes;
  auto& deliveries = c.deliveries;

  // -- Measured phases. ----------------------------------------------------
  auto send = [&](std::size_t g, std::uint64_t bytes, std::uint64_t seq) {
    Tracer::set_seq(seq);
    Span span(SpanKind::kSend);
    const bool ok = nodes[members_of(g).front()]->send(
        static_cast<GroupId>(g + 1), nullptr, bytes);
    if (!ok) {
      ++rep.failed;
      note_error(rep, "send returned false");
    }
  };
  auto run = [&] {
    Span span(SpanKind::kSimRun);
    simulator->run();
  };
  const double t_measure = now_s();

  // Large: one message per group, all roots at once.
  // A traced run records the program's own trace of this phase for the
  // stall tiling (the root opens its message span inside send()).
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  if (tracer != nullptr) recorder.enable({std::size_t{1} << 21});
  std::vector<double> submit(spec_.groups);
  std::uint64_t seq = 0;
  for (std::size_t g = 0; g < spec_.groups; ++g) {
    submit[g] = simulator->now();
    send(g, spec_.large_bytes, seq++);
  }
  run();
  std::vector<obs::TraceEvent> events;
  if (tracer != nullptr) {
    events = recorder.snapshot();
    if (recorder.dropped() > 0) note_error(rep, "trace ring overflowed");
    recorder.disable();
  }

  // Small, one at a time on the first group.
  std::vector<double> small_submit;
  for (std::size_t i = 0; i < spec_.one_at_a_time; ++i) {
    small_submit.push_back(simulator->now());
    send(0, small_sizes_[i], seq++);
    run();
  }
  // Small, one burst queued at the first group's root.
  const double burst_submit = simulator->now();
  for (std::size_t i = 0; i < spec_.burst; ++i)
    send(0, small_sizes_[spec_.one_at_a_time + i], seq++);
  run();
  const double t_done = now_s();
  rep.values["wall_s"] = t_done - t_measure;

  // -- Checks and simulated metrics. ---------------------------------------
  const std::size_t n = spec_.group_size;
  std::vector<double> results;  // every simulated delivery time, in order
  double first_submit = submit.front(), last_large = 0.0;
  std::vector<std::uint64_t> expected_blocks(spec_.groups, 0);
  auto blocks = [this](std::uint64_t bytes) {
    return (bytes + kBlock - 1) / kBlock;
  };
  for (std::size_t g = 0; g < spec_.groups; ++g) {
    ++rep.attempted;
    bool ok = true;
    double root_last = submit[g];
    const double bound =
        doubling_bound_s(spec_.large_bytes, kBlock, n, nic_Bps_);
    for (std::size_t m = 1; m < n; ++m) {
      const auto& log = deliveries[g][m];
      const std::size_t expect =
          g == 0 ? 1 + spec_.one_at_a_time + spec_.burst : 1;
      if (log.size() != expect || log[0].size != spec_.large_bytes) {
        ok = false;
        note_error(rep, "group " + std::to_string(g + 1) + " member " +
                            std::to_string(m) + " delivered " +
                            std::to_string(log.size()) + " messages");
        continue;
      }
      if (!meets_doubling_bound(log[0].when - submit[g], bound)) {
        ok = false;
        note_error(rep, "large message beat the doubling bound");
      }
      root_last = std::max(root_last, log[0].when);
      for (const Delivery& d : log) results.push_back(d.when);
    }
    if (!within_line_rate(spec_.large_bytes, root_last - submit[g],
                          nic_Bps_)) {
      ok = false;
      note_error(rep, "root goodput above line rate");
    }
    first_submit = std::min(first_submit, submit[g]);
    last_large = std::max(last_large, root_last);
    expected_blocks[g] = blocks(spec_.large_bytes);
    if (!ok) ++rep.failed;
  }
  // No node's NIC receives faster than line rate, however many groups
  // share it (every machine is a member of every group).
  std::vector<std::uint64_t> bytes_in(n, 0);
  std::vector<double> last_in(n, first_submit);
  for (std::size_t g = 0; g < spec_.groups; ++g) {
    const auto members = members_of(g);
    for (std::size_t m = 1; m < n; ++m) {
      if (deliveries[g][m].empty()) continue;
      bytes_in[members[m]] += spec_.large_bytes;
      last_in[members[m]] =
          std::max(last_in[members[m]], deliveries[g][m][0].when);
    }
  }
  for (std::size_t node = 0; node < n; ++node)
    if (bytes_in[node] > 0 &&
        !within_line_rate(bytes_in[node], last_in[node] - first_submit,
                          nic_Bps_)) {
      ++rep.failed;
      note_error(rep, "a node received above its NIC line rate");
    }
  rep.values["large_gbps"] = static_cast<double>(spec_.large_bytes) *
                             static_cast<double>(spec_.groups) * 8.0 /
                             (last_large - first_submit) / 1e9;

  // Small messages ride on group 1: delivery i of every member is message i.
  std::vector<double> latencies;
  double burst_last = burst_submit;
  for (std::size_t i = 0; i < spec_.one_at_a_time + spec_.burst; ++i) {
    ++rep.attempted;
    const std::uint64_t bytes = small_sizes_[i];
    expected_blocks[0] += blocks(bytes);
    const double at =
        i < spec_.one_at_a_time ? small_submit[i] : burst_submit;
    const double bound = doubling_bound_s(bytes, kBlock, n, nic_Bps_);
    double last = at;
    bool ok = true;
    for (std::size_t m = 1; m < n; ++m) {
      const auto& log = deliveries[0][m];
      if (log.size() <= 1 + i || log[1 + i].size != bytes) {
        ok = false;
        continue;
      }
      if (!meets_doubling_bound(log[1 + i].when - at, bound)) ok = false;
      last = std::max(last, log[1 + i].when);
    }
    if (!ok) {
      ++rep.failed;
      note_error(rep, "small message " + std::to_string(i) + " failed");
    }
    if (i < spec_.one_at_a_time) {
      latencies.push_back(last - at);
    } else {
      burst_last = std::max(burst_last, last);
    }
  }
  for (double l : latencies) rep.small_latencies_us.push_back(l * 1e6);
  rep.values["small_p50_us"] = median(latencies) * 1e6;
  rep.values["small_msgs_per_s"] =
      static_cast<double>(spec_.burst) / (burst_last - burst_submit);

  // Blocks: every receiver got each message's k blocks, once each.
  std::uint64_t blocks_received = 0, duplicates = 0;
  double copy_s = 0.0;
  for (std::size_t g = 0; g < spec_.groups; ++g) {
    const auto members = members_of(g);
    for (std::size_t m = 1; m < n; ++m) {
      const Group* group =
          nodes[members[m]]->group(static_cast<GroupId>(g + 1));
      if (group == nullptr) {
        ++rep.failed;
        note_error(rep, "a member lost its group");
        continue;
      }
      const auto& st = group->stats();
      blocks_received += st.blocks_received;
      duplicates += st.duplicate_blocks;
      copy_s += st.copy_seconds;
      if (st.blocks_received - st.duplicate_blocks != expected_blocks[g]) {
        ++rep.failed;
        note_error(rep, "block count mismatch at a receiver");
      }
    }
  }

  // Same seed, same simulated results: every repetition must agree.
  const bool first_rep = first_results_.empty();
  if (first_rep) {
    first_results_ = results;
  } else if (results != first_results_) {
    ++rep.failed;
    note_error(rep, "simulated results differ between repetitions");
  }

  if (tracer != nullptr) {
    Metrics& v = rep.values;
    const auto t = tracer->totals();
    auto at = [&t](SpanKind k) -> const KindTotals& {
      return t[static_cast<std::size_t>(k)];
    };
    v["harness.cluster_build_s"] = c.cluster_build_s;
    v["fabric.build_s"] = c.fabric_build_s;
    v["core.group_create_s"] = c.group_create_s;
    v["core.group_rss_mb"] = c.group_rss_mb;
    const double run_s = at(SpanKind::kSimRun).total_s;
    v["sim.run_s"] = run_s;
    v["sim.events"] = static_cast<double>(simulator->events_processed());
    v["sim.ns_per_event"] =
        run_s * 1e9 / static_cast<double>(simulator->events_processed());
    // Inside Simulator::run, every host second is self time of exactly one
    // of these four layers.
    v["sim.self_s"] = at(SpanKind::kSimRun).self_in_run_s;
    v["sched.self_s"] = at(SpanKind::kSchedule).self_in_run_s;
    v["core.handler_self_s"] = at(SpanKind::kHandler).self_in_run_s;
    v["fabric.post_self_s"] = at(SpanKind::kPost).self_in_run_s;
    const auto& f = c.sim_fabric->flows().counters();
    v["sim.flow.reallocations"] = static_cast<double>(f.reallocations);
    v["sim.flow.filling_rounds"] = static_cast<double>(f.filling_rounds);
    v["sim.flow.flows_touched"] = static_cast<double>(f.flows_touched);
    v["sim.flow.touched_per_realloc"] =
        f.reallocations ? static_cast<double>(f.flows_touched) /
                              static_cast<double>(f.reallocations)
                        : 0.0;
    v["sim.flow.component_fills"] = static_cast<double>(f.component_fills);
    v["sim.flow.expand_rounds"] = static_cast<double>(f.expand_rounds);
    v["sim.flow.full_recomputes"] = static_cast<double>(f.full_recomputes);
    v["sim.flow.max_component"] = static_cast<double>(f.max_component);
    const double memo_total =
        static_cast<double>(f.memo_hits + f.memo_misses);
    v["sim.flow.memo_hit_rate"] =
        memo_total > 0 ? static_cast<double>(f.memo_hits) / memo_total : 0.0;
    v["sim.flow.hier_fills"] = static_cast<double>(f.hier_fills);
    v["sim.flow.hier_fallbacks"] = static_cast<double>(f.hier_fallbacks);
    v["sim.flow.split_cuts"] = static_cast<double>(f.split_cuts);
    v["sched.calls"] = static_cast<double>(at(SpanKind::kSchedule).calls);
    if (first_rep)
      std::printf("schedule queries inside Simulator::run: %llu of %llu\n",
                static_cast<unsigned long long>(
                    at(SpanKind::kSchedule).calls_in_run),
                static_cast<unsigned long long>(at(SpanKind::kSchedule).calls));
    v["sched.calls_per_block"] =
        static_cast<double>(at(SpanKind::kSchedule).calls) /
        static_cast<double>(std::max<std::uint64_t>(blocks_received, 1));
    v["core.completions"] = static_cast<double>(at(SpanKind::kHandler).calls);
    v["core.blocks_received"] = static_cast<double>(blocks_received);
    v["core.duplicate_blocks"] = static_cast<double>(duplicates);
    v["core.send_call_us"] = at(SpanKind::kSend).total_s * 1e6 /
                             static_cast<double>(at(SpanKind::kSend).calls);
    v["core.copy_s"] = copy_s;
    v["fabric.posts"] = static_cast<double>(at(SpanKind::kPost).calls);
    v["fabric.post_to_completion_us"] =
        median(tracer->post_to_completion_s()) * 1e6;
    v["fabric.queue_depth_max"] = 0.0;
    v["fabric.p2p_gbps"] = spec_.profile.topology.nic_gbps;
    v["core.bound_ratio"] = v["large_gbps"] / v["fabric.p2p_gbps"];
    {
      // Delivery skew of the first group's large message.
      double lo = 1e300, hi = 0.0;
      for (std::size_t m = 1; m < n; ++m)
        if (!deliveries[0][m].empty()) {
          lo = std::min(lo, deliveries[0][m][0].when);
          hi = std::max(hi, deliveries[0][m][0].when);
        }
      v["core.delivery_skew_us"] = (hi - lo) * 1e6;
    }
    // Stall tiling of the slowest receiver of any group's large message.
    obs::StallBreakdown slowest;
    {
      Span span(SpanKind::kAnalyze);
      for (std::size_t g = 0; g < spec_.groups; ++g) {
        const auto members = members_of(g);
        const std::vector<std::uint32_t> ids(members.begin(), members.end());
        const auto analysis = obs::analyze_multicast(
            events, static_cast<std::int32_t>(g + 1), ids, 0);
        if (!analysis.ok()) note_error(rep, "stall analysis: " +
                                                analysis.warnings.front());
        for (const auto& r : analysis.receivers)
          if (r.latency_s > slowest.latency_s) slowest = r;
      }
    }
    v["obs.stall.transfer_s"] = slowest.transfer_s;
    v["obs.stall.wait_s"] = slowest.wait_s;
    v["obs.stall.software_s"] = slowest.software_s;
    v["obs.tiling_gap_us"] = (slowest.latency_s - slowest.sum()) * 1e6;
  }
  return rep;
}

}  // namespace

std::unique_ptr<Workload> make_sim_workload(const std::string& name,
                                            std::uint64_t seed, bool traced) {
  SimSpec spec;
  if (name == "sim_pipeline") {
    // Fig 8: one 1024-member binomial pipeline on Sierra.
    spec.profile = sim::sierra_profile(1024);
    spec.group_size = 1024;
    spec.groups = 1;
    spec.large_bytes = 32ull << 20;
    // Each small message costs ~10 ms of host time at 1024 members.
    spec.one_at_a_time = 301;
    spec.burst = 256;
  } else if (name == "sim_concurrent") {
    // Fig 10: 16 rotated-root groups over the same 16 Fractus nodes.
    spec.profile = sim::fractus_profile(16);
    spec.group_size = 16;
    spec.groups = 16;
    spec.large_bytes = 32ull << 20;
    spec.burst = 4096;
  } else if (name == "sim_racked") {
    // Fig 10b: 8 rotated-root groups of 128 on 16-node racks, 3.5:1 uplinks.
    spec.profile = sim::racked_profile(128, 16, 3.5);
    spec.group_size = 128;
    spec.groups = 8;
    spec.large_bytes = 8ull << 20;
    spec.burst = 2048;
  } else {
    return nullptr;
  }
  return std::make_unique<SimWorkload>(std::move(spec), seed, traced);
}

}  // namespace perfbench
