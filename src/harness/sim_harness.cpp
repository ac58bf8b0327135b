#include "harness/sim_harness.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>

#include "harness/telemetry_ticker.hpp"
#include "obs/telemetry.hpp"
#include "sched/schedule.hpp"

namespace rdmc::harness {

SimCluster::SimCluster(const sim::ClusterProfile& profile,
                       fabric::SimFabric::Options options_override,
                       bool use_profile_costs)
    : topology_(profile.topology) {
  fabric::SimFabric::Options options = options_override;
  if (use_profile_costs) {
    options.costs = profile.costs;
    options.preemption = profile.preemption;
  }
  fabric_ = std::make_unique<fabric::SimFabric>(sim_, topology_, options);
  nodes_.reserve(topology_.num_nodes());
  const Clock clock = [this] { return sim_.now(); };
  for (std::size_t i = 0; i < topology_.num_nodes(); ++i) {
    nodes_.push_back(
        std::make_unique<Node>(*fabric_, static_cast<NodeId>(i), clock));
  }
}

SimCluster::GroupRecord& SimCluster::create_group(GroupId id,
                                                  std::vector<NodeId> members,
                                                  GroupOptions options) {
  auto rec = std::make_unique<GroupRecord>();
  rec->id = id;
  rec->members = members;
  rec->delivery_times.resize(members.size());
  GroupRecord* r = rec.get();
  for (std::size_t m = 0; m < members.size(); ++m) {
    const NodeId node = members[m];
    const bool ok = nodes_[node]->create_group(
        id, members, options,
        // Phantom receive region: cluster-scale runs move no host memory.
        [](std::size_t size) { return fabric::MemoryView{nullptr, size}; },
        [this, r, m](std::byte*, std::size_t) {
          r->delivery_times[m].push_back(sim_.now());
          if (m > 0 && r->on_latency) {
            const std::size_t seq = r->delivery_times[m].size() - 1;
            if (seq < r->submit_times.size())
              r->on_latency(seq, m, sim_.now() - r->submit_times[seq]);
          }
        },
        [this, r, node](GroupId, NodeId suspect) {
          r->failure_log.push_back({sim_.now(), node, suspect});
        });
    assert(ok && "create_group failed");
    (void)ok;
  }
  records_.push_back(std::move(rec));
  return *records_.back();
}

void SimCluster::run_to_quiescence() {
  const auto t0 = std::chrono::steady_clock::now();
  sim_.run();
  wall_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
}

bool SimCluster::run_slice(double dt) {
  const auto t0 = std::chrono::steady_clock::now();
  const bool more = sim_.run_until(sim_.now() + dt);
  wall_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return more;
}

PerfStats PerfStats::from(const obs::MetricsRegistry& registry) {
  auto get = [&registry](const char* name) -> std::uint64_t {
    const obs::Counter* c = registry.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  PerfStats s;
  s.wall_seconds = static_cast<double>(get("harness.wall_ns")) / 1e9;
  s.events_processed = get("sim.events");
  s.reallocations = get("sim.reallocations");
  s.filling_rounds = get("sim.filling_rounds");
  s.flows_touched = get("sim.flows_touched");
  s.max_component = get("sim.max_component");
  s.expand_rounds = get("sim.expand_rounds");
  s.full_recomputes = get("sim.full_recomputes");
  s.flow_starts = get("sim.flow_starts");
  s.component_fills = get("sim.component_fills");
  s.breaks_delivered = get("fault.disconnects");
  s.flushed_completions = get("fault.flushed");
  s.reforms = get("harness.reforms");
  return s;
}

void SimCluster::sync_metrics() const {
  const auto& c = fabric_->flows().counters();
  metrics_.counter("harness.wall_ns")
      .set(static_cast<std::uint64_t>(wall_seconds_ * 1e9));
  metrics_.counter("sim.events").set(sim_.events_processed());
  metrics_.counter("sim.reallocations").set(c.reallocations);
  metrics_.counter("sim.filling_rounds").set(c.filling_rounds);
  metrics_.counter("sim.flows_touched").set(c.flows_touched);
  metrics_.counter("sim.max_component").set(c.max_component);
  metrics_.counter("sim.expand_rounds").set(c.expand_rounds);
  metrics_.counter("sim.full_recomputes").set(c.full_recomputes);
  metrics_.counter("sim.flow_starts").set(c.flow_starts);
  metrics_.counter("sim.flow_completions").set(c.flow_completions);
  metrics_.counter("sim.flow_aborts").set(c.flow_aborts);
  metrics_.counter("sim.component_fills").set(c.component_fills);
  const auto& f = fabric_->fault_counters();
  metrics_.counter("fault.disconnects").set(f.disconnects_delivered);
  metrics_.counter("fault.flushed").set(f.flushed_completions);
  metrics_.counter("fault.breaks").set(f.links_broken);
  metrics_.counter("fault.crashes").set(f.crashes);
  metrics_.counter("fault.degrades").set(f.degrades);
  metrics_.counter("fault.slowdowns").set(f.slowdowns);
  metrics_.counter("harness.reforms").set(reforms_);
}

PerfStats SimCluster::perf_stats() const {
  sync_metrics();
  return PerfStats::from(metrics_);
}

const SimCluster::GroupRecord& SimCluster::record(GroupId id) const {
  for (const auto& r : records_)
    if (r->id == id) return *r;
  assert(false && "unknown group");
  return *records_.front();
}

SimCluster::~SimCluster() = default;

void SimCluster::send(GroupId group, std::uint64_t bytes) {
  GroupRecord& r = record(group);
  r.submit_times.push_back(sim_.now());
  const bool ok = nodes_[r.members.front()]->send(group, nullptr, bytes);
  assert(ok && "send failed");
  (void)ok;
  if (ticker_) ticker_->ensure_scheduled();
}

void SimCluster::attach_telemetry(obs::TelemetryHub& hub, double period_s) {
  ticker_ = std::make_unique<TelemetryTicker>(
      sim_, hub, period_s, [this] { sync_metrics(); });
  ticker_->ensure_scheduled();
}

double SimCluster::run_one(GroupId group, std::uint64_t bytes) {
  const GroupRecord& r = record(group);
  const double start = sim_.now();
  send(group, bytes);
  run_to_quiescence();
  double last = start;
  for (const auto& times : r.delivery_times)
    if (!times.empty()) last = std::max(last, times.back());
  return last - start;
}

MulticastResult run_multicast(const MulticastConfig& config) {
  sim::ClusterProfile profile = config.profile;
  std::size_t needed = config.group_size;
  if (config.members)
    for (NodeId m : *config.members)
      needed = std::max<std::size_t>(needed, m + 1);
  profile.topology.num_nodes =
      std::max<std::size_t>(profile.topology.num_nodes, needed);
  fabric::SimFabric::Options options;
  options.costs = profile.costs;
  options.preemption = profile.preemption;
  options.default_mode = config.completion_mode;
  options.cross_channel = config.cross_channel;
  if (config.ideal_software) {
    options.costs = sim::SoftwareCosts{0, 0, 0, 0, 1e18, 0};
    options.preemption = sim::PreemptionModel{0.0, 0.0};
  }
  SimCluster cluster(profile, options, /*use_profile_costs=*/false);

  std::vector<NodeId> members;
  if (config.members) {
    members = *config.members;
    assert(members.size() == config.group_size);
  } else {
    members.resize(config.group_size);
    for (std::size_t i = 0; i < config.group_size; ++i)
      members[i] = static_cast<NodeId>(i);
  }
  GroupOptions group_options;
  group_options.block_size = config.block_size;
  group_options.algorithm = config.algorithm;
  group_options.hybrid_racks = config.hybrid_racks;
  group_options.make_schedule = config.make_schedule;
  auto& rec = cluster.create_group(1, members, group_options);

  // Per-schedule labeled series: every (message, receiver) delivery latency
  // lands in "multicast.delivery_latency_s{algo=...,group=1}" as it
  // happens, so telemetry windows and SLO trackers see live deliveries.
  auto& scope = cluster.metrics().scope(
      "algo=" + std::string(sched::algorithm_name(config.algorithm)) +
      ",group=1");
  auto& scoped_hist = scope.histogram("multicast.delivery_latency_s");
  rec.on_latency = [&scoped_hist](std::size_t, std::size_t, double latency) {
    scoped_hist.add(latency);
  };

  const double start = cluster.sim().now();
  for (std::size_t m = 0; m < config.messages; ++m)
    cluster.send(1, config.message_bytes);
  cluster.run_to_quiescence();
  const double end_time = cluster.sim().now();

  MulticastResult result;
  double last_delivery = start;
  double first_last = 1e300, max_last = 0.0;
  auto& latency_hist =
      cluster.metrics().histogram("multicast.delivery_latency_s");
  for (std::size_t m = 1; m < rec.members.size(); ++m) {
    const auto& times = rec.delivery_times[m];
    assert(times.size() == config.messages && "receiver missed messages");
    last_delivery = std::max(last_delivery, times.back());
    first_last = std::min(first_last, times.back());
    max_last = std::max(max_last, times.back());
    latency_hist.add(times.back() - start);
  }
  result.total_seconds = last_delivery - start;
  result.latency_seconds =
      result.total_seconds / static_cast<double>(config.messages);
  result.bandwidth_gbps =
      static_cast<double>(config.message_bytes) *
      static_cast<double>(config.messages) * 8.0 /
      result.total_seconds / 1e9;
  result.skew_seconds = max_last - first_last;
  const double busy = cluster.fabric().cpu_busy_seconds(0);
  result.root_cpu_fraction = end_time > 0 ? busy / end_time : 0.0;
  result.perf = cluster.perf_stats();
  return result;
}

ConcurrentResult run_concurrent(const ConcurrentConfig& config) {
  sim::ClusterProfile profile = config.profile;
  profile.topology.num_nodes =
      std::max<std::size_t>(profile.topology.num_nodes, config.group_size);
  fabric::SimFabric::Options options;
  options.costs = profile.costs;
  options.preemption = profile.preemption;
  options.default_mode = config.completion_mode;
  SimCluster cluster(profile, options, /*use_profile_costs=*/false);

  // `senders` groups over the same `group_size` members, roots rotated
  // (the Fig 10 overlap pattern).
  std::vector<SimCluster::GroupRecord*> recs;
  for (std::size_t g = 0; g < config.senders; ++g) {
    std::vector<NodeId> members;
    members.push_back(static_cast<NodeId>(g % config.group_size));
    for (std::size_t i = 0; i < config.group_size; ++i)
      if (i != g % config.group_size)
        members.push_back(static_cast<NodeId>(i));
    GroupOptions group_options;
    group_options.block_size = config.block_size;
    recs.push_back(&cluster.create_group(static_cast<GroupId>(g), members,
                                         group_options));
  }

  const double start = cluster.sim().now();
  for (std::size_t g = 0; g < config.senders; ++g) {
    for (std::size_t m = 0; m < config.messages; ++m) {
      const bool ok = cluster.node(g % config.group_size)
                          .send(static_cast<GroupId>(g), nullptr,
                                config.message_bytes);
      assert(ok);
      (void)ok;
    }
  }
  cluster.run_to_quiescence();

  double last = start;
  for (const auto* rec : recs)
    for (std::size_t m = 1; m < rec->members.size(); ++m)
      if (!rec->delivery_times[m].empty())
        last = std::max(last, rec->delivery_times[m].back());

  ConcurrentResult result;
  result.makespan_seconds = last - start;
  result.perf = cluster.perf_stats();
  result.aggregate_gbps =
      static_cast<double>(config.message_bytes) *
      static_cast<double>(config.messages) *
      static_cast<double>(config.senders) * 8.0 /
      result.makespan_seconds / 1e9;
  return result;
}

}  // namespace rdmc::harness
