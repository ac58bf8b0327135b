// Experiment harness over the simulated fabric.
//
// Every benchmark in bench/ regenerates a paper table or figure by running
// RDMC (and the baselines) on SimFabric under a cluster profile. This
// harness owns the boilerplate: build simulator + topology + fabric +
// rdmc::Node per member, create groups with phantom receive buffers,
// drive one or many multicasts, and report the same quantities the paper
// plots (latency, bandwidth, per-receiver delivery times, CPU busy time).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/group.hpp"
#include "core/rdmc.hpp"
#include "fabric/sim_fabric.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster_profiles.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace rdmc::obs {
class TelemetryHub;
}

namespace rdmc::harness {

class TelemetryTicker;

/// Simulator-core performance observability, reported by every experiment
/// (and dumped into BENCH_core.json by bench/perf_core). `wall_seconds` is
/// host time spent inside Simulator::run; the rest are FlowNetwork /
/// Simulator counters over the experiment.
///
/// This struct is a *typed view* over an obs::MetricsRegistry: SimCluster
/// publishes its counters under the registry names listed per field and
/// `from()` materialises the struct from any registry holding them. New
/// counters can flow from a layer to consumers through the registry alone;
/// this struct only grows a field when a stable name deserves one.
struct PerfStats {
  double wall_seconds = 0.0;              // harness.wall_ns / 1e9
  std::uint64_t events_processed = 0;     // sim.events
  std::uint64_t reallocations = 0;        // sim.reallocations
  std::uint64_t filling_rounds = 0;       // sim.filling_rounds
  std::uint64_t flows_touched = 0;        // sim.flows_touched
  std::uint64_t max_component = 0;        // sim.max_component
  std::uint64_t expand_rounds = 0;        // sim.expand_rounds
  std::uint64_t full_recomputes = 0;      // sim.full_recomputes
  std::uint64_t flow_starts = 0;          // sim.flow_starts
  std::uint64_t component_fills = 0;      // sim.component_fills
  // Fault-path counters (SimFabric::FaultCounters + harness bookkeeping).
  std::uint64_t breaks_delivered = 0;     // fault.disconnects
  std::uint64_t flushed_completions = 0;  // fault.flushed
  std::uint64_t reforms = 0;              // harness.reforms

  /// Materialise the view from a registry (absent names read as zero).
  static PerfStats from(const obs::MetricsRegistry& registry);
};

/// A simulated cluster with one rdmc::Node per machine.
class SimCluster {
 public:
  explicit SimCluster(const sim::ClusterProfile& profile,
                      fabric::SimFabric::Options options_override = {},
                      bool use_profile_costs = true);
  ~SimCluster();

  sim::Simulator& sim() { return sim_; }
  sim::Topology& topology() { return topology_; }
  fabric::SimFabric& fabric() { return *fabric_; }
  Node& node(NodeId id) { return *nodes_[id]; }
  std::size_t size() const { return nodes_.size(); }

  /// Per-(group, member) delivery bookkeeping.
  struct GroupRecord {
    GroupId id;
    std::vector<NodeId> members;
    /// delivery_times[i]: virtual times member i delivered each message
    /// (senders record local send completion instead).
    std::vector<std::vector<double>> delivery_times;
    /// One failure-callback firing: at virtual time `when`, member `by`
    /// reported the group failed, suspecting `suspect`. The §4.6 recovery
    /// driver and the chaos invariants read this instead of re-deriving
    /// who-saw-what from completion streams.
    struct FailureObservation {
      double when = 0.0;
      NodeId by = 0;
      NodeId suspect = 0;
    };
    std::vector<FailureObservation> failure_log;
    /// Virtual submit time of each message sent through SimCluster::send,
    /// in sequence order.
    std::vector<double> submit_times;
    /// Live per-delivery hook: (seq, member_index, latency_s) as each
    /// non-root member delivers a message submitted via SimCluster::send.
    /// Per-member delivery order is FIFO, so the member's delivery count
    /// maps to the sequence number. Runs inside the simulator event, so
    /// SLO trackers see deliveries as they happen, not post-hoc.
    std::function<void(std::size_t, std::size_t, double)> on_latency;
  };

  /// Create `members.front()`-rooted group on every member with phantom
  /// receive buffers and delivery recording. Returns the record handle.
  GroupRecord& create_group(GroupId id, std::vector<NodeId> members,
                            GroupOptions options);

  /// Submit a send from the group's root without running the simulator:
  /// records the submit time for live latency attribution
  /// (GroupRecord::on_latency) and re-arms the telemetry ticker.
  void send(GroupId group, std::uint64_t bytes);

  /// Send and run the simulator to quiescence. Returns virtual makespan
  /// (send-submit to last delivery across all members).
  double run_one(GroupId group, std::uint64_t bytes);

  /// Drive `hub` with deterministic virtual-time ticks every `period_s`,
  /// refreshing this cluster's metrics (sync_metrics) before each tick.
  /// The hub should be built over metrics() and must outlive the cluster.
  void attach_telemetry(obs::TelemetryHub& hub, double period_s);

  /// Counter snapshot (cumulative since construction); wall_seconds covers
  /// the Simulator::run calls made through this cluster. Implemented as
  /// sync_metrics() + PerfStats::from(metrics()).
  PerfStats perf_stats() const;

  /// The cluster's metrics registry. sync_metrics() refreshes it from the
  /// simulator/flow-network/fault counters; layers may also publish into
  /// it directly (histograms, extra counters) without touching PerfStats.
  obs::MetricsRegistry& metrics() const { return metrics_; }
  void sync_metrics() const;

  /// sim().run() wrapped with host-clock accounting into the wall_seconds
  /// reported by perf_stats().
  void run_to_quiescence();

  /// sim().run_until(now + dt) with the same wall accounting. Returns true
  /// while events remain past the deadline. Recovery drivers advance in
  /// slices so pending fault events can land mid-epoch instead of all
  /// draining inside one run-to-quiescence call.
  bool run_slice(double dt);

  /// Record one §4.6 group re-creation (reported via perf_stats).
  void note_reform() { ++reforms_; }

  const GroupRecord& record(GroupId id) const;
  GroupRecord& record(GroupId id) {
    return const_cast<GroupRecord&>(
        static_cast<const SimCluster*>(this)->record(id));
  }

 private:
  sim::Simulator sim_;
  sim::Topology topology_;
  std::unique_ptr<fabric::SimFabric> fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<GroupRecord>> records_;
  std::unique_ptr<TelemetryTicker> ticker_;
  double wall_seconds_ = 0.0;
  std::uint64_t reforms_ = 0;
  mutable obs::MetricsRegistry metrics_;
};

/// One-shot multicast experiment (most figures).
struct MulticastConfig {
  sim::ClusterProfile profile;
  std::size_t group_size = 4;
  std::uint64_t message_bytes = 256ull << 20;
  std::size_t block_size = 1 << 20;
  sched::Algorithm algorithm = sched::Algorithm::kBinomialPipeline;
  std::optional<std::vector<std::uint32_t>> hybrid_racks;
  std::function<std::unique_ptr<sched::Schedule>(std::size_t, std::size_t)>
      make_schedule;
  /// Explicit member list (rank order; front is the root). Defaults to
  /// nodes 0..group_size-1. A shuffled list models the paper's "overlay
  /// built from random pairs of nodes" placement (§4.3 Hybrid).
  std::optional<std::vector<NodeId>> members;
  /// Back-to-back messages through the same group (steady-state rate).
  std::size_t messages = 1;
  fabric::CompletionMode completion_mode = fabric::CompletionMode::kHybrid;
  bool cross_channel = false;
  /// Zero out software costs/preemption (pure network behaviour).
  bool ideal_software = false;
};

struct MulticastResult {
  /// Send-submit to last delivery of the last message, seconds.
  double total_seconds = 0.0;
  /// Mean per-message latency (total / messages).
  double latency_seconds = 0.0;
  /// Paper metric: message bytes x messages / total time, decimal Gb/s.
  double bandwidth_gbps = 0.0;
  /// Delivery-time spread of the last message across receivers (skew).
  double skew_seconds = 0.0;
  /// Virtual CPU busy fraction at the root over the run.
  double root_cpu_fraction = 0.0;
  PerfStats perf;
};

MulticastResult run_multicast(const MulticastConfig& config);

/// Fig 10-style concurrent experiment: `senders` groups with identical
/// membership (rotated roots), every sender transmitting `messages`
/// messages of `message_bytes` concurrently. Returns aggregate goodput.
struct ConcurrentConfig {
  sim::ClusterProfile profile;
  std::size_t group_size = 8;
  std::size_t senders = 8;
  std::uint64_t message_bytes = 100ull << 20;
  std::size_t block_size = 1 << 20;
  std::size_t messages = 4;
  fabric::CompletionMode completion_mode = fabric::CompletionMode::kHybrid;
};

struct ConcurrentResult {
  double makespan_seconds = 0.0;
  double aggregate_gbps = 0.0;  // total bytes sent / makespan
  PerfStats perf;
};

ConcurrentResult run_concurrent(const ConcurrentConfig& config);

}  // namespace rdmc::harness
