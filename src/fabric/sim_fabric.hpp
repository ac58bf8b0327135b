// SimFabric: the fabric API driven by the discrete-event simulator.
//
// Identical semantics to MemFabric, but every action takes virtual time:
//   * block payloads move as max-min-fair flows through the topology
//     (bandwidth contention, oversubscribed TOR, slow links);
//   * software actions (posting work, handling completions, the first-block
//     memcpy) charge a per-node virtual CPU, serialised per node exactly
//     like the paper's single completion thread (§4.2);
//   * completion pickup latency depends on the completion mode —
//     polling / interrupt / 50 ms-window hybrid (Fig 11);
//   * a per-node preemption process injects OS scheduling delays
//     (Fig 5's ~100 us anomaly, §4.5 robustness);
//   * cross-channel mode executes the posted dependency graph with zero
//     software cost, modelling CORE-Direct offload (§2, Fig 12).
//
// Payload buffers may be phantom (null data) so 512-node Fig 8 runs do not
// allocate hundreds of gigabytes; with real buffers bytes are copied at
// flow completion, which the integrity tests rely on.
#pragma once

#include <map>
#include <memory>

#include "fabric/datagram.hpp"
#include "fabric/fabric.hpp"
#include "fabric/qp_core.hpp"
#include "sim/cluster_profiles.hpp"
#include "sim/delay_model.hpp"
#include "sim/flow_network.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "util/random.hpp"

namespace rdmc::fabric {

class SimFabric final : public Fabric, public FaultInjector {
 public:
  struct Options {
    sim::SoftwareCosts costs{};
    sim::PreemptionModel preemption{};
    CompletionMode default_mode = CompletionMode::kHybrid;
    /// Hybrid mode: poll window after the last handled event (paper: 50 ms).
    double hybrid_poll_window_s = 50e-3;
    /// One-way latency of the out-of-band (TCP mesh) control channel.
    double oob_latency_s = 15e-6;
    /// Wire time of a ready-for-block write-with-immediate.
    double write_imm_wire_s = 0.3e-6;
    /// CORE-Direct: the NIC executes posted dependency graphs itself; all
    /// software costs and pickup latencies drop to zero (Fig 12).
    bool cross_channel = false;
    std::uint64_t seed = 0x5EEDBA5E;
  };

  SimFabric(sim::Simulator& sim, sim::Topology& topology, Options options);
  ~SimFabric() override;

  /// Convenience: build options from a cluster profile's calibrated costs.
  static Options options_from(const sim::ClusterProfile& profile);

  std::size_t num_nodes() const override { return topology_.num_nodes(); }
  Endpoint& endpoint(NodeId node) override;
  QueuePair* connect(NodeId a, NodeId b, std::uint32_t channel) override;
  FaultInjector& faults() override { return *this; }

  // FaultInjector: injections take effect at the current virtual instant;
  // degradations/slowdowns recover after `duration_s` of virtual time.
  void break_link(NodeId a, NodeId b) override;
  void crash_node(NodeId node) override;
  bool degrade_link(NodeId a, NodeId b, double factor,
                    double duration_s) override;
  bool slow_node(NodeId node, double factor, double duration_s) override;
  void set_datagram_faults(const DatagramFaultProfile& profile) override {
    datagrams_.set_profile(profile);
  }
  DatagramCounters datagram_counters() const override {
    return datagrams_.counters();
  }
  bool crashed(NodeId node) const override {
    return connections_.crashed(node);
  }

  DatagramEngine& datagrams() { return datagrams_; }

  /// Charge application-level software work (e.g. an erasure decode in
  /// src/reliability) on `node`'s virtual CPU, honouring slow-node factors
  /// and the preemption process exactly like the fabric's own costs.
  /// Returns the virtual time at which the work completes.
  sim::SimTime charge_app_seconds(NodeId node, double seconds) {
    return charge_software(node, seconds);
  }

  /// Fault-path observability (PerfStats and the chaos campaign read these
  /// instead of re-deriving them from completion streams).
  struct FaultCounters {
    std::uint64_t disconnects_delivered = 0;  // kDisconnect completions
    std::uint64_t flushed_completions = 0;    // kFlushed completions
    std::uint64_t links_broken = 0;           // connections flushed
    std::uint64_t crashes = 0;
    std::uint64_t degrades = 0;
    std::uint64_t slowdowns = 0;
  };
  const FaultCounters& fault_counters() const { return fault_counters_; }

  sim::Simulator& simulator() { return sim_; }
  sim::FlowNetwork& flows() { return flows_; }
  const Options& options() const { return options_; }

  /// Seconds of virtual CPU consumed by node's software path so far.
  double cpu_busy_seconds(NodeId node) const;

  /// Sum of software-induced wait (time completions sat ready before their
  /// handler started) — the "Waiting" row of Table 1.
  double completion_wait_seconds(NodeId node) const;

 private:
  class SimEndpoint;
  class SimConnection;
  struct NodeState;

  /// Schedule `c` for handling on `node`'s virtual CPU; `ready` is the
  /// instant the NIC raised it.
  void deliver_completion(NodeId node, Completion c, sim::SimTime ready);
  /// Run the completion handler once the node's virtual CPU is free.
  void attempt_handle(NodeId node, const Completion& c, sim::SimTime ready);
  void deliver_oob(NodeId to, NodeId from, std::vector<std::byte> payload);

  /// Charge one software action on `node`'s CPU; returns the virtual time
  /// at which the action takes effect. Zero-cost in cross-channel mode.
  sim::SimTime charge_software(NodeId node, double cost);

  /// Nested transient degradations on one directed pair. `depth` counts
  /// active windows; the pair cap is base x product of active factors and
  /// the original cap (or its absence) is restored when depth reaches 0.
  struct Degrade {
    int depth = 0;
    double combined = 1.0;
    bool had_original = false;
    double original_gbps = 0.0;
    double base_gbps = 0.0;
  };
  void apply_degrade(NodeId src, NodeId dst, double factor);
  void expire_degrade(NodeId src, NodeId dst, double factor);

  sim::Simulator& sim_;
  sim::Topology& topology_;
  sim::FlowNetwork flows_;
  Options options_;
  std::vector<std::unique_ptr<SimEndpoint>> endpoints_;
  std::vector<NodeState> node_state_;
  RcConnectionTable connections_;
  std::map<std::uint64_t, Degrade> degrades_;
  FaultCounters fault_counters_;
  DatagramEngine datagrams_;
  /// Monotonic id for "udxfer" trace spans (one per datagram on the wire).
  std::uint64_t ud_wire_seq_ = 1;
};

}  // namespace rdmc::fabric
