#include "fabric/sim_fabric.hpp"

#include <cassert>

#include "obs/trace.hpp"

namespace rdmc::fabric {

// ---------------------------------------------------------------------------
// Per-node state: the virtual CPU.
// ---------------------------------------------------------------------------

struct SimFabric::NodeState {
  /// Virtual time at which the node's software thread becomes free.
  sim::SimTime cpu_free = 0.0;
  /// Accumulated busy seconds (handler execution + posting costs).
  double busy = 0.0;
  /// Accumulated completion-pickup + queueing wait (Table 1 "Waiting").
  double wait = 0.0;
  /// Last instant a completion handler finished (hybrid window anchor).
  sim::SimTime last_event = -1e18;
  /// Slow-receiver injection: software costs scale by this (product of
  /// active slow_node windows; 1.0 when healthy).
  double software_factor = 1.0;
  /// UD wire cursors: datagrams bypass the max-min flow network (they are
  /// fire-and-forget packets, not long-lived flows) and instead serialise
  /// store-and-forward through the sender's tx port and the receiver's rx
  /// port. These record when each port next frees up.
  sim::SimTime ud_tx_free = 0.0;
  sim::SimTime ud_rx_free = 0.0;
  util::Rng rng;
};

// ---------------------------------------------------------------------------
// SimEndpoint
// ---------------------------------------------------------------------------

class SimFabric::SimEndpoint final : public Endpoint {
 public:
  SimEndpoint(SimFabric& fabric, NodeId id, CompletionMode mode)
      : fabric_(fabric), id_(id), mode_(mode) {}

  NodeId id() const override { return id_; }

  void set_completion_handler(
      std::function<void(const Completion&)> handler) override {
    completion_handler_ = std::move(handler);
  }

  void send_oob(NodeId to, std::vector<std::byte> payload) override {
    fabric_.deliver_oob(to, id_, std::move(payload));
  }

  void set_oob_handler(
      std::function<void(NodeId, std::span<const std::byte>)> handler)
      override {
    oob_handler_ = std::move(handler);
  }

  void set_completion_mode(CompletionMode mode) override { mode_ = mode; }
  CompletionMode completion_mode() const override { return mode_; }

  void register_window(std::uint32_t window_id, MemoryView region) override {
    windows_.add(window_id, region);
  }
  void unregister_window(std::uint32_t window_id) override {
    windows_.remove(window_id);
  }

  SimFabric& fabric_;
  NodeId id_;
  CompletionMode mode_;
  WindowTable windows_;
  std::function<void(const Completion&)> completion_handler_;
  std::function<void(NodeId, std::span<const std::byte>)> oob_handler_;
};

// ---------------------------------------------------------------------------
// SimConnection: the flow transport.
// ---------------------------------------------------------------------------

/// The head of each direction moves as one max-min-fair flow, started once
/// its post has taken effect on the sender's virtual CPU. The sender
/// completes when the last byte leaves, the receiver a link latency later;
/// datagrams bypass the flow network (see send_datagrams).
class SimFabric::SimConnection final : public RcConnection {
 public:
  SimConnection(SimFabric& fabric, QpId qp_a, QpId qp_b, NodeId a, NodeId b)
      : RcConnection(fabric.datagrams_, qp_a, qp_b, a, b), fabric_(fabric) {}

 private:
  double charge_post(NodeId node, bool send) override {
    const auto& costs = fabric_.options_.costs;
    return fabric_.charge_software(
        node, send ? costs.post_send_s : costs.post_recv_s);
  }

  void start_head(Direction& dir) override RDMC_REQUIRES(mutex_) {
    auto& sim = fabric_.sim_;
    sim.at(std::max(sim.now(), dir.sends.front().posted_at),
           [this, &dir] { start_flow(dir); });
  }

  void start_flow(Direction& dir) RDMC_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    if (broken_ || !dir.in_flight) return;  // flushed before the flow began
    trace_begin(dir, fabric_.sim_.now());
    dir.transfer = fabric_.flows_.start_flow(
        dir.from->self(), dir.from->peer(),
        static_cast<double>(dir.sends.front().buf.size),
        [this, &dir](sim::SimTime) { flow_done(dir); });
  }

  void flow_done(Direction& dir) RDMC_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    dir.transfer = sim::kInvalidFlow;
    if (broken_) return;
    finish_head(dir);
    pump(dir);
  }

  void deliver(NodeId node, const Completion& c, double t) override {
    if (c.status == WcStatus::kFlushed)
      fabric_.fault_counters_.flushed_completions++;
    if (c.opcode == WcOpcode::kDisconnect)
      fabric_.fault_counters_.disconnects_delivered++;
    fabric_.deliver_completion(node, c, t);
  }

  double arrival(NodeId src, NodeId dst, double t) const override {
    return t + fabric_.topology_.latency(src, dst);
  }

  // Tiny control message: propagation + a fixed wire time, no bandwidth
  // contention (negligible next to block payloads).
  double write_imm_arrival(NodeId src, NodeId dst, double t) const override {
    return t + fabric_.topology_.latency(src, dst) +
           fabric_.options_.write_imm_wire_s;
  }

  double send_datagrams(RcQueuePair& from, MemoryView buf,
                        std::uint32_t immediate, double effective)
      override RDMC_REQUIRES(mutex_);

  void datagram_arrived(NodeId src, std::vector<std::byte> payload,
                        bool phantom, std::size_t bytes,
                        std::uint32_t immediate, std::uint64_t span)
      RDMC_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    RcQueuePair& from = *side_for(src);
    const sim::SimTime t = fabric_.sim_.now();
    const bool delivered =
        place_ud(outgoing(from),
                 MemoryView{phantom ? nullptr : payload.data(), bytes},
                 immediate, t);
    if (auto* tr = obs::tracer())
      tr->end(obs::Cat::kFabric, "udxfer", src, span, t, "dst,delivered",
              from.peer(), delivered ? 1 : 0);
  }

  double now() const override { return fabric_.sim_.now(); }
  WindowTable& windows(NodeId node) override {
    return fabric_.endpoints_[node]->windows_;
  }

  void abort_transfer(Direction& dir) override {
    if (dir.transfer == sim::kInvalidFlow) return;
    fabric_.flows_.abort_flow(dir.transfer);
    dir.transfer = sim::kInvalidFlow;
  }
  void on_break() override { fabric_.fault_counters_.links_broken++; }

  SimFabric& fabric_;
};

double SimFabric::SimConnection::send_datagrams(RcQueuePair& from,
                                                MemoryView buf,
                                                std::uint32_t immediate,
                                                double effective) {
  const NodeId self = from.self();
  const NodeId peer = from.peer();
  // The engine decides loss/duplication/reordering at the sender's egress,
  // so only surviving datagrams occupy wire time — identical verdict
  // sequences to the mem/tcp backends by construction.
  auto deliveries = datagrams_.on_send(self, peer, buf, immediate);
  NodeState& tx = fabric_.node_state_[self];
  sim::SimTime sender_done = effective;
  for (auto& d : deliveries) {
    const std::size_t bytes = d.view.size;
    const bool phantom = d.view.data == nullptr;
    std::vector<std::byte> payload;
    if (!phantom && bytes > 0)
      payload.assign(d.view.data, d.view.data + bytes);
    // Store-and-forward: serialise through the sender's tx port, propagate,
    // then serialise through the receiver's rx port. Directed-pair caps
    // (degrade_link) constrain the wire rate like they do for flows.
    const sim::Topology& topo = fabric_.topology_;
    double rate = std::min(topo.node_tx_Bps(self), topo.node_rx_Bps(peer));
    if (auto cap = topo.pair_cap_Bps(self, peer)) rate = std::min(rate, *cap);
    const double wire_s =
        rate > 0.0 ? static_cast<double>(bytes) / rate : 0.0;
    const sim::SimTime tx_start = std::max(effective, tx.ud_tx_free);
    const sim::SimTime tx_end = tx_start + wire_s;
    tx.ud_tx_free = tx_end;
    sender_done = tx_end;
    NodeState& rx = fabric_.node_state_[peer];
    const sim::SimTime rx_end = std::max(tx_end + topo.latency(self, peer),
                                         rx.ud_rx_free + wire_s);
    rx.ud_rx_free = rx_end;
    const std::uint64_t span = fabric_.ud_wire_seq_++;
    if (auto* tr = obs::tracer())
      tr->begin(obs::Cat::kFabric, "udxfer", self, span, tx_start,
                "dst,bytes,imm,seq", peer, bytes, d.immediate, d.index);
    fabric_.sim_.at(rx_end, [this, self, payload = std::move(payload),
                             phantom, bytes, imm = d.immediate,
                             span]() mutable {
      datagram_arrived(self, std::move(payload), phantom, bytes, imm, span);
    });
  }
  // Fire-and-forget: the sender's NIC is done once it handed off the last
  // surviving byte (or at once, if nothing survived).
  return sender_done;
}

// ---------------------------------------------------------------------------
// SimFabric
// ---------------------------------------------------------------------------

SimFabric::SimFabric(sim::Simulator& sim, sim::Topology& topology,
                     Options options)
    : sim_(sim),
      topology_(topology),
      flows_(sim, topology),
      options_(options) {
  endpoints_.reserve(topology.num_nodes());
  node_state_.resize(topology.num_nodes());
  util::Rng seeder(options_.seed);
  for (std::size_t i = 0; i < topology.num_nodes(); ++i) {
    endpoints_.push_back(std::make_unique<SimEndpoint>(
        *this, static_cast<NodeId>(i), options_.default_mode));
    node_state_[i].rng = seeder.split();
  }
}

SimFabric::~SimFabric() = default;

SimFabric::Options SimFabric::options_from(const sim::ClusterProfile& p) {
  Options o;
  o.costs = p.costs;
  o.preemption = p.preemption;
  return o;
}

Endpoint& SimFabric::endpoint(NodeId node) {
  assert(node < endpoints_.size());
  return *endpoints_[node];
}

QueuePair* SimFabric::connect(NodeId a, NodeId b, std::uint32_t channel) {
  assert(a < num_nodes() && b < num_nodes() && a != b);
  return connections_
      .connect(a, b, channel,
               [this](QpId qp_lo, QpId qp_hi, NodeId lo, NodeId hi) {
                 return std::make_unique<SimConnection>(*this, qp_lo, qp_hi,
                                                        lo, hi);
               })
      .side_for(a);
}

void SimFabric::break_link(NodeId a, NodeId b) {
  if (auto* tr = obs::tracer())
    tr->instant(obs::Cat::kFabric, "fault.break", a, sim_.now(), "a,b", a, b);
  connections_.break_link(a, b);
}

void SimFabric::crash_node(NodeId node) {
  if (auto* tr = obs::tracer())
    tr->instant(obs::Cat::kFabric, "fault.crash", node, sim_.now(), "node",
                node);
  if (connections_.crash_node(node)) fault_counters_.crashes++;
}

void SimFabric::apply_degrade(NodeId src, NodeId dst, double factor) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src) << 32) | dst;
  Degrade& d = degrades_[key];
  if (d.depth == 0) {
    const auto original = topology_.pair_cap_Bps(src, dst);
    d.had_original = original.has_value();
    d.original_gbps = original ? *original * 8.0 / 1e9 : 0.0;
    // Base bandwidth of an uncapped pair: whatever the tighter NIC port
    // allows (the pair cap only matters when below that anyway).
    d.base_gbps =
        d.had_original
            ? d.original_gbps
            : std::min(topology_.node_tx_Bps(src), topology_.node_rx_Bps(dst)) *
                  8.0 / 1e9;
    d.combined = 1.0;
  }
  d.depth++;
  d.combined *= factor;
  topology_.set_pair_cap(src, dst, d.base_gbps * d.combined);
}

void SimFabric::expire_degrade(NodeId src, NodeId dst, double factor) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src) << 32) | dst;
  auto it = degrades_.find(key);
  if (it == degrades_.end()) return;
  Degrade& d = it->second;
  d.depth--;
  d.combined /= factor;
  if (d.depth > 0) {
    topology_.set_pair_cap(src, dst, d.base_gbps * d.combined);
    return;
  }
  if (d.had_original)
    topology_.set_pair_cap(src, dst, d.original_gbps);
  else
    topology_.clear_pair_cap(src, dst);
  degrades_.erase(it);
}

bool SimFabric::degrade_link(NodeId a, NodeId b, double factor,
                             double duration_s) {
  if (factor <= 0.0 || duration_s < 0.0) return false;
  fault_counters_.degrades++;
  const std::uint64_t span =
      (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
  if (auto* tr = obs::tracer())
    tr->begin(obs::Cat::kFabric, "fault.degrade", a, span, sim_.now(),
              "a,b,permille", a, b,
              static_cast<std::uint64_t>(factor * 1000.0));
  apply_degrade(a, b, factor);
  apply_degrade(b, a, factor);
  flows_.topology_changed();
  sim_.after(duration_s, [this, a, b, factor, span] {
    expire_degrade(a, b, factor);
    expire_degrade(b, a, factor);
    flows_.topology_changed();
    if (auto* tr = obs::tracer())
      tr->end(obs::Cat::kFabric, "fault.degrade", a, span, sim_.now(),
              "a,b", a, b);
  });
  return true;
}

bool SimFabric::slow_node(NodeId node, double factor, double duration_s) {
  if (factor <= 0.0 || duration_s < 0.0 || node >= node_state_.size())
    return false;
  fault_counters_.slowdowns++;
  if (auto* tr = obs::tracer())
    tr->begin(obs::Cat::kFabric, "fault.slow", node, node, sim_.now(),
              "node,permille", node,
              static_cast<std::uint64_t>(factor * 1000.0));
  node_state_[node].software_factor *= factor;
  sim_.after(duration_s, [this, node, factor] {
    node_state_[node].software_factor /= factor;
    if (auto* tr = obs::tracer())
      tr->end(obs::Cat::kFabric, "fault.slow", node, node, sim_.now(),
              "node", node);
  });
  return true;
}

sim::SimTime SimFabric::charge_software(NodeId node, double cost) {
  NodeState& st = node_state_[node];
  if (options_.cross_channel) {
    // CORE-Direct: the NIC walks the posted dependency graph; no software
    // involvement per operation.
    return std::max(sim_.now(), st.cpu_free);
  }
  const double preempt = options_.preemption.sample(st.rng);
  const double scaled = cost * st.software_factor;  // slow-receiver fault
  const sim::SimTime start = std::max(sim_.now(), st.cpu_free);
  const sim::SimTime done = start + scaled + preempt;
  st.busy += scaled;  // preemption is stolen time, not useful work
  st.cpu_free = done;
  return done;
}

void SimFabric::deliver_completion(NodeId node, Completion c,
                                   sim::SimTime ready) {
  // Fail-stop: a crashed node's software never runs again, so nothing is
  // delivered to it — not even the flushes its own crash produced.
  if (crashed(node)) return;
  NodeState& st = node_state_[node];
  const SimEndpoint& ep = *endpoints_[node];
  double pickup = 0.0;
  if (!options_.cross_channel) {
    switch (ep.mode_) {
      case CompletionMode::kPolling:
        pickup = 0.0;
        break;
      case CompletionMode::kInterrupt:
        pickup = options_.costs.interrupt_wakeup_s;
        break;
      case CompletionMode::kHybrid:
        pickup = (ready - st.last_event <= options_.hybrid_poll_window_s)
                     ? 0.0
                     : options_.costs.interrupt_wakeup_s;
        break;
    }
  }
  const sim::SimTime earliest = std::max(ready + pickup, sim_.now());
  sim_.at(earliest,
          [this, node, c, ready] { attempt_handle(node, c, ready); });
}

void SimFabric::attempt_handle(NodeId node, const Completion& c,
                               sim::SimTime ready) {
  NodeState& st = node_state_[node];
  if (st.cpu_free > sim_.now()) {
    // The single completion thread is busy; retry when it frees up.
    sim_.at(st.cpu_free,
            [this, node, c, ready] { attempt_handle(node, c, ready); });
    return;
  }
  SimEndpoint& ep = *endpoints_[node];
  const sim::SimTime start = sim_.now();
  st.wait += std::max(0.0, start - ready);
  double cost = 0.0;
  if (!options_.cross_channel) {
    const double scaled =
        options_.costs.handle_completion_s * st.software_factor;
    cost = scaled + options_.preemption.sample(st.rng);
    st.busy += scaled;
  }
  st.cpu_free = start + cost;
  st.last_event = start + cost;
  if (ep.completion_handler_) ep.completion_handler_(c);
}

void SimFabric::deliver_oob(NodeId to, NodeId from,
                            std::vector<std::byte> payload) {
  // A crashed node's control mesh is dead along with its RDMA sessions.
  if (crashed(from) || crashed(to)) return;
  sim_.after(options_.oob_latency_s,
             [this, to, from, payload = std::move(payload)] {
               SimEndpoint& ep = *endpoints_[to];
               if (ep.oob_handler_)
                 ep.oob_handler_(from, std::span<const std::byte>(payload));
             });
}

double SimFabric::cpu_busy_seconds(NodeId node) const {
  return node_state_[node].busy;
}

double SimFabric::completion_wait_seconds(NodeId node) const {
  return node_state_[node].wait;
}

}  // namespace rdmc::fabric
