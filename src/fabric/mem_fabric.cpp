#include "fabric/mem_fabric.hpp"

#include <cassert>
#include <chrono>
#include <thread>

#include "obs/trace.hpp"

namespace rdmc::fabric {

class MemFabric::MemEndpoint final : public ThreadedEndpoint {
 public:
  MemEndpoint(MemFabric& fabric, NodeId id)
      : ThreadedEndpoint(id), fabric_(fabric) {}

  void send_oob(NodeId to, std::vector<std::byte> payload) override {
    fabric_.deliver_oob(id(), to, std::move(payload));
  }

 private:
  MemFabric& fabric_;
};

/// The memcpy transport: the head moves the instant the head-of-line rule
/// lets it, and every completion goes straight to its node's thread.
class MemFabric::MemConnection final : public RcConnection {
 public:
  MemConnection(MemFabric& fabric, QpId qp_a, QpId qp_b, NodeId a, NodeId b)
      : RcConnection(fabric.datagrams_, qp_a, qp_b, a, b), fabric_(fabric) {}

 private:
  void start_head(Direction& dir) override RDMC_REQUIRES(mutex_) {
    trace_begin(dir, now());
    finish_head(dir);
  }
  void deliver(NodeId node, const Completion& c, double) override {
    fabric_.endpoints_[node]->push(c);
  }
  double send_datagrams(RcQueuePair& from, MemoryView buf,
                        std::uint32_t immediate, double t)
      override RDMC_REQUIRES(mutex_) {
    for (const auto& d :
         datagrams_.on_send(from.self(), from.peer(), buf, immediate))
      place_ud(outgoing(from), d.view, d.immediate, t);
    return t;
  }
  double now() const override { return obs::wall_seconds(); }
  WindowTable& windows(NodeId node) override {
    return fabric_.endpoints_[node]->windows();
  }

  MemFabric& fabric_;
};

MemFabric::MemFabric(std::size_t num_nodes) {
  endpoints_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    endpoints_.push_back(
        std::make_unique<MemEndpoint>(*this, static_cast<NodeId>(i)));
  }
}

MemFabric::~MemFabric() { stop(); }

void MemFabric::stop() {
  for (auto& ep : endpoints_) ep->stop();
}

void MemFabric::drain() {
  // Quiescence: every queue empty and no handler mid-flight, observed
  // three times in a row (a handler can enqueue to another node between
  // checks).
  for (int settled = 0; settled < 3;) {
    bool all_idle = true;
    for (auto& ep : endpoints_) {
      const auto [queued, handling] = ep->queue_state();
      if (queued > 0 || handling) {
        all_idle = false;
        break;
      }
    }
    if (all_idle) {
      ++settled;
    } else {
      settled = 0;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

std::pair<std::size_t, bool> MemFabric::queue_state(NodeId node) {
  return endpoints_[node]->queue_state();
}

Endpoint& MemFabric::endpoint(NodeId node) {
  assert(node < endpoints_.size());
  return *endpoints_[node];
}

QueuePair* MemFabric::connect(NodeId a, NodeId b, std::uint32_t channel) {
  assert(a < endpoints_.size() && b < endpoints_.size() && a != b);
  util::MutexLock lock(connections_mutex_);
  return connections_
      .connect(a, b, channel,
               [this](QpId qp_lo, QpId qp_hi, NodeId lo, NodeId hi) {
                 return std::make_unique<MemConnection>(*this, qp_lo, qp_hi,
                                                        lo, hi);
               })
      .side_for(a);
}

void MemFabric::break_link(NodeId a, NodeId b) {
  util::MutexLock lock(connections_mutex_);
  connections_.break_link(a, b);
}

void MemFabric::crash_node(NodeId node) {
  util::MutexLock lock(connections_mutex_);
  connections_.crash_node(node);
}

bool MemFabric::degrade_link(NodeId, NodeId, double, double) {
  // MemFabric moves real bytes with no modelled capacity; accepted and
  // ignored per the FaultInjector contract.
  return false;
}

bool MemFabric::slow_node(NodeId node, double factor, double duration_s) {
  return node < endpoints_.size() &&
         endpoints_[node]->slow(factor, duration_s);
}

bool MemFabric::crashed(NodeId node) const {
  util::MutexLock lock(connections_mutex_);
  return connections_.crashed(node);
}

void MemFabric::deliver_oob(NodeId from, NodeId to,
                            std::vector<std::byte> payload) {
  assert(to < endpoints_.size());
  // A crashed node can neither send nor receive on the control mesh.
  if (crashed(from) || crashed(to)) return;
  endpoints_[to]->push(ThreadedEndpoint::OobMsg{from, std::move(payload)});
}

}  // namespace rdmc::fabric
