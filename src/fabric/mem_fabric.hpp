// MemFabric: an in-process, multi-threaded fabric backend.
//
// Every node gets a real completion thread; sends really copy bytes between
// registered buffers under per-connection locks. This backend exercises the
// protocol engine's concurrency for real — out-of-order completions across
// queue pairs, readiness races, failure notifications racing with data —
// and is what the functional test suite and the examples run on.
//
// Transfers complete "instantly" (at memcpy speed); timing fidelity is the
// job of SimFabric. Semantics match fabric.hpp exactly: FIFO per QP, sends
// match the oldest posted receive, write-with-immediate bypasses receive
// buffers, breaks flush posted work.
#pragma once

#include <memory>
#include <vector>

#include "fabric/datagram.hpp"
#include "fabric/fabric.hpp"
#include "fabric/qp_core.hpp"
#include "util/thread_annotations.hpp"

namespace rdmc::fabric {

class MemFabric final : public Fabric, public FaultInjector {
 public:
  explicit MemFabric(std::size_t num_nodes);
  ~MemFabric() override;

  MemFabric(const MemFabric&) = delete;
  MemFabric& operator=(const MemFabric&) = delete;

  std::size_t num_nodes() const override { return endpoints_.size(); }
  Endpoint& endpoint(NodeId node) override;
  QueuePair* connect(NodeId a, NodeId b, std::uint32_t channel) override;
  FaultInjector& faults() override { return *this; }

  // FaultInjector: immediate-mode semantics — injections take effect as
  // soon as the call returns. There is no bandwidth model, so
  // degrade_link is accepted-and-ignored (returns false); slow_node
  // injects a real dispatch delay on the node's completion thread for a
  // real-time window.
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
  bool crashed(NodeId node) const override;

  DatagramEngine& datagrams() { return datagrams_; }

  /// Stop all completion threads (also done by the destructor). After
  /// stop(), no further handlers run.
  void stop();

  /// Block until every node's event queue is empty and no handler is
  /// running (useful in tests to reach quiescence).
  void drain();

  /// Diagnostics: events currently queued for a node (and whether its
  /// completion thread is mid-dispatch).
  std::pair<std::size_t, bool> queue_state(NodeId node);

 private:
  class MemEndpoint;
  class MemConnection;

  void deliver_oob(NodeId from, NodeId to, std::vector<std::byte> payload);

  std::vector<std::unique_ptr<MemEndpoint>> endpoints_;
  DatagramEngine datagrams_;
  /// Lock order (DESIGN.md §11): connections_mutex_ before
  /// RcConnection::mutex_ before WindowTable's and ThreadedEndpoint's queue
  /// locks (connect() and the fault injections sever connections under
  /// it, which delivers flush completions).
  mutable util::Mutex connections_mutex_;
  /// The connections, and the crashed nodes, whose out-of-band mesh is dead
  /// too (a crash kills the bootstrap TCP connections along with the RDMA
  /// sessions).
  RcConnectionTable connections_ RDMC_GUARDED_BY(connections_mutex_);
};

}  // namespace rdmc::fabric
