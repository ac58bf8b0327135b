// TcpFabric: the fabric API over real TCP sockets (paper §5.3, "RDMC on
// TCP").
//
// The paper's slack analysis suggests RDMC "might work surprisingly well
// over high speed datacenter TCP (with no RDMA)", and reports an OFI/
// LibFabrics port in progress. This backend realises that: the identical
// RDMC engine runs over kernel TCP, in one process (tests) or across
// processes/machines (each process hosts one endpoint; see
// examples/tcp_node.cpp).
//
// Mapping of RC verbs semantics onto TCP:
//   * each ordered node pair uses one socket per direction (the traffic
//     sender dials), carrying length-prefixed frames; frames multiplex all
//     channels of the pair, so per-QP FIFO order is inherited from TCP's
//     byte-stream order;
//   * two-sided sends match the receiver's posted-receive FIFO per
//     channel; an early send parks in a bounded pending queue (kernel TCP
//     has already buffered it — the RNR case cannot exist);
//   * one-sided writes (immediate and window) become frames the receiver
//     host applies to its registered windows;
//   * a send completion fires once the kernel accepted the bytes — weaker
//     than RC's delivered-or-broken contract, exactly as a TCP port of
//     RDMC would behave (the paper's reliability argument then leans on
//     the connection-break report, which maps to TCP reset/EOF);
//   * the out-of-band mesh uses the same sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fabric/datagram.hpp"
#include "fabric/fabric.hpp"
#include "fabric/qp_core.hpp"
#include "util/thread_annotations.hpp"

namespace rdmc::fabric {

struct TcpAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral (single-process use)
};

class TcpFabric final : public Fabric, public FaultInjector {
 public:
  /// `addresses[i]` is node i's listen address. `local_nodes` are the
  /// endpoints this instance hosts (all of them for single-process runs;
  /// exactly one per process in a distributed deployment). With ephemeral
  /// ports, all nodes must be local (peers could not be located).
  TcpFabric(std::vector<TcpAddress> addresses,
            std::vector<NodeId> local_nodes);
  ~TcpFabric() override;

  TcpFabric(const TcpFabric&) = delete;
  TcpFabric& operator=(const TcpFabric&) = delete;

  std::size_t num_nodes() const override { return addresses_.size(); }
  Endpoint& endpoint(NodeId node) override;  // local nodes only
  /// `a` must be local; the QP is a's side. (In a distributed deployment
  /// the peer process creates its own side symmetrically.)
  QueuePair* connect(NodeId a, NodeId b, std::uint32_t channel) override;
  FaultInjector& faults() override { return *this; }

  // FaultInjector: immediate-mode semantics. crash_node stops the node's
  // endpoint if hosted here; peers discover via EOF/reset, exactly like a
  // real process crash. degrade_link is accepted-and-ignored (kernel TCP
  // has no injectable bandwidth model here); slow_node injects a real
  // dispatch delay on the node's completion thread for a real-time window.
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

  /// The resolved listen address of a local node (useful with port 0).
  TcpAddress local_address(NodeId node) const;

  void stop();

 private:
  class TcpEndpoint;
  class TcpQueuePair;

  TcpEndpoint* local(NodeId node) const;

  std::vector<TcpAddress> addresses_;
  std::vector<std::unique_ptr<TcpEndpoint>> endpoints_;  // index = node id
  mutable util::Mutex crashed_mutex_;
  std::vector<bool> crashed_ RDMC_GUARDED_BY(crashed_mutex_);  // by node id
  DatagramEngine datagrams_;
  std::atomic<QpId> next_qp_id_{1};
};

}  // namespace rdmc::fabric
