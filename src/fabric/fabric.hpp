// Verbs-shaped fabric abstraction.
//
// RDMC (the core library) is written against this interface, which captures
// exactly the slice of RDMA reliable-connected (RC) verbs semantics the
// paper relies on (§2):
//
//   * two-sided sends/receives over bound queue pairs, zero-copy between
//     registered buffers, FIFO per QP, no corruption or duplication;
//   * a 32-bit "immediate" value carried with each send (RDMC uses it to
//     announce total message size, §4.2);
//   * a one-sided write-with-immediate used for the tiny ready-for-block
//     notification (§4.2; see DESIGN.md §6 for the modelling note);
//   * completion events on a single per-node completion queue, consumed by
//     one completion thread in polling / interrupt / hybrid mode (§4.2);
//   * connection breakage reported to the surviving endpoint(s) after
//     hardware retry exhaustion (§2, §3 item 6);
//   * an out-of-band control mesh standing in for the N x N TCP mesh the
//     paper bootstraps with (§2).
//
// Beyond the paper's RC slice, every QueuePair also offers an *unreliable
// datagram* service type (post_send_ud / post_recv_ud): per-packet,
// droppable, never break-on-loss — the substrate software-defined
// reliability (SDR-RDMA, arXiv:2505.05366) runs on for lossy/WAN paths.
// Loss, duplication and reordering are injected by a seeded
// DatagramFaultProfile identically on every backend.
//
// Two interchangeable backends implement it:
//   * MemFabric  — real threads, real byte movement (tests, examples);
//   * SimFabric  — discrete-event virtual time at cluster scale (benches).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace rdmc::fabric {

using NodeId = std::uint32_t;
using QpId = std::uint64_t;

/// A view of registered memory. `data` may be null: a *phantom* buffer that
/// moves simulated bytes without touching host memory, used for
/// cluster-scale experiments where allocating 512 x 256 MB is infeasible.
struct MemoryView {
  std::byte* data = nullptr;
  std::size_t size = 0;
};

enum class WcOpcode : std::uint8_t {
  kSend,          // a posted send finished (sender side)
  kRecv,          // a posted receive was filled (receiver side)
  kWriteImm,      // a one-sided write-with-immediate finished (issuer side)
  kRecvWriteImm,  // a one-sided write-with-immediate arrived (target side)
  kWindowWrite,   // a one-sided window write finished (issuer side)
  kRecvWindowWrite,  // a one-sided window write landed (target side)
  kDisconnect,    // the connection broke; peer identifies the QP's peer
  kSendUd,        // a datagram left the local NIC (fire-and-forget)
  kRecvUd,        // a datagram arrived into a posted UD receive
};

enum class WcStatus : std::uint8_t {
  kSuccess,
  kFlushed,  // posted work discarded because the QP broke
  kError,
};

/// Outcome of a QueuePair::post_* call, reported synchronously. Verbs
/// distinguishes "the connection is (known to be) dead" from "the caller
/// handed us garbage"; collapsing both into one bool made every caller
/// guess which recovery path to take (tear the group down vs. fix the
/// arguments). Remote failures (e.g. an out-of-bounds window write
/// detected at the target) still surface asynchronously as a connection
/// break, exactly like a remote-access error on real hardware.
///
/// Thread-safety during fault windows (the contract test_failures
/// exercises): post_* may race freely with fault injection. A post that
/// loses the race either returns kQpBroken, or returns kOk and the work is
/// later flushed (kFlushed completion) — never both, never neither, and
/// never a torn/partial transfer. Completion callbacks are *never* invoked
/// inline from a post_* call or from a FaultInjector method: flush and
/// disconnect completions always arrive on the node's completion thread
/// (its virtual-CPU instant on SimFabric), at most one invocation per node
/// at a time, so a handler observing kDisconnect may immediately re-post
/// elsewhere without reentrancy. Backends assert this single-dispatch
/// invariant.
enum class PostResult : std::uint8_t {
  kOk = 0,
  kQpBroken,  // the connection broke, or the QP was locally closed
  kBadArgs,   // locally detectable misuse (e.g. payload >= 4 GiB: the
              // byte_len/immediate fields are 32-bit)
  kWindowViolation,  // locally detectable window misuse (offset + length
                     // overflows the 64-bit window address space)
};

constexpr bool ok(PostResult r) { return r == PostResult::kOk; }

struct Completion {
  std::uint64_t wr_id = 0;
  WcOpcode opcode = WcOpcode::kSend;
  WcStatus status = WcStatus::kSuccess;
  std::uint32_t byte_len = 0;
  std::uint32_t immediate = 0;
  QpId qp = 0;
  NodeId peer = 0;
};

/// Seeded probabilistic impairment applied to *datagram* (UD) traffic only
/// — the WAN substrate of SDR-RDMA (arXiv:2505.05366). RC connections are
/// never subject to it: reliable-connected verbs retransmit in hardware
/// until the retry budget breaks the connection, while UD exposes every
/// lost packet to software.
///
/// Every per-datagram decision is a pure function of (seed, src, dst, the
/// datagram's per-directed-pair sequence index) — never of wall-clock or
/// virtual timing — so the same profile produces the *identical* sequence
/// of drop/duplicate/reorder verdicts on every backend (the cross-backend
/// parity contract tested by test_ud_fabric).
struct DatagramFaultProfile {
  /// Probability a datagram is silently dropped in the network.
  double loss = 0.0;
  /// Probability a surviving datagram is delivered twice.
  double duplicate = 0.0;
  /// Probability a surviving datagram is held back and released only after
  /// later datagrams on the same directed pair overtake it.
  double reorder = 0.0;
  /// A held datagram is released after 1..reorder_span subsequent send
  /// attempts on its pair (uniformly chosen, same determinism rule).
  std::uint32_t reorder_span = 3;
  /// Seed for the per-pair verdict streams.
  std::uint64_t seed = 0x5D7A6BA5ull;
};

/// Fabric-wide datagram accounting (UD traffic only), exposed through
/// FaultInjector so benches and tests can audit where datagrams went.
struct DatagramCounters {
  std::uint64_t sent = 0;        // post_send_ud calls accepted
  std::uint64_t delivered = 0;   // datagrams placed into a posted UD recv
  std::uint64_t dropped = 0;     // dropped by the fault profile
  std::uint64_t duplicated = 0;  // extra copies injected
  std::uint64_t reordered = 0;   // datagrams held back for later release
  std::uint64_t no_recv = 0;     // arrived with no posted UD recv (or one
                                 // too small) — silently discarded
};

/// How the per-node completion thread detects completions (§4.2, Fig 11).
enum class CompletionMode : std::uint8_t {
  kPolling,    // busy-poll: zero pickup latency, one core at 100%
  kInterrupt,  // event-driven: wakeup latency on every completion
  kHybrid,     // poll for a window after each event, then sleep (default)
};

/// One bound queue pair (one side of an RC connection).
///
/// All post_* calls are non-blocking and thread-safe. They return
/// PostResult::kQpBroken if the connection is (already known to be) broken
/// or the QP was locally closed.
class QueuePair {
 public:
  virtual ~QueuePair() = default;

  QpId id() const { return id_; }
  NodeId peer() const { return peer_; }

  /// Two-sided send carrying an immediate value. Completes with kSend at
  /// the sender and kRecv at the receiver (into its oldest posted recv).
  /// kBadArgs if a real buffer's size does not fit the 32-bit byte_len
  /// field (phantom — null data — buffers are exempt: they model timing
  /// only and may legitimately exceed 4 GiB).
  virtual PostResult post_send(MemoryView buf, std::uint64_t wr_id,
                               std::uint32_t immediate) = 0;

  /// Post a receive buffer. Buffers are consumed in FIFO order.
  /// kBadArgs under the same size rule as post_send.
  virtual PostResult post_recv(MemoryView buf, std::uint64_t wr_id) = 0;

  /// One-sided write-with-immediate: delivers a kRecvWriteImm completion at
  /// the peer without consuming a posted receive. Used for the
  /// ready-for-block notification.
  virtual PostResult post_write_imm(std::uint32_t immediate,
                                    std::uint64_t wr_id) = 0;

  /// One-sided write with payload into the peer's registered memory window
  /// (the RDMA one-sided write-with-immediate mode of §2, as used by
  /// Derecho's small-message and status-table protocols, §4.6): places
  /// `local` at `offset` within the peer's window `window_id` and delivers
  /// a kRecvWindowWrite completion there (no posted receive consumed).
  /// FIFO-ordered with the QP's two-sided sends.
  /// Returns kWindowViolation if `offset + local.size` overflows the
  /// 64-bit window address space (locally detectable misuse); a write
  /// beyond the *remote* window's bounds is only discovered at the target
  /// and breaks the connection asynchronously, like a remote-access error
  /// on real hardware.
  /// `signaled=false` suppresses the issuer-side kWindowWrite completion
  /// (unsignaled verbs posts — senders typically signal every Nth write).
  virtual PostResult post_window_write(std::uint32_t window_id,
                                       std::uint64_t offset, MemoryView local,
                                       std::uint32_t immediate,
                                       std::uint64_t wr_id,
                                       bool signaled = true) = 0;

  // -- Unreliable-datagram service type (SDR-RDMA substrate) ---------------
  //
  // The second QP service type: per-packet, droppable, never break-on-loss.
  // RC semantics make loss a *connection* event (hardware retries, then the
  // QP breaks); that is the right contract inside a datacenter and exactly
  // the wrong one over lossy/WAN paths, where a 1e-3 loss rate would break
  // every connection within a second. UD instead delivers each datagram
  // independently: lost, duplicated, or reordered packets are surfaced to
  // (or hidden from) software, and reliability becomes a schedule-level
  // concern (src/reliability). See DESIGN.md §9.

  /// Fire-and-forget datagram to the peer. Always completes kSendUd at the
  /// sender with kSuccess once the local NIC is done with `buf` — delivery
  /// is NOT implied; the fabric's DatagramFaultProfile may drop, duplicate,
  /// or reorder it, and an unmatched arrival (no posted UD recv) is
  /// silently discarded and counted, never an error. Datagram traffic never
  /// breaks the QP; posting on an already-broken (RC-severed) or closed QP
  /// returns kQpBroken and the datagram is not sent. kBadArgs under the
  /// same 32-bit size rule as post_send.
  virtual PostResult post_send_ud(MemoryView buf, std::uint64_t wr_id,
                                  std::uint32_t immediate) = 0;

  /// Post a receive buffer for datagrams from this QP's peer. UD receives
  /// form their own FIFO queue, separate from the RC receive queue: a
  /// datagram never consumes an RC recv and vice versa. A datagram larger
  /// than the oldest posted UD buffer discards the datagram (counted as
  /// no_recv), not the buffer — unlike RC, where a too-small recv is a
  /// protocol violation that breaks the connection.
  virtual PostResult post_recv_ud(MemoryView buf, std::uint64_t wr_id) = 0;

  /// Locally tear the QP down (RDMA destroy-QP): posted receives are
  /// revoked with a fence — on return no in-flight transfer will touch
  /// their buffers again — and traffic still arriving for this QP is
  /// silently discarded. No completions are delivered after close(); the
  /// peer is NOT notified (group teardown is collective, §4.1). Posting
  /// after close fails. Revocation covers posted UD receives too.
  virtual void close() = 0;

  bool broken() const { return broken_.load(); }

  /// Backend-internal: mark the QP dead after a connection break. Atomic:
  /// TcpFabric's socket readers mark a QP while other threads post on it.
  void mark_broken() { broken_.store(true); }

 protected:
  QueuePair(QpId id, NodeId peer) : id_(id), peer_(peer) {}
  QpId id_;
  NodeId peer_;
  std::atomic<bool> broken_{false};
};

/// Per-node endpoint: owns the node's single completion queue/thread and
/// its out-of-band control mesh port.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual NodeId id() const = 0;

  /// Handler invoked for every completion, on the node's completion thread
  /// (MemFabric) or at the node's virtual CPU time (SimFabric). At most one
  /// invocation runs at a time per node. Must be set before traffic flows.
  /// Setting a new handler (including nullptr) synchronises with any
  /// in-flight invocation: once the setter returns, the old handler is
  /// guaranteed not to be running.
  virtual void set_completion_handler(
      std::function<void(const Completion&)> handler) = 0;

  /// Out-of-band reliable control channel (the bootstrap "TCP mesh").
  virtual void send_oob(NodeId to, std::vector<std::byte> payload) = 0;
  virtual void set_oob_handler(
      std::function<void(NodeId from, std::span<const std::byte>)>
          handler) = 0;

  virtual void set_completion_mode(CompletionMode mode) = 0;
  virtual CompletionMode completion_mode() const = 0;

  /// Expose a memory region for one-sided writes from peers (RDMA memory
  /// registration + rkey exchange, collapsed: window ids are agreed out of
  /// band, here by convention). Re-registering an id replaces the region.
  virtual void register_window(std::uint32_t window_id,
                               MemoryView region) = 0;

  /// Withdraw a window. Like RDMA memory deregistration this *fences*: on
  /// return, no in-flight one-sided write will touch the region again, so
  /// the caller may free it. Unknown ids are a no-op.
  virtual void unregister_window(std::uint32_t window_id) = 0;
};

/// First-class failure injection, exposed uniformly by every backend via
/// Fabric::faults().
///
/// The contract, identical across backends (only the notion of "now"
/// differs — SimFabric injects at the current *virtual* instant, MemFabric
/// and TcpFabric immediately in real time):
///
///   * break_link(a, b): every connection between the two nodes breaks.
///     Each non-closed QP side receives kFlushed completions for its posted
///     work followed by exactly one kDisconnect (this is the hardware
///     retry-exhaustion report of §2 that RDMC's failure handling, §3
///     item 6, builds on). Closed QPs receive nothing — close() fences.
///     A no-op if the nodes share no connection.
///   * crash_node(n): the node fail-stops. Every connection it participates
///     in breaks as above (survivors each get their kDisconnect), the node
///     is marked crashed, and all future out-of-band traffic to or from it
///     is silently dropped. Connecting to a crashed node yields a
///     born-broken connection (the QP flushes immediately) rather than a
///     silent hang.
///   * degrade_link(a, b, factor, duration): transient capacity fault —
///     both directions of the pair run at `factor` x their normal bandwidth
///     for `duration` seconds, then recover. Overlapping degradations nest
///     (innermost factor wins until it expires). Only meaningful on
///     backends with a bandwidth model: SimFabric applies it to the flow
///     network; MemFabric/TcpFabric accept and ignore it (they move real
///     bytes with no modelled capacity) — returns false when ignored.
///   * slow_node(n, factor, duration): slow-receiver fault (§3 item 5, the
///     scenario of Fig 9). The node's completion handling runs `factor` x
///     slower for `duration` seconds. SimFabric scales the node's modelled
///     software costs in virtual time; MemFabric/TcpFabric inject a real
///     delay before each completion dispatch on that node's completion
///     thread for a real-time window. Returns false when ignored.
///
/// All injection calls are safe from any thread, including completion
/// handlers. They are asynchronous: completions resulting from an injection
/// surface through the normal completion path, never inline from the call.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  virtual void break_link(NodeId a, NodeId b) = 0;
  virtual void crash_node(NodeId node) = 0;
  virtual bool degrade_link(NodeId a, NodeId b, double factor,
                            double duration_s) = 0;
  virtual bool slow_node(NodeId node, double factor, double duration_s) = 0;

  /// Install the fabric-wide datagram impairment profile (UD traffic only;
  /// RC connections are unaffected). Resets the per-pair verdict streams
  /// and the datagram counters. Applies to datagrams posted after the call;
  /// safe from any thread, like the other injections.
  virtual void set_datagram_faults(const DatagramFaultProfile& profile) = 0;

  /// Snapshot of the fabric-wide datagram accounting.
  virtual DatagramCounters datagram_counters() const = 0;

  /// Ground truth for orchestrators standing in for the external
  /// membership service of §4.6: has `node` been fail-stopped?
  virtual bool crashed(NodeId node) const = 0;
};

/// A fabric instance: a set of endpoints plus connection management.
class Fabric {
 public:
  virtual ~Fabric() = default;

  virtual std::size_t num_nodes() const = 0;
  virtual Endpoint& endpoint(NodeId node) = 0;

  /// Create (or return the existing) queue pair between `a` and `b` on
  /// logical channel `channel` and return `a`'s side. Channels let one node
  /// pair carry several independent QPs (one per RDMC group). Symmetric:
  /// connect(a, b, c) and connect(b, a, c) return the two sides of the same
  /// connection.
  virtual QueuePair* connect(NodeId a, NodeId b, std::uint32_t channel) = 0;

  /// Failure injection for this fabric (see FaultInjector for the
  /// contract). The reference stays valid for the fabric's lifetime.
  virtual FaultInjector& faults() = 0;

  /// Convenience shorthands for the two most common injections.
  void break_link(NodeId a, NodeId b) { faults().break_link(a, b); }
  void crash_node(NodeId node) { faults().crash_node(node); }
};

}  // namespace rdmc::fabric
