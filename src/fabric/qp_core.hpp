// The queue-pair core the fabric backends share.
//
// RDMC relies on one slice of RC verbs semantics (fabric.hpp): per-QP FIFO
// order, no corruption, a completion when a transfer ends, and a reported
// break. This file holds that contract once, so a backend keeps only how
// bytes move and when completions are stamped:
//
//   * check_post / check_window_post — the local argument checks of every
//     post_* (all three backends);
//   * WindowTable — an endpoint's registered windows and the one-sided
//     write into them (all three);
//   * place_datagram / flush_receives — UD placement and the flush of posted
//     receives (all three);
//   * ThreadedEndpoint — the completion thread of a real-time endpoint
//     (MemFabric, TcpFabric);
//   * RcConnection / RcQueuePair / RcConnectionTable — the two-direction
//     RC/UD connection state machine over a narrow transport interface
//     (MemFabric, SimFabric; TcpFabric's kernel buffers early sends, so its
//     receiver keeps its own queues).
#pragma once

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "fabric/datagram.hpp"
#include "fabric/fabric.hpp"
#include "util/thread_annotations.hpp"

namespace rdmc::fabric {

/// The checks every post_* makes before touching anything: a broken or
/// closed QP first, then a real payload too large for the 32-bit byte_len
/// field (phantom buffers, null data, are exempt).
constexpr PostResult check_post(bool broken, MemoryView buf) {
  if (broken) return PostResult::kQpBroken;
  if (buf.data != nullptr && buf.size > 0xFFFFFFFFu)
    return PostResult::kBadArgs;
  return PostResult::kOk;
}

/// check_post, then an offset whose write would wrap the 64-bit window
/// address space.
constexpr PostResult check_window_post(bool broken, MemoryView buf,
                                       std::uint64_t offset) {
  const PostResult r = check_post(broken, buf);
  if (ok(r) && buf.size > 0 && offset > ~std::uint64_t{0} - buf.size)
    return PostResult::kWindowViolation;
  return r;
}

struct PostedRecv {
  MemoryView buf;
  std::uint64_t wr_id = 0;
};

/// UD placement: the oldest posted UD receive takes a datagram that fits
/// and gets a copy of its bytes. Otherwise the datagram, not the buffer, is
/// discarded and counted as no_recv — never an error. `open` is false when
/// the receiving QP is closed or broken.
std::optional<PostedRecv> place_datagram(bool open,
                                         std::deque<PostedRecv>& ud_recvs,
                                         MemoryView datagram,
                                         DatagramEngine& engine);

/// Hand the posted receives of `qp`, RC then UD, to `emit` as kFlushed
/// completions — unless the QP is closed: close() fences, so a closed QP
/// hears nothing. Both queues end empty.
template <class Emit>
void flush_receives(std::deque<PostedRecv>& recvs,
                    std::deque<PostedRecv>& ud_recvs, const QueuePair& qp,
                    bool closed, Emit&& emit) {
  if (!closed) {
    for (const auto& r : recvs)
      emit(Completion{r.wr_id, WcOpcode::kRecv, WcStatus::kFlushed, 0, 0,
                      qp.id(), qp.peer()});
    for (const auto& r : ud_recvs)
      emit(Completion{r.wr_id, WcOpcode::kRecvUd, WcStatus::kFlushed, 0, 0,
                      qp.id(), qp.peer()});
  }
  recvs.clear();
  ud_recvs.clear();
}

/// The one report a QP side gets when its connection breaks.
inline Completion disconnect_of(const QueuePair& qp) {
  return Completion{0, WcOpcode::kDisconnect, WcStatus::kError, 0, 0,
                    qp.id(), qp.peer()};
}

/// An endpoint's registered memory windows. Every one-sided write goes
/// through write(), under the table lock, so remove() fences: once it
/// returns, no write touches the region again.
class WindowTable {
 public:
  enum class Write { kDone, kUnknown, kOutOfBounds };

  void add(std::uint32_t id, MemoryView region) RDMC_EXCLUDES(mutex_);
  void remove(std::uint32_t id) RDMC_EXCLUDES(mutex_);

  /// Copy `src` to `offset` in window `id`. A write to an unknown window is
  /// dropped, like DMA after deregistration; one past the window's end
  /// copies nothing and is the caller's connection error.
  Write write(std::uint32_t id, std::uint64_t offset, MemoryView src)
      RDMC_EXCLUDES(mutex_);

 private:
  util::Mutex mutex_;
  std::map<std::uint32_t, MemoryView> windows_ RDMC_GUARDED_BY(mutex_);
};

/// The completion queue of a real-time endpoint: one thread dispatches the
/// node's completions and out-of-band messages in arrival order, at most
/// one handler at a time (the fabric.hpp single-dispatch contract). The
/// backend supplies send_oob and pushes events.
class ThreadedEndpoint : public Endpoint {
 public:
  struct OobMsg {
    NodeId from;
    std::vector<std::byte> payload;
  };
  using Event = std::variant<Completion, OobMsg>;

  explicit ThreadedEndpoint(NodeId id);
  ~ThreadedEndpoint() override;
  ThreadedEndpoint(const ThreadedEndpoint&) = delete;
  ThreadedEndpoint& operator=(const ThreadedEndpoint&) = delete;

  NodeId id() const override { return id_; }
  void set_completion_handler(
      std::function<void(const Completion&)> handler) override;
  void set_oob_handler(
      std::function<void(NodeId, std::span<const std::byte>)> handler)
      override;
  void set_completion_mode(CompletionMode mode) override {
    mode_.store(mode, std::memory_order_relaxed);
  }
  CompletionMode completion_mode() const override {
    return mode_.load(std::memory_order_relaxed);
  }
  void register_window(std::uint32_t window_id, MemoryView region) override {
    windows_.add(window_id, region);
  }
  void unregister_window(std::uint32_t window_id) override {
    windows_.remove(window_id);
  }
  WindowTable& windows() { return windows_; }

  /// Queue an event for the completion thread; dropped once stopping.
  void push(Event event) RDMC_EXCLUDES(queue_mutex_);

  /// Stop accepting events; what is queued still drains. Returns false if
  /// a stop had already begun.
  bool begin_stop() RDMC_EXCLUDES(queue_mutex_);
  /// Wait for the completion thread to drain and exit (after begin_stop).
  void join();
  /// begin_stop + join. Afterwards no handler runs.
  void stop() {
    if (begin_stop()) join();
  }

  /// Events queued, and whether a handler is running.
  std::pair<std::size_t, bool> queue_state() RDMC_EXCLUDES(queue_mutex_);

  /// Slow-receiver fault (FaultInjector::slow_node): for `duration_s` of
  /// real time, each dispatch waits (factor - 1) x a nominal 10 us handler
  /// cost first. False, and no effect, unless factor > 1 and duration > 0.
  bool slow(double factor, double duration_s);

 private:
  void run() RDMC_EXCLUDES(queue_mutex_);
  void slow_dispatch_delay();
  void dispatch(const Event& event) RDMC_EXCLUDES(handler_mutex_);

  NodeId id_;
  WindowTable windows_;
  /// Held across each dispatch: once a setter returns, the old handler is
  /// not running — the detach guarantee rdmc::Node's destructor relies on.
  util::Mutex handler_mutex_;
  std::function<void(const Completion&)> completion_handler_
      RDMC_GUARDED_BY(handler_mutex_);
  std::function<void(NodeId, std::span<const std::byte>)> oob_handler_
      RDMC_GUARDED_BY(handler_mutex_);
  std::atomic<CompletionMode> mode_{CompletionMode::kHybrid};
  std::atomic<bool> in_dispatch_{false};

  util::Mutex queue_mutex_;
  util::CondVar cv_;
  std::deque<Event> queue_ RDMC_GUARDED_BY(queue_mutex_);
  bool stopping_ RDMC_GUARDED_BY(queue_mutex_) = false;
  bool handling_ RDMC_GUARDED_BY(queue_mutex_) = false;
  std::atomic<std::int64_t> slow_delay_ns_{0};
  std::atomic<std::int64_t> slow_until_{0};  // steady_clock epoch ns; 0=off
  std::thread thread_;
};

class RcConnection;

/// One side of an RcConnection. Every post_* runs the shared checks and
/// the connection state machine under the connection's lock.
class RcQueuePair final : public QueuePair {
 public:
  RcQueuePair(QpId id, NodeId self, NodeId peer, RcConnection& conn)
      : QueuePair(id, peer), self_(self), conn_(conn) {}

  NodeId self() const { return self_; }

  PostResult post_send(MemoryView buf, std::uint64_t wr_id,
                       std::uint32_t immediate) override;
  PostResult post_recv(MemoryView buf, std::uint64_t wr_id) override;
  PostResult post_write_imm(std::uint32_t immediate,
                            std::uint64_t wr_id) override;
  PostResult post_window_write(std::uint32_t window_id, std::uint64_t offset,
                               MemoryView local, std::uint32_t immediate,
                               std::uint64_t wr_id, bool signaled) override;
  PostResult post_send_ud(MemoryView buf, std::uint64_t wr_id,
                          std::uint32_t immediate) override;
  PostResult post_recv_ud(MemoryView buf, std::uint64_t wr_id) override;
  void close() override;

 private:
  friend class RcConnection;
  NodeId self_;
  RcConnection& conn_;
  /// Guarded by conn_.mutex_ (RcConnection is incomplete here, so the
  /// attribute cannot name it; every access holds it).
  bool closed_ = false;
};

/// One RC connection between two nodes, with its UD side channel: two QP
/// sides and two directions, each a send FIFO matched against the peer's
/// receive FIFO. The state machine — FIFO order, the head-of-line rule,
/// head completion, flush, close fencing and UD placement — lives here; a
/// subclass is the transport and decides how the head's bytes move and
/// when each completion is stamped.
class RcConnection {
 public:
  RcConnection(DatagramEngine& datagrams, QpId qp_a, QpId qp_b, NodeId a,
               NodeId b);
  virtual ~RcConnection() = default;
  RcConnection(const RcConnection&) = delete;
  RcConnection& operator=(const RcConnection&) = delete;

  RcQueuePair* side_for(NodeId node) {
    return node == side_a_.self() ? &side_a_ : &side_b_;
  }

  /// Break the connection (fault injection, or a connect to a crashed
  /// node): every posted send, receive and UD receive flushes, then each
  /// side that is not closed gets one kDisconnect. No-op once broken.
  void sever() RDMC_EXCLUDES(mutex_);

 protected:
  struct PendingSend {
    MemoryView buf;
    std::uint64_t wr_id = 0;
    std::uint32_t immediate = 0;
    double posted_at = 0.0;  // when the post takes effect (charge_post)
    bool is_window_write = false;
    bool signaled = true;
    std::uint32_t window_id = 0;
    std::uint64_t window_offset = 0;
  };
  /// Sends from `from`, matched against the receives `to` posted. UD
  /// receives are a FIFO of their own: a datagram never consumes an RC
  /// receive, nor a send a UD one.
  struct Direction {
    RcQueuePair* from;
    RcQueuePair* to;
    std::deque<PendingSend> sends;
    std::deque<PostedRecv> recvs;
    std::deque<PostedRecv> ud_recvs;
    bool in_flight = false;      // the head is being moved
    std::uint64_t transfer = 0;  // the transport's handle on it, 0 = none
  };

  // -- Transport interface. The defaults describe a transport that takes
  // no time.

  /// Software cost of a post (a send when `send`) on `node`; returns the
  /// instant the post takes effect.
  virtual double charge_post(NodeId /*node*/, bool /*send*/) { return 0.0; }
  /// Move the head of `dir` (in_flight is set). The transport calls
  /// finish_head under mutex_ when the bytes have arrived: before
  /// returning, or later from its own event.
  virtual void start_head(Direction& dir) RDMC_REQUIRES(mutex_) = 0;
  /// Hand `c` to `node`'s completion queue; `t` is when the NIC raised it.
  virtual void deliver(NodeId node, const Completion& c, double t) = 0;
  /// When bytes that finished leaving `src` at `t` have reached `dst`.
  virtual double arrival(NodeId /*src*/, NodeId /*dst*/, double t) const {
    return t;
  }
  /// When a write-with-immediate posted at `t` reaches `dst`.
  virtual double write_imm_arrival(NodeId /*src*/, NodeId /*dst*/,
                                   double t) const {
    return t;
  }
  /// Put the datagrams of one post_send_ud, effective at `t`, on the wire;
  /// each arrival calls place_ud. Returns when the sender's NIC is done.
  virtual double send_datagrams(RcQueuePair& from, MemoryView buf,
                                std::uint32_t immediate, double t)
      RDMC_REQUIRES(mutex_) = 0;
  /// The transport's clock: completion and trace-span times.
  virtual double now() const = 0;
  virtual WindowTable& windows(NodeId node) = 0;
  /// The connection is breaking: forget the head transfer of `dir`.
  virtual void abort_transfer(Direction& /*dir*/) {}
  virtual void on_break() {}

  Direction& outgoing(const RcQueuePair& qp) RDMC_REQUIRES(mutex_) {
    return &qp == &side_a_ ? a_to_b_ : b_to_a_;
  }
  Direction& incoming(const RcQueuePair& qp) RDMC_REQUIRES(mutex_) {
    return &qp == &side_a_ ? b_to_a_ : a_to_b_;
  }

  /// Open the trace span of the head transfer of `dir`, at `t`.
  void trace_begin(const Direction& dir, double t) RDMC_REQUIRES(mutex_);
  /// The head of `dir` has arrived: place it, complete it, and break the
  /// connection on a too-small receive or an out-of-bounds window write.
  void finish_head(Direction& dir) RDMC_REQUIRES(mutex_);
  /// Start (or, toward a closed receiver, discard) the sends of `dir` that
  /// the head-of-line rule lets go.
  void pump(Direction& dir) RDMC_REQUIRES(mutex_);
  /// A datagram of `dir` arrived at `t`; true if a UD receive took it.
  bool place_ud(Direction& dir, MemoryView datagram, std::uint32_t immediate,
                double t) RDMC_REQUIRES(mutex_);

  util::Mutex mutex_;
  DatagramEngine& datagrams_;
  bool broken_ RDMC_GUARDED_BY(mutex_) = false;

 private:
  friend class RcQueuePair;

  void enqueue(const RcQueuePair& from, const PendingSend& send)
      RDMC_REQUIRES(mutex_);
  void complete_unread(const RcQueuePair& from, const PendingSend& send,
                       double t);
  void flush() RDMC_REQUIRES(mutex_);

  RcQueuePair side_a_;
  RcQueuePair side_b_;
  Direction a_to_b_ RDMC_GUARDED_BY(mutex_);
  Direction b_to_a_ RDMC_GUARDED_BY(mutex_);
};

/// The RC connections of one fabric, keyed by node pair and channel, and
/// the crashed nodes that make a new connection born broken. Not locked: a
/// threaded fabric guards it with its own mutex.
class RcConnectionTable {
 public:
  /// The connection between `a` and `b` on `channel`, built on first use by
  /// `make(qp_lo, qp_hi, lo, hi)`. A connection to a crashed node is
  /// severed at once rather than left to hang.
  template <class Make>
  RcConnection& connect(NodeId a, NodeId b, std::uint32_t channel,
                        Make&& make) {
    const NodeId lo = std::min(a, b);
    const NodeId hi = std::max(a, b);
    auto& conn = connections_[std::make_tuple(lo, hi, channel)];
    if (!conn) {
      conn = make(next_qp_id_, next_qp_id_ + 1, lo, hi);
      next_qp_id_ += 2;
    }
    if (crashed(lo) || crashed(hi)) conn->sever();
    return *conn;
  }

  /// Sever every connection between `a` and `b`.
  void break_link(NodeId a, NodeId b);
  /// Mark `node` crashed and sever all its connections. False if it had
  /// crashed already.
  bool crash_node(NodeId node);
  bool crashed(NodeId node) const { return crashed_.contains(node); }

 private:
  std::map<std::tuple<NodeId, NodeId, std::uint32_t>,
           std::unique_ptr<RcConnection>>
      connections_;
  std::set<NodeId> crashed_;
  QpId next_qp_id_ = 1;
};

}  // namespace rdmc::fabric
