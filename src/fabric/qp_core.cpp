#include "fabric/qp_core.hpp"

#include <cassert>
#include <chrono>
#include <cstring>

#include "obs/stall.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace rdmc::fabric {

std::optional<PostedRecv> place_datagram(bool open,
                                         std::deque<PostedRecv>& ud_recvs,
                                         MemoryView datagram,
                                         DatagramEngine& engine) {
  if (!open || ud_recvs.empty() || ud_recvs.front().buf.size < datagram.size) {
    engine.count_no_recv();
    return std::nullopt;
  }
  const PostedRecv recv = ud_recvs.front();
  ud_recvs.pop_front();
  if (recv.buf.data != nullptr && datagram.data != nullptr &&
      datagram.size > 0)
    std::memcpy(recv.buf.data, datagram.data, datagram.size);
  engine.count_delivered();
  return recv;
}

// ---------------------------------------------------------------------------
// WindowTable
// ---------------------------------------------------------------------------

void WindowTable::add(std::uint32_t id, MemoryView region) {
  util::MutexLock lock(mutex_);
  windows_[id] = region;
}

void WindowTable::remove(std::uint32_t id) {
  util::MutexLock lock(mutex_);
  windows_.erase(id);
}

WindowTable::Write WindowTable::write(std::uint32_t id, std::uint64_t offset,
                                      MemoryView src) {
  util::MutexLock lock(mutex_);
  auto it = windows_.find(id);
  if (it == windows_.end()) return Write::kUnknown;
  const MemoryView window = it->second;
  if (window.size < src.size || offset > window.size - src.size)
    return Write::kOutOfBounds;
  if (window.data != nullptr && src.data != nullptr && src.size > 0)
    std::memcpy(window.data + offset, src.data, src.size);
  return Write::kDone;
}

// ---------------------------------------------------------------------------
// ThreadedEndpoint
// ---------------------------------------------------------------------------

ThreadedEndpoint::ThreadedEndpoint(NodeId id) : id_(id) {
  thread_ = std::thread([this] { run(); });
}

ThreadedEndpoint::~ThreadedEndpoint() { stop(); }

void ThreadedEndpoint::set_completion_handler(
    std::function<void(const Completion&)> handler) {
  util::MutexLock lock(handler_mutex_);
  completion_handler_ = std::move(handler);
}

void ThreadedEndpoint::set_oob_handler(
    std::function<void(NodeId, std::span<const std::byte>)> handler) {
  util::MutexLock lock(handler_mutex_);
  oob_handler_ = std::move(handler);
}

void ThreadedEndpoint::push(Event event) {
  {
    util::MutexLock lock(queue_mutex_);
    if (stopping_) return;
    queue_.push_back(std::move(event));
  }
  cv_.notify_one();
}

bool ThreadedEndpoint::begin_stop() {
  {
    util::MutexLock lock(queue_mutex_);
    if (stopping_) return false;
    stopping_ = true;
  }
  cv_.notify_all();
  return true;
}

void ThreadedEndpoint::join() {
  if (thread_.joinable()) thread_.join();
}

std::pair<std::size_t, bool> ThreadedEndpoint::queue_state() {
  util::MutexLock lock(queue_mutex_);
  return {queue_.size(), handling_};
}

bool ThreadedEndpoint::slow(double factor, double duration_s) {
  if (factor <= 1.0 || duration_s <= 0.0) return false;
  const auto delay_ns = static_cast<std::int64_t>((factor - 1.0) * 10e3);
  const auto until = (std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(duration_s)))
                         .time_since_epoch()
                         .count();
  slow_delay_ns_.store(delay_ns, std::memory_order_relaxed);
  slow_until_.store(until, std::memory_order_relaxed);
  return true;
}

void ThreadedEndpoint::run() {
  util::MutexLock lock(queue_mutex_);
  while (true) {
    // Hybrid mode in the real system polls for 50 ms after each event
    // before arming interrupts (§4.2); in-process the distinction is a
    // spin-vs-wait choice with identical semantics.
    while (!(stopping_ || !queue_.empty())) cv_.wait(lock);
    if (stopping_ && queue_.empty()) return;
    while (!queue_.empty()) {
      Event event = std::move(queue_.front());
      queue_.pop_front();
      handling_ = true;
      lock.unlock();
      slow_dispatch_delay();
      dispatch(event);
      lock.lock();
      handling_ = false;
    }
  }
}

void ThreadedEndpoint::slow_dispatch_delay() {
  const auto until = slow_until_.load(std::memory_order_relaxed);
  if (until == 0) return;
  const auto now =
      std::chrono::steady_clock::now().time_since_epoch().count();
  if (now >= until) {
    slow_until_.store(0, std::memory_order_relaxed);
    return;
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(
      slow_delay_ns_.load(std::memory_order_relaxed)));
}

void ThreadedEndpoint::dispatch(const Event& event) {
  util::MutexLock lock(handler_mutex_);
  // At most one handler invocation per node at a time, even while fault
  // injection races with posts.
  assert(!in_dispatch_.exchange(true, std::memory_order_relaxed));
  if (const auto* c = std::get_if<Completion>(&event)) {
    if (completion_handler_) completion_handler_(*c);
  } else {
    const auto& msg = std::get<OobMsg>(event);
    if (oob_handler_)
      oob_handler_(msg.from, std::span<const std::byte>(msg.payload));
  }
  in_dispatch_.store(false, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// RcQueuePair: the posts, under the connection lock.
// ---------------------------------------------------------------------------

PostResult RcQueuePair::post_send(MemoryView buf, std::uint64_t wr_id,
                                  std::uint32_t immediate) {
  util::MutexLock lock(conn_.mutex_);
  const PostResult r = check_post(conn_.broken_ || broken(), buf);
  if (!ok(r)) return r;
  conn_.enqueue(*this, {buf, wr_id, immediate, conn_.charge_post(self_, true)});
  return PostResult::kOk;
}

PostResult RcQueuePair::post_window_write(std::uint32_t window_id,
                                          std::uint64_t offset,
                                          MemoryView local,
                                          std::uint32_t immediate,
                                          std::uint64_t wr_id,
                                          bool signaled) {
  util::MutexLock lock(conn_.mutex_);
  const PostResult r =
      check_window_post(conn_.broken_ || broken(), local, offset);
  if (!ok(r)) return r;
  conn_.enqueue(*this, {local, wr_id, immediate,
                        conn_.charge_post(self_, true), true, signaled,
                        window_id, offset});
  return PostResult::kOk;
}

PostResult RcQueuePair::post_recv(MemoryView buf, std::uint64_t wr_id) {
  util::MutexLock lock(conn_.mutex_);
  const PostResult r = check_post(conn_.broken_ || broken(), buf);
  if (!ok(r)) return r;
  conn_.charge_post(self_, false);
  auto& dir = conn_.incoming(*this);
  dir.recvs.push_back({buf, wr_id});
  conn_.pump(dir);
  return PostResult::kOk;
}

PostResult RcQueuePair::post_recv_ud(MemoryView buf, std::uint64_t wr_id) {
  util::MutexLock lock(conn_.mutex_);
  const PostResult r = check_post(conn_.broken_ || broken(), buf);
  if (!ok(r)) return r;
  conn_.charge_post(self_, false);
  conn_.incoming(*this).ud_recvs.push_back({buf, wr_id});
  return PostResult::kOk;
}

PostResult RcQueuePair::post_write_imm(std::uint32_t immediate,
                                       std::uint64_t wr_id) {
  util::MutexLock lock(conn_.mutex_);
  const PostResult r = check_post(conn_.broken_ || broken(), MemoryView{});
  if (!ok(r)) return r;
  // No payload and no receive consumed: both ends complete without
  // joining the send FIFO.
  const double t = conn_.charge_post(self_, true);
  conn_.deliver(self_,
                Completion{wr_id, WcOpcode::kWriteImm, WcStatus::kSuccess, 0,
                           immediate, id_, peer_},
                t);
  const RcQueuePair& other = *conn_.outgoing(*this).to;
  conn_.deliver(peer_,
                Completion{0, WcOpcode::kRecvWriteImm, WcStatus::kSuccess, 0,
                           immediate, other.id(), other.peer()},
                conn_.write_imm_arrival(self_, peer_, t));
  return PostResult::kOk;
}

PostResult RcQueuePair::post_send_ud(MemoryView buf, std::uint64_t wr_id,
                                     std::uint32_t immediate) {
  util::MutexLock lock(conn_.mutex_);
  const PostResult r = check_post(conn_.broken_ || broken(), buf);
  if (!ok(r)) return r;
  const double done = conn_.send_datagrams(
      *this, buf, immediate, conn_.charge_post(self_, true));
  // Fire-and-forget: the sender completes once its NIC is done with the
  // buffer, whatever the fault profile decided.
  conn_.deliver(self_,
                Completion{wr_id, WcOpcode::kSendUd, WcStatus::kSuccess,
                           static_cast<std::uint32_t>(buf.size), immediate,
                           id_, peer_},
                done);
  return PostResult::kOk;
}

void RcQueuePair::close() {
  util::MutexLock lock(conn_.mutex_);
  closed_ = true;
  mark_broken();
  // Revoke our posted receives (they point at memory about to be freed);
  // sends queued toward us are discarded.
  auto& in = conn_.incoming(*this);
  in.recvs.clear();
  in.ud_recvs.clear();
  conn_.pump(in);
}

// ---------------------------------------------------------------------------
// RcConnection: the state machine.
// ---------------------------------------------------------------------------

RcConnection::RcConnection(DatagramEngine& datagrams, QpId qp_a, QpId qp_b,
                           NodeId a, NodeId b)
    : datagrams_(datagrams),
      side_a_(qp_a, a, b, *this),
      side_b_(qp_b, b, a, *this),
      a_to_b_{&side_a_, &side_b_, {}, {}, {}},
      b_to_a_{&side_b_, &side_a_, {}, {}, {}} {}

void RcConnection::sever() {
  util::MutexLock lock(mutex_);
  if (!broken_) flush();
}

void RcConnection::enqueue(const RcQueuePair& from, const PendingSend& send) {
  auto& dir = outgoing(from);
  dir.sends.push_back(send);
  pump(dir);
}

void RcConnection::pump(Direction& dir) {
  while (!broken_ && !dir.in_flight && !dir.sends.empty()) {
    if (dir.to->closed_) {
      // The receiver is gone: the send "succeeds" with its bytes dropped,
      // as after a remote destroy-QP during teardown.
      const PendingSend send = dir.sends.front();
      dir.sends.pop_front();
      complete_unread(*dir.from, send, std::max(now(), send.posted_at));
      continue;
    }
    // Window writes need no posted receive; two-sided sends do.
    if (!dir.sends.front().is_window_write && dir.recvs.empty()) return;
    dir.in_flight = true;
    start_head(dir);
  }
}

void RcConnection::complete_unread(const RcQueuePair& from,
                                   const PendingSend& send, double t) {
  if (send.is_window_write && !send.signaled) return;
  deliver(from.self_,
          Completion{send.wr_id,
                     send.is_window_write ? WcOpcode::kWindowWrite
                                          : WcOpcode::kSend,
                     WcStatus::kSuccess,
                     static_cast<std::uint32_t>(send.buf.size),
                     send.immediate, from.id(), from.peer()},
          t);
}

void RcConnection::trace_begin(const Direction& dir, double t) {
  if (auto* tr = obs::tracer()) {
    const PendingSend& s = dir.sends.front();
    const RcQueuePair& from = *dir.from;
    tr->begin(obs::Cat::kFabric, s.is_window_write ? "xferw" : "xfer",
              from.self_, obs::xfer_span_id(from.id(), s.wr_id), t,
              "dst,bytes,qp,wr", from.peer(), s.buf.size, from.id(),
              s.wr_id);
  }
}

void RcConnection::finish_head(Direction& dir) {
  const double t = now();
  const PendingSend send = dir.sends.front();
  dir.sends.pop_front();
  dir.in_flight = false;
  RcQueuePair& from = *dir.from;
  RcQueuePair& to = *dir.to;
  // The span closes once the bytes have landed, so the stall analysis
  // counts the copy as transfer time.
  auto trace_end = [&] {
    if (auto* tr = obs::tracer())
      tr->end(obs::Cat::kFabric, send.is_window_write ? "xferw" : "xfer",
              from.self_, obs::xfer_span_id(from.id(), send.wr_id), now(),
              "qp,wr", from.id(), send.wr_id);
  };
  const auto len = static_cast<std::uint32_t>(send.buf.size);

  if (to.closed_) {
    // Receiver destroyed mid-flight: the bytes are discarded.
    trace_end();
    complete_unread(from, send, t);
    return;
  }

  if (send.is_window_write) {
    const auto placed =
        windows(to.self_).write(send.window_id, send.window_offset, send.buf);
    trace_end();
    if (placed == WindowTable::Write::kOutOfBounds) {
      RDMC_LOG_ERROR("fabric",
                     "window write out of bounds (win %u, off %llu, len "
                     "%zu), breaking QP",
                     send.window_id,
                     static_cast<unsigned long long>(send.window_offset),
                     send.buf.size);
      flush();
      return;
    }
    // A write to a withdrawn window is dropped at the target; the issuer
    // still sees its completion.
    if (send.signaled)
      deliver(from.self_,
              Completion{send.wr_id, WcOpcode::kWindowWrite,
                         WcStatus::kSuccess, len, send.immediate, from.id(),
                         from.peer()},
              t);
    if (placed == WindowTable::Write::kDone)
      deliver(to.self_,
              Completion{send.window_offset, WcOpcode::kRecvWindowWrite,
                         WcStatus::kSuccess, len, send.immediate, to.id(),
                         to.peer()},
              arrival(from.self_, to.self_, t));
    return;
  }

  const PostedRecv recv = dir.recvs.front();
  dir.recvs.pop_front();
  Completion send_c{send.wr_id, WcOpcode::kSend, WcStatus::kSuccess, len,
                    send.immediate, from.id(), from.peer()};
  Completion recv_c{recv.wr_id, WcOpcode::kRecv, WcStatus::kSuccess, len,
                    send.immediate, to.id(), to.peer()};
  if (send.buf.size > recv.buf.size) {
    // RC semantics: a receive buffer too small is a fatal QP error.
    RDMC_LOG_ERROR("fabric", "recv buffer too small (%zu < %zu), breaking QP",
                   recv.buf.size, send.buf.size);
    send_c.status = recv_c.status = WcStatus::kError;
    broken_ = true;
  } else if (send.buf.data != nullptr && recv.buf.data != nullptr &&
             send.buf.size > 0) {
    std::memcpy(recv.buf.data, send.buf.data, send.buf.size);
  }
  trace_end();
  // The sender completes when its last byte leaves; the receiver once the
  // bytes have arrived.
  deliver(from.self_, send_c, t);
  deliver(to.self_, recv_c, arrival(from.self_, to.self_, t));
  if (broken_) flush();
}

bool RcConnection::place_ud(Direction& dir, MemoryView datagram,
                            std::uint32_t immediate, double t) {
  const RcQueuePair& to = *dir.to;
  const auto recv = place_datagram(!broken_ && !to.closed_, dir.ud_recvs,
                                   datagram, datagrams_);
  if (recv)
    deliver(to.self_,
            Completion{recv->wr_id, WcOpcode::kRecvUd, WcStatus::kSuccess,
                       static_cast<std::uint32_t>(datagram.size), immediate,
                       to.id(), to.peer()},
            t);
  return recv.has_value();
}

void RcConnection::flush() {
  broken_ = true;
  side_a_.mark_broken();
  side_b_.mark_broken();
  on_break();
  const double t = now();
  for (Direction* dir : {&a_to_b_, &b_to_a_}) {
    abort_transfer(*dir);
    dir->in_flight = false;
    const RcQueuePair& from = *dir->from;
    const RcQueuePair& to = *dir->to;
    if (!from.closed_)
      for (const auto& s : dir->sends)
        deliver(from.self_,
                Completion{s.wr_id, WcOpcode::kSend, WcStatus::kFlushed, 0,
                           0, from.id(), from.peer()},
                t);
    dir->sends.clear();
    flush_receives(dir->recvs, dir->ud_recvs, to, to.closed_,
                   [&](const Completion& c) { deliver(to.self_, c, t); });
  }
  for (const RcQueuePair* side : {&side_a_, &side_b_})
    if (!side->closed_) deliver(side->self_, disconnect_of(*side), t);
}

// ---------------------------------------------------------------------------
// RcConnectionTable
// ---------------------------------------------------------------------------

void RcConnectionTable::break_link(NodeId a, NodeId b) {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  for (auto& [key, conn] : connections_)
    if (std::get<0>(key) == lo && std::get<1>(key) == hi) conn->sever();
}

bool RcConnectionTable::crash_node(NodeId node) {
  const bool first = crashed_.insert(node).second;
  for (auto& [key, conn] : connections_)
    if (std::get<0>(key) == node || std::get<1>(key) == node) conn->sever();
  return first;
}

}  // namespace rdmc::fabric
