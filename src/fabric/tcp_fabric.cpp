#include "fabric/tcp_fabric.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/stall.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace rdmc::fabric {

namespace {

constexpr std::uint32_t kFrameMagic = 0x52444D54;  // "RDMT"

enum class FrameType : std::uint8_t {
  kHello = 0,        // first frame on a dialed socket; immediate = src node
  kSend = 1,         // two-sided send (consumes a posted receive)
  kWriteImm = 2,     // one-sided write-with-immediate (no payload)
  kWindowWrite = 3,  // one-sided payload write into a registered window
  kOob = 4,          // out-of-band control mesh
  kSendUd = 5,       // unreliable datagram (consumes a posted UD receive);
                     // impairment decided sender-side, so the wire carries
                     // only surviving datagrams in their final order
};

/// Wire header. Single-architecture deployments assumed (host byte order),
/// as is usual for RDMA-era datacenter protocols; a WAN port would add
/// explicit endianness.
struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  FrameType type = FrameType::kSend;
  std::uint32_t channel = 0;
  std::uint32_t immediate = 0;
  std::uint32_t window_id = 0;
  std::uint64_t offset_or_wrid = 0;
  std::uint64_t length = 0;  // payload bytes following the header
};

bool read_exact(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<std::byte*>(buf);
  while (len > 0) {
    const ssize_t n = ::recv(fd, p, len, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t len) {
  auto* p = static_cast<const std::byte*>(buf);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpQueuePair
// ---------------------------------------------------------------------------

class TcpFabric::TcpQueuePair final : public QueuePair {
 public:
  TcpQueuePair(QpId id, TcpEndpoint& owner, NodeId peer,
               std::uint32_t channel)
      : QueuePair(id, peer), owner_(owner), channel_(channel) {}

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

  TcpEndpoint& owner_;
  std::uint32_t channel_;
  /// Guarded by owner_.state_mutex_ (TcpEndpoint is incomplete here, so the
  /// attribute cannot name it; every access happens under a MutexLock on
  /// owner_.state_mutex_).
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// TcpEndpoint: one locally hosted node.
// ---------------------------------------------------------------------------

class TcpFabric::TcpEndpoint final : public ThreadedEndpoint {
 public:
  TcpEndpoint(TcpFabric& fabric, NodeId id)
      : ThreadedEndpoint(id), fabric_(fabric) {}

  ~TcpEndpoint() override { stop(); }

  void start_listening(const TcpAddress& address);
  TcpAddress listen_address() const { return listen_address_; }

  void send_oob(NodeId to, std::vector<std::byte> payload) override;

  QueuePair* get_or_create_qp(NodeId peer, std::uint32_t channel);
  bool send_frame(NodeId peer, const FrameHeader& header,
                  MemoryView payload);
  void sever_peer(NodeId peer);
  void stop();

 private:
  struct ChannelRx {
    std::deque<PostedRecv> recvs;
    /// Early arrivals (sender raced our post_recv): kernel TCP has the
    /// bytes either way, so we park them here. Bounded.
    std::deque<std::pair<std::vector<std::byte>, std::uint32_t>> pending;
    /// UD receive queue — separate FIFO; a datagram arriving with no
    /// posted UD recv is dropped (counted), never parked: unreliable
    /// datagrams have no early-arrival cushion.
    std::deque<PostedRecv> ud_recvs;
  };

  void accept_loop(int listen_fd);
  void reader_loop(int fd);
  /// Handle one frame from `peer`; false on any protocol/socket error.
  bool handle_frame(int fd, NodeId peer, const FrameHeader& header);
  int dial(NodeId peer) RDMC_REQUIRES(state_mutex_);

  TcpFabric& fabric_;
  TcpAddress listen_address_;
  int listen_fd_ = -1;
  std::thread accept_thread_;

  /// Lock order (DESIGN.md §11): a per-peer write mutex (out_mutexes_) is
  /// acquired *before* state_mutex_ on the sever-on-write-failure path;
  /// send_frame therefore releases state_mutex_ before taking the write
  /// mutex, and nothing acquires a write mutex with state_mutex_ held.
  util::Mutex state_mutex_;
  /// Outgoing sockets (we dial when we first talk to a peer).
  std::map<NodeId, int> out_fds_ RDMC_GUARDED_BY(state_mutex_);
  /// Per-peer write mutexes serialise frames on one socket; the map itself
  /// is guarded, the pointed-to mutexes outlive any unlocked use (entries
  /// are never erased before stop()).
  std::map<NodeId, std::unique_ptr<util::Mutex>> out_mutexes_
      RDMC_GUARDED_BY(state_mutex_);
  /// (peer, channel) -> queue pair.
  std::map<std::pair<NodeId, std::uint32_t>, std::unique_ptr<TcpQueuePair>>
      qps_ RDMC_GUARDED_BY(state_mutex_);
  /// (peer, channel) -> receive state.
  std::map<std::pair<NodeId, std::uint32_t>, ChannelRx> rx_
      RDMC_GUARDED_BY(state_mutex_);
  std::vector<std::thread> reader_threads_ RDMC_GUARDED_BY(state_mutex_);
  std::vector<int> in_fds_ RDMC_GUARDED_BY(state_mutex_);
  std::map<NodeId, bool> severed_ RDMC_GUARDED_BY(state_mutex_);

  friend class TcpFabric;
  friend class TcpQueuePair;
};

void TcpFabric::TcpEndpoint::start_listening(const TcpAddress& address) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  assert(listen_fd_ >= 0);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(address.port);
  ::inet_pton(AF_INET, address.host.c_str(), &addr.sin_addr);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    RDMC_LOG_ERROR("tcpfabric", "node %u: bind %s:%u failed: %s", id(),
                   address.host.c_str(), address.port,
                   std::strerror(errno));
    assert(false && "bind failed");
  }
  ::listen(listen_fd_, 64);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  listen_address_ = {address.host, ntohs(bound.sin_port)};
  // The thread gets the listening socket by value: stop() resets
  // listen_fd_ while it may still be blocked in accept.
  accept_thread_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

void TcpFabric::TcpEndpoint::accept_loop(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // listener closed: shutting down
    set_nodelay(fd);
    util::MutexLock lock(state_mutex_);
    in_fds_.push_back(fd);
    reader_threads_.emplace_back([this, fd] { reader_loop(fd); });
  }
}

void TcpFabric::TcpEndpoint::reader_loop(int fd) {
  // The dialer introduces itself first.
  FrameHeader hello;
  if (!read_exact(fd, &hello, sizeof hello) ||
      hello.magic != kFrameMagic || hello.type != FrameType::kHello) {
    ::close(fd);
    return;
  }
  const NodeId peer = hello.immediate;
  while (true) {
    FrameHeader header;
    if (!read_exact(fd, &header, sizeof header) ||
        header.magic != kFrameMagic) {
      break;
    }
    if (!handle_frame(fd, peer, header)) break;
  }
  sever_peer(peer);
}

bool TcpFabric::TcpEndpoint::handle_frame(int fd, NodeId peer,
                                          const FrameHeader& header) {
  switch (header.type) {
    case FrameType::kSend: {
      auto* qp = static_cast<TcpQueuePair*>(
          get_or_create_qp(peer, header.channel));
      // Drain the payload off the socket first, then match it under the
      // state lock — the lock fences QueuePair::close(), so a posted
      // receive's buffer can never be freed mid-copy.
      std::vector<std::byte> payload(header.length);
      if (!read_exact(fd, payload.data(), header.length)) return false;
      util::MutexLock lock(state_mutex_);
      if (qp->closed_) return true;  // destroyed locally: discard
      ChannelRx& rx = rx_[{peer, header.channel}];
      if (!rx.recvs.empty()) {
        const auto recv = rx.recvs.front();
        rx.recvs.pop_front();
        if (header.length > recv.buf.size) {
          RDMC_LOG_ERROR("tcpfabric", "recv buffer too small (%zu < %llu)",
                         recv.buf.size,
                         static_cast<unsigned long long>(header.length));
          return false;
        }
        if (recv.buf.data != nullptr)
          std::memcpy(recv.buf.data, payload.data(), header.length);
        push(Completion{recv.wr_id, WcOpcode::kRecv, WcStatus::kSuccess,
                        static_cast<std::uint32_t>(header.length),
                        header.immediate, qp->id(), peer});
      } else {
        // Early arrival: park the payload until a receive is posted.
        constexpr std::size_t kMaxPending = 4096;
        if (rx.pending.size() >= kMaxPending) return false;
        rx.pending.emplace_back(std::move(payload), header.immediate);
      }
      return true;
    }
    case FrameType::kSendUd: {
      auto* qp = static_cast<TcpQueuePair*>(
          get_or_create_qp(peer, header.channel));
      std::vector<std::byte> payload(header.length);
      if (!read_exact(fd, payload.data(), header.length)) return false;
      util::MutexLock lock(state_mutex_);
      ChannelRx& rx = rx_[{peer, header.channel}];
      // UD semantics: no posted (or a too-small) UD recv discards the
      // datagram, never the buffer, and never severs anything.
      const auto recv =
          place_datagram(!qp->closed_, rx.ud_recvs,
                         MemoryView{payload.data(), payload.size()},
                         fabric_.datagrams());
      if (recv)
        push(Completion{recv->wr_id, WcOpcode::kRecvUd, WcStatus::kSuccess,
                        static_cast<std::uint32_t>(header.length),
                        header.immediate, qp->id(), peer});
      return true;
    }
    case FrameType::kWriteImm: {
      QueuePair* qp = get_or_create_qp(peer, header.channel);
      push(Completion{header.offset_or_wrid, WcOpcode::kRecvWriteImm,
                      WcStatus::kSuccess, 0, header.immediate, qp->id(),
                      peer});
      return true;
    }
    case FrameType::kWindowWrite: {
      QueuePair* qp = get_or_create_qp(peer, header.channel);
      // Drain the payload off the socket first, then apply it under the
      // window table's lock, which fences unregister_window.
      std::vector<std::byte> payload(header.length);
      if (!read_exact(fd, payload.data(), header.length)) return false;
      const auto placed =
          windows().write(header.window_id, header.offset_or_wrid,
                          MemoryView{payload.data(), payload.size()});
      if (placed == WindowTable::Write::kOutOfBounds) {
        RDMC_LOG_ERROR("tcpfabric", "window write out of bounds");
        return false;
      }
      // Deregistered mid-flight: drop, like DMA after deregistration.
      if (placed == WindowTable::Write::kUnknown) return true;
      push(Completion{header.offset_or_wrid, WcOpcode::kRecvWindowWrite,
                      WcStatus::kSuccess,
                      static_cast<std::uint32_t>(header.length),
                      header.immediate, qp->id(), peer});
      return true;
    }
    case FrameType::kOob: {
      std::vector<std::byte> payload(header.length);
      if (!read_exact(fd, payload.data(), header.length)) return false;
      push(OobMsg{peer, std::move(payload)});
      return true;
    }
    case FrameType::kHello:
      return true;  // redundant hello: ignore
  }
  return false;
}

int TcpFabric::TcpEndpoint::dial(NodeId peer) {
  auto it = out_fds_.find(peer);
  if (it != out_fds_.end()) return it->second;
  if (severed_[peer]) return -1;
  // A crashed peer will never answer; fail fast instead of burning the
  // bootstrap retry window against a dead listener.
  if (fabric_.crashed(peer)) return -1;
  const TcpAddress address = fabric_.addresses_[peer];
  // Retry for a bootstrap window: peers of a distributed deployment come
  // up in arbitrary order (the paper's TCP mesh barriers over the same
  // problem). Connection refused within the window is not a failure.
  int fd = -1;
  for (int attempt = 0; attempt < 200; ++attempt) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(address.port);
    ::inet_pton(AF_INET, address.host.c_str(), &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
        0) {
      break;
    }
    const int saved = errno;
    ::close(fd);
    fd = -1;
    if (saved != ECONNREFUSED && saved != ETIMEDOUT) break;
    ::usleep(50 * 1000);
  }
  if (fd < 0) {
    RDMC_LOG_WARN("tcpfabric", "node %u: dial node %u (%s:%u) failed: %s",
                  id(), peer, address.host.c_str(), address.port,
                  std::strerror(errno));
    return -1;
  }
  set_nodelay(fd);
  FrameHeader hello;
  hello.type = FrameType::kHello;
  hello.immediate = id();
  if (!write_all(fd, &hello, sizeof hello)) {
    ::close(fd);
    return -1;
  }
  out_fds_[peer] = fd;
  out_mutexes_[peer] = std::make_unique<util::Mutex>();
  return fd;
}

bool TcpFabric::TcpEndpoint::send_frame(NodeId peer,
                                        const FrameHeader& header,
                                        MemoryView payload) {
  int fd;
  util::Mutex* write_mutex;
  {
    util::MutexLock lock(state_mutex_);
    fd = dial(peer);
    if (fd < 0) return false;
    write_mutex = out_mutexes_[peer].get();
  }
  util::MutexLock lock(*write_mutex);
  if (!write_all(fd, &header, sizeof header)) {
    sever_peer(peer);
    return false;
  }
  if (header.length > 0) {
    if (payload.data != nullptr) {
      if (!write_all(fd, payload.data, header.length)) {
        sever_peer(peer);
        return false;
      }
    } else {
      // Phantom payload: still honour the wire contract.
      std::byte zeros[4096] = {};
      std::uint64_t left = header.length;
      while (left > 0) {
        const std::size_t chunk =
            std::min<std::uint64_t>(left, sizeof zeros);
        if (!write_all(fd, zeros, chunk)) {
          sever_peer(peer);
          return false;
        }
        left -= chunk;
      }
    }
  }
  return true;
}

QueuePair* TcpFabric::TcpEndpoint::get_or_create_qp(NodeId peer,
                                                    std::uint32_t channel) {
  util::MutexLock lock(state_mutex_);
  auto& slot = qps_[{peer, channel}];
  if (!slot) {
    slot = std::make_unique<TcpQueuePair>(
        fabric_.next_qp_id_.fetch_add(1), *this, peer, channel);
  }
  return slot.get();
}

void TcpFabric::TcpEndpoint::sever_peer(NodeId peer) {
  std::vector<Completion> flushes;
  {
    util::MutexLock lock(state_mutex_);
    if (severed_[peer]) return;
    severed_[peer] = true;
    if (auto it = out_fds_.find(peer); it != out_fds_.end()) {
      ::shutdown(it->second, SHUT_RDWR);
      ::close(it->second);
      out_fds_.erase(it);
    }
    for (auto& [key, qp] : qps_) {
      if (key.first != peer) continue;
      qp->mark_broken();
      auto rx_it = rx_.find(key);
      if (rx_it != rx_.end())
        flush_receives(rx_it->second.recvs, rx_it->second.ud_recvs, *qp,
                       qp->closed_,
                       [&](const Completion& c) { flushes.push_back(c); });
      if (!qp->closed_) flushes.push_back(disconnect_of(*qp));
    }
  }
  for (auto& c : flushes) push(c);
}

void TcpFabric::TcpEndpoint::send_oob(NodeId to,
                                      std::vector<std::byte> payload) {
  if (to == id()) {
    push(OobMsg{id(), std::move(payload)});
    return;
  }
  FrameHeader header;
  header.type = FrameType::kOob;
  header.length = payload.size();
  send_frame(to, header, MemoryView{payload.data(), payload.size()});
}

void TcpFabric::TcpEndpoint::stop() {
  if (!begin_stop()) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    util::MutexLock lock(state_mutex_);
    for (auto& [peer, fd] : out_fds_) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
    out_fds_.clear();
    for (int fd : in_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Joining the accept thread first means no new reader can be spawned;
  // move the vector out under the lock rather than iterating the guarded
  // field unlocked.
  std::vector<std::thread> readers;
  {
    util::MutexLock lock(state_mutex_);
    readers.swap(reader_threads_);
  }
  for (auto& t : readers)
    if (t.joinable()) t.join();
  {
    util::MutexLock lock(state_mutex_);
    for (int fd : in_fds_) ::close(fd);
    in_fds_.clear();
  }
  join();
}

// ---------------------------------------------------------------------------
// TcpQueuePair posts
// ---------------------------------------------------------------------------

void TcpFabric::TcpQueuePair::close() {
  // state_mutex_ fences concurrent frame application; afterwards no
  // transfer touches this QP's posted buffers.
  util::MutexLock lock(owner_.state_mutex_);
  closed_ = true;
  mark_broken();
  auto it = owner_.rx_.find({peer_, channel_});
  if (it != owner_.rx_.end()) {
    it->second.recvs.clear();
    it->second.pending.clear();
    it->second.ud_recvs.clear();
  }
}

PostResult TcpFabric::TcpQueuePair::post_send(MemoryView buf,
                                              std::uint64_t wr_id,
                                              std::uint32_t immediate) {
  if (const PostResult r = check_post(broken(), buf); !ok(r)) return r;
  FrameHeader header;
  header.type = FrameType::kSend;
  header.channel = channel_;
  header.immediate = immediate;
  header.length = buf.size;
  if (auto* tr = obs::tracer())
    tr->begin(obs::Cat::kFabric, "xfer", owner_.id(),
              obs::xfer_span_id(id(), wr_id), obs::wall_seconds(),
              "dst,bytes,qp,wr", peer_, buf.size, id(), wr_id);
  if (!owner_.send_frame(peer_, header, buf)) return PostResult::kQpBroken;
  // TCP semantics: the kernel accepted the bytes; completion now.
  if (auto* tr = obs::tracer())
    tr->end(obs::Cat::kFabric, "xfer", owner_.id(),
            obs::xfer_span_id(id(), wr_id), obs::wall_seconds(), "qp,wr",
            id(), wr_id);
  owner_.push(Completion{wr_id, WcOpcode::kSend, WcStatus::kSuccess,
                         static_cast<std::uint32_t>(buf.size), immediate,
                         id(), peer_});
  return PostResult::kOk;
}

PostResult TcpFabric::TcpQueuePair::post_recv(MemoryView buf,
                                              std::uint64_t wr_id) {
  if (const PostResult r = check_post(broken(), buf); !ok(r)) return r;
  util::MutexLock lock(owner_.state_mutex_);
  auto& rx = owner_.rx_[{peer_, channel_}];
  if (!rx.pending.empty()) {
    auto [payload, immediate] = std::move(rx.pending.front());
    rx.pending.pop_front();
    lock.unlock();
    if (payload.size() > buf.size) {
      RDMC_LOG_ERROR("tcpfabric", "recv buffer too small for early send");
      owner_.sever_peer(peer_);
      return PostResult::kQpBroken;
    }
    if (buf.data != nullptr)
      std::memcpy(buf.data, payload.data(), payload.size());
    owner_.push(Completion{wr_id, WcOpcode::kRecv, WcStatus::kSuccess,
                           static_cast<std::uint32_t>(payload.size()),
                           immediate, id(), peer_});
    return PostResult::kOk;
  }
  rx.recvs.push_back({buf, wr_id});
  return PostResult::kOk;
}

PostResult TcpFabric::TcpQueuePair::post_send_ud(MemoryView buf,
                                                 std::uint64_t wr_id,
                                                 std::uint32_t immediate) {
  if (const PostResult r = check_post(broken(), buf); !ok(r)) return r;
  const auto deliveries =
      owner_.fabric_.datagrams().on_send(owner_.id(), peer_, buf, immediate);
  // Fire-and-forget: completion once the kernel has the surviving bytes
  // (or immediately, when the profile dropped/held the datagram).
  for (const auto& d : deliveries) {
    FrameHeader header;
    header.type = FrameType::kSendUd;
    header.channel = channel_;
    header.immediate = d.immediate;
    header.length = d.view.size;
    // A socket-level failure here is real loss — exactly what UD permits;
    // it never fails the post.
    (void)owner_.send_frame(peer_, header, d.view);
  }
  owner_.push(Completion{wr_id, WcOpcode::kSendUd, WcStatus::kSuccess,
                         static_cast<std::uint32_t>(buf.size), immediate,
                         id(), peer_});
  return PostResult::kOk;
}

PostResult TcpFabric::TcpQueuePair::post_recv_ud(MemoryView buf,
                                                 std::uint64_t wr_id) {
  if (const PostResult r = check_post(broken(), buf); !ok(r)) return r;
  util::MutexLock lock(owner_.state_mutex_);
  owner_.rx_[{peer_, channel_}].ud_recvs.push_back({buf, wr_id});
  return PostResult::kOk;
}

PostResult TcpFabric::TcpQueuePair::post_write_imm(std::uint32_t immediate,
                                                   std::uint64_t wr_id) {
  if (const PostResult r = check_post(broken(), {}); !ok(r)) return r;
  FrameHeader header;
  header.type = FrameType::kWriteImm;
  header.channel = channel_;
  header.immediate = immediate;
  if (!owner_.send_frame(peer_, header, MemoryView{}))
    return PostResult::kQpBroken;
  owner_.push(Completion{wr_id, WcOpcode::kWriteImm, WcStatus::kSuccess, 0,
                         immediate, id(), peer_});
  return PostResult::kOk;
}

PostResult TcpFabric::TcpQueuePair::post_window_write(
    std::uint32_t window_id, std::uint64_t offset, MemoryView local,
    std::uint32_t immediate, std::uint64_t wr_id, bool signaled) {
  if (const PostResult r = check_window_post(broken(), local, offset); !ok(r))
    return r;
  FrameHeader header;
  header.type = FrameType::kWindowWrite;
  header.channel = channel_;
  header.immediate = immediate;
  header.window_id = window_id;
  header.offset_or_wrid = offset;
  header.length = local.size;
  if (!owner_.send_frame(peer_, header, local)) return PostResult::kQpBroken;
  if (signaled) {
    owner_.push(Completion{wr_id, WcOpcode::kWindowWrite,
                           WcStatus::kSuccess,
                           static_cast<std::uint32_t>(local.size), immediate,
                           id(), peer_});
  }
  return PostResult::kOk;
}

// ---------------------------------------------------------------------------
// TcpFabric
// ---------------------------------------------------------------------------

TcpFabric::TcpFabric(std::vector<TcpAddress> addresses,
                     std::vector<NodeId> local_nodes)
    : addresses_(std::move(addresses)) {
  endpoints_.resize(addresses_.size());
  crashed_.resize(addresses_.size(), false);
  for (NodeId node : local_nodes) {
    assert(node < addresses_.size());
    endpoints_[node] = std::make_unique<TcpEndpoint>(*this, node);
    endpoints_[node]->start_listening(addresses_[node]);
    // Resolve ephemeral ports so local peers can dial each other.
    addresses_[node] = endpoints_[node]->listen_address();
  }
}

TcpFabric::~TcpFabric() { stop(); }

void TcpFabric::stop() {
  for (auto& ep : endpoints_)
    if (ep) ep->stop();
}

TcpFabric::TcpEndpoint* TcpFabric::local(NodeId node) const {
  assert(node < endpoints_.size() && endpoints_[node] &&
         "endpoint not hosted by this process");
  return endpoints_[node].get();
}

Endpoint& TcpFabric::endpoint(NodeId node) { return *local(node); }

QueuePair* TcpFabric::connect(NodeId a, NodeId b, std::uint32_t channel) {
  return local(a)->get_or_create_qp(b, channel);
}

void TcpFabric::break_link(NodeId a, NodeId b) {
  if (a < endpoints_.size() && endpoints_[a]) endpoints_[a]->sever_peer(b);
  if (b < endpoints_.size() && endpoints_[b]) endpoints_[b]->sever_peer(a);
}

void TcpFabric::crash_node(NodeId node) {
  {
    util::MutexLock lock(crashed_mutex_);
    if (node < crashed_.size()) crashed_[node] = true;
  }
  // Close everything the node owns; peers discover via EOF/reset, exactly
  // like a real process crash.
  if (node < endpoints_.size() && endpoints_[node])
    endpoints_[node]->stop();
}

bool TcpFabric::degrade_link(NodeId, NodeId, double, double) {
  // Kernel TCP pacing is not injectable from here; accepted and ignored
  // per the FaultInjector contract.
  return false;
}

bool TcpFabric::slow_node(NodeId node, double factor, double duration_s) {
  return node < endpoints_.size() && endpoints_[node] &&
         endpoints_[node]->slow(factor, duration_s);
}

bool TcpFabric::crashed(NodeId node) const {
  util::MutexLock lock(crashed_mutex_);
  return node < crashed_.size() && crashed_[node];
}

TcpAddress TcpFabric::local_address(NodeId node) const {
  return local(node)->listen_address();
}

}  // namespace rdmc::fabric
