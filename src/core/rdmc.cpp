#include "core/rdmc.hpp"

#include <cassert>
#include <cstring>

#include "core/group.hpp"
#include "core/small_group.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace rdmc {

namespace {

/// Out-of-band message header (the role the paper's N x N TCP mesh plays
/// after bootstrap, §2 / §3 item 6). Two kinds share the mesh: failure
/// relays and group-scoped control blobs for layers above RDMC.
struct OobHeader {
  static constexpr std::uint32_t kMagic = 0x52444D43;  // "RDMC"
  enum Type : std::uint32_t { kFailure = 0, kControl = 1 };
  std::uint32_t magic = kMagic;
  std::uint32_t type = kFailure;
  GroupId group = 0;
  NodeId suspect = 0;  // kFailure only
};

std::vector<std::byte> encode(const OobHeader& header,
                              std::span<const std::byte> body = {}) {
  std::vector<std::byte> out(sizeof(OobHeader) + body.size());
  std::memcpy(out.data(), &header, sizeof header);
  if (!body.empty())
    std::memcpy(out.data() + sizeof header, body.data(), body.size());
  return out;
}

bool decode(std::span<const std::byte> payload, OobHeader& header) {
  if (payload.size() < sizeof(OobHeader)) return false;
  std::memcpy(&header, payload.data(), sizeof header);
  return header.magic == OobHeader::kMagic;
}

}  // namespace

Clock steady_clock_seconds() {
  // The real fabrics stamp their transfer spans with obs::wall_seconds();
  // reading the same process-wide origin puts every node's core trace
  // events on that timebase, so stall analysis can line them up.
  // rdmc-lint: allow(wall-clock) this IS the explicit wall-clock factory; deterministic runs inject the simulator clock instead
  return [] { return obs::wall_seconds(); };
}

Node::Node(fabric::Fabric& fabric, NodeId id, Clock clock)
    : fabric_(fabric),
      endpoint_(fabric.endpoint(id)),
      id_(id),
      clock_(clock ? std::move(clock) : steady_clock_seconds()) {
  endpoint_.set_completion_handler(
      [this](const fabric::Completion& c) { on_completion(c); });
  endpoint_.set_oob_handler(
      [this](NodeId from, std::span<const std::byte> payload) {
        on_oob(from, payload);
      });
}

Node::~Node() {
  // Detach from the fabric first: after these return, no completion or OOB
  // handler referencing this Node can still be running (the backends
  // guarantee set_*_handler synchronises with in-flight dispatch).
  endpoint_.set_completion_handler(nullptr);
  endpoint_.set_oob_handler(nullptr);
  std::lock_guard lock(mutex_);
  qp_map_.clear();
  groups_.clear();
  small_groups_.clear();
}

bool Node::create_group(GroupId group, std::vector<NodeId> members,
                        GroupOptions options,
                        IncomingMessageCallback incoming_message,
                        MessageCompletionCallback message_completion,
                        FailureCallback on_failure) {
  if (members.size() < 2 || options.block_size == 0 ||
      options.recv_window == 0)
    return false;
  std::lock_guard lock(mutex_);
  if (groups_.contains(group)) return false;
  auto g = std::make_unique<Group>(*this, group, std::move(members),
                                   options, std::move(incoming_message),
                                   std::move(message_completion),
                                   std::move(on_failure));
  groups_.emplace(group, std::move(g));
  return true;
}

bool Node::destroy_group(GroupId group) {
  std::lock_guard lock(mutex_);
  auto it = groups_.find(group);
  if (it == groups_.end()) return false;
  const bool clean = !it->second->failed();
  retire_qps(it->second.get());
  groups_.erase(it);
  return clean;
}

bool Node::send(GroupId group, std::byte* data, std::size_t size) {
  std::lock_guard lock(mutex_);
  auto it = groups_.find(group);
  if (it == groups_.end()) return false;
  return it->second->send(data, size);
}

bool Node::group_failed(GroupId group) const {
  std::lock_guard lock(mutex_);
  if (auto it = groups_.find(group); it != groups_.end())
    return it->second->failed();
  auto it = small_groups_.find(group);
  return it != small_groups_.end() && it->second->failed();
}

bool Node::create_small_group(
    GroupId group, std::vector<NodeId> members,
    const SmallGroupOptions& options,
    std::function<void(const std::byte*, std::size_t)> deliver,
    std::function<void(std::size_t)> sent, FailureCallback on_failure) {
  if (members.size() < 2 || options.slot_size == 0 ||
      options.ring_depth == 0)
    return false;
  std::lock_guard lock(mutex_);
  if (groups_.contains(group) || small_groups_.contains(group))
    return false;
  auto g = std::make_unique<SmallMessageGroup>(
      *this, group, std::move(members), options, std::move(deliver),
      std::move(sent), std::move(on_failure));
  small_groups_.emplace(group, std::move(g));
  return true;
}

bool Node::send_small(GroupId group, const std::byte* data,
                      std::size_t size) {
  std::lock_guard lock(mutex_);
  auto it = small_groups_.find(group);
  if (it == small_groups_.end()) return false;
  return it->second->send(data, size);
}

bool Node::destroy_small_group(GroupId group) {
  std::lock_guard lock(mutex_);
  auto it = small_groups_.find(group);
  if (it == small_groups_.end()) return false;
  const bool clean = !it->second->failed();
  retire_qps(it->second.get());
  small_groups_.erase(it);
  return clean;
}

const Group* Node::group(GroupId group) const {
  std::lock_guard lock(mutex_);
  auto it = groups_.find(group);
  return it == groups_.end() ? nullptr : it->second.get();
}

void Node::on_completion(const fabric::Completion& c) {
  std::lock_guard lock(mutex_);
  auto it = qp_map_.find(c.qp);
  if (it == qp_map_.end()) {
    // Quarantine: completions for a destroyed group's queue pairs (flushes
    // and disconnects racing the teardown) are dropped, never buffered —
    // they belong to a dead epoch and must not be replayed into whatever
    // group reuses the channel later.
    if (retired_qps_.contains(c.qp)) return;
    // Otherwise an early credit from a member that finished create_group
    // before we did (replayed by register_qp).
    constexpr std::size_t kMaxUnrouted = 65536;
    RDMC_LOG_DEBUG("core",
                   "node %u: buffering unrouted completion qp=%llu op=%d",
                   id_, static_cast<unsigned long long>(c.qp),
                   static_cast<int>(c.opcode));
    if (unrouted_.size() < kMaxUnrouted) unrouted_.push_back(c);
    return;
  }
  it->second.first->on_completion(c, it->second.second);
}

void Node::on_oob(NodeId from, std::span<const std::byte> payload) {
  OobHeader header;
  if (!decode(payload, header)) {
    RDMC_LOG_WARN("core", "node %u: malformed OOB message from %u", id_,
                  from);
    return;
  }
  std::lock_guard lock(mutex_);
  if (header.type == OobHeader::kControl) {
    if (auto it = control_handlers_.find(header.group);
        it != control_handlers_.end() && it->second) {
      it->second(from, payload.subspan(sizeof(OobHeader)));
    }
    return;
  }
  if (auto it = groups_.find(header.group); it != groups_.end()) {
    it->second->on_failure_notice(header.suspect);
    return;
  }
  if (auto it = small_groups_.find(header.group);
      it != small_groups_.end()) {
    it->second->on_failure_notice(header.suspect);
  }
  // Otherwise: group unknown here (yet); ignore.
}

void Node::send_control(GroupId group, NodeId to,
                        std::vector<std::byte> payload) {
  OobHeader header;
  header.type = OobHeader::kControl;
  header.group = group;
  endpoint_.send_oob(to, encode(header, payload));
}

void Node::register_control_handler(
    GroupId group,
    std::function<void(NodeId, std::span<const std::byte>)> handler) {
  std::lock_guard lock(mutex_);
  control_handlers_[group] = std::move(handler);
}

void Node::unregister_control_handler(GroupId group) {
  std::lock_guard lock(mutex_);
  control_handlers_.erase(group);
}

void Node::relay_failure(GroupId group, const std::vector<NodeId>& members,
                         NodeId suspect) {
  OobHeader header;
  header.group = group;
  header.suspect = suspect;
  const auto payload = encode(header);
  for (NodeId member : members) {
    if (member == id_) continue;
    endpoint_.send_oob(member, payload);
  }
}

void Node::retire_qps(QpSink* sink) {
  // rdmc-lint: allow(unordered-iter) partitions entries by sink into a set; per-entry effect is order-independent
  for (auto qp_it = qp_map_.begin(); qp_it != qp_map_.end();) {
    if (qp_it->second.first == sink) {
      retired_qps_.insert(qp_it->first);
      qp_it = qp_map_.erase(qp_it);
    } else {
      ++qp_it;
    }
  }
  std::erase_if(unrouted_, [this](const fabric::Completion& c) {
    return retired_qps_.contains(c.qp);
  });
}

void Node::register_qp(fabric::QpId qp, QpSink* sink,
                       std::size_t pair_index) {
  // Called from Group's constructor, which runs under mutex_ via
  // create_group; the recursive mutex also admits re-entry from callbacks.
  std::lock_guard lock(mutex_);
  qp_map_[qp] = {sink, pair_index};
  // The channel (and thus the QP) may be reused by a re-formed group; from
  // here on its completions belong to the new epoch.
  retired_qps_.erase(qp);
  // Replay completions that raced ahead of this group's creation.
  std::vector<fabric::Completion> replay;
  for (auto it = unrouted_.begin(); it != unrouted_.end();) {
    if (it->qp == qp) {
      replay.push_back(*it);
      it = unrouted_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& c : replay) sink->on_completion(c, pair_index);
}

}  // namespace rdmc
