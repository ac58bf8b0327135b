#include "obs/stall.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <utility>

namespace rdmc::obs {

namespace {

constexpr double kEps = 1e-15;

bool name_is(const TraceEvent& e, const char* name) {
  return std::strcmp(e.name, name) == 0;
}

bool group_of_id(std::uint64_t id, std::int32_t group) {
  return (id >> 48) ==
         static_cast<std::uint64_t>(static_cast<std::uint16_t>(group));
}

struct PostInfo {
  double ts = 0.0;
  std::uint64_t qp = 0;
  std::uint64_t wr = 0;
  bool valid = false;
};

struct XferSpan {
  double begin = 0.0;
  double end = 0.0;
  bool has_begin = false;
  bool has_end = false;
};

enum class Cls : std::uint8_t { kTransfer, kWait, kSoftware };

struct Seg {
  double lo = 0.0;
  double hi = 0.0;
  Cls cls = Cls::kWait;
  std::uint32_t src = 0;  // transfer: link endpoints; others: owner node
  std::uint32_t dst = 0;
};

struct Window {
  double lo = 0.0;
  double hi = 1e300;  // still active at trace end
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// Indexes over one group's trace (single message analyzed at a time).
struct Index {
  double msg_start = 0.0;
  bool have_start = false;
  std::map<std::uint32_t, double> msg_done;  // node -> delivery ts
  // (node, block) -> arrival ts / source of the arrival.
  std::map<std::pair<std::uint32_t, std::uint64_t>, double> recv_ts;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> recv_src;
  // (src, block, dst) -> post / send-completion info.
  std::map<std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>, PostInfo>
      post;
  std::map<std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>, double>
      send_done;
  // Sender-side (qp, wr) -> wire span.
  std::map<std::pair<std::uint64_t, std::uint64_t>, XferSpan> xfer;
  std::vector<Window> degrades;
  std::vector<Window> slows;
  std::vector<Window> recoveries;
};

Index build_index(const std::vector<TraceEvent>& events, std::int32_t group,
                  std::uint32_t root, std::uint64_t seq) {
  Index ix;
  const std::uint64_t msg_id = msg_span_id(group, seq);
  std::map<std::uint64_t, std::size_t> open_degrades, open_slows,
      open_recoveries;
  // Nodes between their own begin and end of this message. Block numbers
  // and work-request ids restart with every message, so block, completion
  // and wire events count only while their node works on this one — in
  // record order, which on every fabric follows each node's causality.
  std::set<std::uint32_t> active;
  for (const TraceEvent& e : events) {
    switch (e.cat) {
      case Cat::kCore: {
        if (name_is(e, "msg")) {
          if (e.id != msg_id) break;
          if (e.phase == Phase::kBegin) {
            active.insert(e.node);
            if (e.node == root) {
              ix.msg_start = e.ts;
              ix.have_start = true;
            }
          } else if (e.phase == Phase::kEnd) {
            ix.msg_done[e.node] = e.ts;
            active.erase(e.node);
          }
        } else if (!active.count(e.node)) {
          break;
        } else if (name_is(e, "block")) {
          if (!group_of_id(e.id, group)) break;
          if (e.phase == Phase::kBegin) {
            // Sender posted block a[0] toward a[1] on qp a[2], wr a[3].
            ix.post[{e.node, e.a[0], static_cast<std::uint32_t>(e.a[1])}] =
                PostInfo{e.ts, e.a[2], e.a[3], true};
          } else if (e.phase == Phase::kEnd) {
            // Receiver got block a[0] from a[1].
            ix.recv_ts[{e.node, e.a[0]}] = e.ts;
            ix.recv_src[{e.node, e.a[0]}] =
                static_cast<std::uint32_t>(e.a[1]);
          }
        } else if (name_is(e, "send.done")) {
          if (!group_of_id(e.id, group)) break;
          ix.send_done[{e.node, e.a[0],
                        static_cast<std::uint32_t>(e.a[1])}] = e.ts;
        }
        break;
      }
      case Cat::kFabric: {
        if (name_is(e, "xfer")) {
          if (!active.count(e.node)) break;
          if (e.phase == Phase::kBegin) {
            XferSpan& s = ix.xfer[{e.a[2], e.a[3]}];
            s.begin = e.ts;
            s.has_begin = true;
          } else if (e.phase == Phase::kEnd) {
            XferSpan& s = ix.xfer[{e.a[0], e.a[1]}];
            s.end = e.ts;
            s.has_end = true;
          }
        } else if (name_is(e, "fault.degrade")) {
          if (e.phase == Phase::kBegin) {
            open_degrades[e.id] = ix.degrades.size();
            ix.degrades.push_back(
                Window{e.ts, 1e300, static_cast<std::uint32_t>(e.a[0]),
                       static_cast<std::uint32_t>(e.a[1])});
          } else if (e.phase == Phase::kEnd) {
            auto it = open_degrades.find(e.id);
            if (it != open_degrades.end()) {
              ix.degrades[it->second].hi = e.ts;
              open_degrades.erase(it);
            }
          }
        } else if (name_is(e, "fault.slow")) {
          if (e.phase == Phase::kBegin) {
            open_slows[e.id] = ix.slows.size();
            ix.slows.push_back(Window{
                e.ts, 1e300, static_cast<std::uint32_t>(e.a[0]), 0});
          } else if (e.phase == Phase::kEnd) {
            auto it = open_slows.find(e.id);
            if (it != open_slows.end()) {
              ix.slows[it->second].hi = e.ts;
              open_slows.erase(it);
            }
          }
        }
        break;
      }
      case Cat::kRecovery: {
        // "epoch" spans cover whole group lifetimes (visualization); only
        // the failure-to-reform "recovery" windows reclassify time.
        if (name_is(e, "recovery")) {
          if (e.phase == Phase::kBegin) {
            open_recoveries[e.id] = ix.recoveries.size();
            ix.recoveries.push_back(Window{e.ts, 1e300, 0, 0});
          } else if (e.phase == Phase::kEnd) {
            auto it = open_recoveries.find(e.id);
            if (it != open_recoveries.end()) {
              ix.recoveries[it->second].hi = e.ts;
              open_recoveries.erase(it);
            }
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return ix;
}

/// Total overlap between [lo, hi] and the given windows (windows may
/// overlap each other; overlapping parts are counted once).
double overlap_once(double lo, double hi, std::vector<Window> windows) {
  if (hi <= lo || windows.empty()) return 0.0;
  std::sort(windows.begin(), windows.end(),
            [](const Window& x, const Window& y) { return x.lo < y.lo; });
  double covered = 0.0;
  double cursor = lo;
  for (const Window& w : windows) {
    const double wlo = std::max(w.lo, cursor);
    const double whi = std::min(w.hi, hi);
    if (whi > wlo) {
      covered += whi - wlo;
      cursor = whi;
    }
    if (cursor >= hi) break;
  }
  return covered;
}

/// Attribute one tiled segment into the breakdown, peeling recovery
/// windows first, then applicable injected-fault windows.
void account(StallBreakdown& out, const Seg& seg, const Index& ix) {
  double len = seg.hi - seg.lo;
  if (len <= 0.0) return;
  const double rec = overlap_once(seg.lo, seg.hi, ix.recoveries);
  out.recovery_s += rec;
  len -= rec;
  if (len <= 0.0) return;

  std::vector<Window> applicable;
  if (seg.cls == Cls::kTransfer) {
    for (const Window& w : ix.degrades) {
      const bool same_link = (w.a == seg.src && w.b == seg.dst) ||
                             (w.a == seg.dst && w.b == seg.src);
      if (same_link) applicable.push_back(w);
    }
  } else {
    // wait/software segments owned by a slowed node's software path
    for (const Window& w : ix.slows) {
      if (w.a == seg.src) applicable.push_back(w);
    }
  }
  // Injected overlap is measured on the un-peeled interval; cap by the
  // non-recovery remainder so the classes still sum to the segment length.
  double inj = overlap_once(seg.lo, seg.hi, std::move(applicable));
  inj = std::min(inj, len);
  out.injected_s += inj;
  len -= inj;
  if (len <= 0.0) return;
  switch (seg.cls) {
    case Cls::kTransfer: out.transfer_s += len; break;
    case Cls::kWait: out.wait_s += len; break;
    case Cls::kSoftware: out.software_s += len; break;
  }
}

}  // namespace

MulticastAnalysis analyze_multicast(const std::vector<TraceEvent>& events,
                                    std::int32_t group,
                                    const std::vector<std::uint32_t>& members,
                                    std::size_t seq) {
  MulticastAnalysis analysis;
  if (members.empty()) {
    analysis.warnings.push_back("empty member list");
    return analysis;
  }
  const std::uint32_t root = members.front();
  const Index ix = build_index(events, group, root, seq);
  if (!ix.have_start) {
    analysis.warnings.push_back("no message-start event for the root "
                                "(trace ring too small or wrong group/seq?)");
    return analysis;
  }
  analysis.msg_start = ix.msg_start;
  const double t0 = ix.msg_start;

  for (std::size_t m = 1; m < members.size(); ++m) {
    const std::uint32_t r = members[m];
    StallBreakdown bd;
    bd.node = r;
    auto done_it = ix.msg_done.find(r);
    if (done_it == ix.msg_done.end()) {
      analysis.warnings.push_back("receiver " + std::to_string(r) +
                                  " has no delivery event");
      continue;
    }
    const double t_d = done_it->second;
    bd.latency_s = t_d - t0;

    std::vector<Seg> segments;
    // `cursor` is the tiling frontier: every appended segment ends exactly
    // where the previous one began, so the class sums reproduce latency_s.
    double cursor = t_d;
    auto push = [&](double lo, Cls cls, std::uint32_t src,
                    std::uint32_t dst) {
      lo = std::min(std::max(lo, t0), cursor);
      segments.push_back(Seg{lo, cursor, cls, src, dst});
      cursor = lo;
    };

    // Initial anchor: the last core event at r (a block arrival or one of
    // r's own relay-send completions) is what let finish_message run.
    bool anchor_is_recv = true;
    std::uint64_t anchor_block = 0;
    std::uint32_t anchor_peer = 0;  // recv: source; send.done: destination
    double anchor_ts = -1.0;
    for (const auto& [key, ts] : ix.recv_ts) {
      if (key.first == r && ts <= t_d + kEps && ts > anchor_ts) {
        anchor_ts = ts;
        anchor_is_recv = true;
        anchor_block = key.second;
        anchor_peer = ix.recv_src.at(key);
      }
    }
    for (const auto& [key, ts] : ix.send_done) {
      if (std::get<0>(key) == r && ts <= t_d + kEps && ts > anchor_ts) {
        anchor_ts = ts;
        anchor_is_recv = false;
        anchor_block = std::get<1>(key);
        anchor_peer = std::get<2>(key);
      }
    }
    if (anchor_ts < 0.0) {
      analysis.warnings.push_back("receiver " + std::to_string(r) +
                                  " has no block events");
      push(t0, Cls::kWait, r, r);
      for (const Seg& s : segments) account(bd, s, ix);
      analysis.receivers.push_back(bd);
      continue;
    }

    // Walk the causal chain back to the root's message start. Each hop
    // tiles [avail(block at sender), anchor] with software / transfer /
    // wait segments and then recurses on how the sender got the block.
    std::uint32_t cur = r;
    bool terminated = false;
    while (!terminated) {
      ++bd.hops;
      // Hop endpoints: the block moved send_node -> recv-side observer.
      const std::uint32_t send_node = anchor_is_recv ? anchor_peer : cur;
      const std::uint32_t recv_node = anchor_is_recv ? cur : anchor_peer;
      const auto post_key =
          std::make_tuple(send_node, anchor_block, recv_node);
      auto post_it = ix.post.find(post_key);
      if (post_it == ix.post.end() || !post_it->second.valid) {
        analysis.warnings.push_back(
            "no post event for block " + std::to_string(anchor_block) +
            " hop " + std::to_string(send_node) + "->" +
            std::to_string(recv_node));
        push(t0, Cls::kWait, send_node, recv_node);
        break;
      }
      const PostInfo& post = post_it->second;
      double xs = post.ts, xe = anchor_ts;
      auto xfer_it = ix.xfer.find({post.qp, post.wr});
      if (xfer_it != ix.xfer.end() && xfer_it->second.has_begin &&
          xfer_it->second.has_end) {
        xs = xfer_it->second.begin;
        xe = xfer_it->second.end;
      } else {
        analysis.warnings.push_back(
            "no fabric xfer span for block " + std::to_string(anchor_block) +
            " hop " + std::to_string(send_node) + "->" +
            std::to_string(recv_node));
      }
      // anchor_ts >= xe >= xs >= post.ts by causality; push clamps any
      // floating-point inversions so the tiling stays exact.
      push(xe, Cls::kSoftware, anchor_is_recv ? recv_node : send_node, 0);
      push(xs, Cls::kTransfer, send_node, recv_node);
      push(post.ts, Cls::kWait, send_node, recv_node);

      if (send_node == root) {
        // The root holds every block from the message start.
        push(t0, Cls::kWait, send_node, recv_node);
        terminated = true;
        break;
      }
      auto avail_it = ix.recv_ts.find({send_node, anchor_block});
      if (avail_it == ix.recv_ts.end()) {
        analysis.warnings.push_back(
            "no arrival event for block " + std::to_string(anchor_block) +
            " at relay " + std::to_string(send_node));
        push(t0, Cls::kWait, send_node, recv_node);
        break;
      }
      // Gap between the relay acquiring the block and posting it onward:
      // peer-not-ready (credit) wait.
      push(avail_it->second, Cls::kWait, send_node, recv_node);
      // Continue with how the relay itself received the block.
      cur = send_node;
      anchor_is_recv = true;
      anchor_ts = avail_it->second;
      anchor_peer = ix.recv_src.at({send_node, anchor_block});
    }

    for (const Seg& s : segments) account(bd, s, ix);
    analysis.receivers.push_back(bd);
  }
  return analysis;
}

std::vector<StepRow> step_profile(const std::vector<TraceEvent>& events,
                                  std::int32_t group, std::uint32_t node,
                                  bool sender_side) {
  const Index ix = build_index(events, group, node, 0);
  // Completion cadence: (ts, wire duration) per step.
  std::vector<std::pair<double, double>> steps;
  if (sender_side) {
    for (const auto& [key, ts] : ix.send_done) {
      if (std::get<0>(key) != node) continue;
      const auto post_it = ix.post.find(key);
      double dur = 0.0;
      if (post_it != ix.post.end()) {
        const auto xfer_it =
            ix.xfer.find({post_it->second.qp, post_it->second.wr});
        if (xfer_it != ix.xfer.end() && xfer_it->second.has_begin &&
            xfer_it->second.has_end)
          dur = xfer_it->second.end - xfer_it->second.begin;
      }
      steps.push_back({ts, dur});
    }
  } else {
    for (const auto& [key, ts] : ix.recv_ts) {
      if (key.first != node) continue;
      const std::uint32_t src = ix.recv_src.at(key);
      const auto post_it = ix.post.find({src, key.second, node});
      double dur = 0.0;
      if (post_it != ix.post.end()) {
        const auto xfer_it =
            ix.xfer.find({post_it->second.qp, post_it->second.wr});
        if (xfer_it != ix.xfer.end() && xfer_it->second.has_begin &&
            xfer_it->second.has_end)
          dur = xfer_it->second.end - xfer_it->second.begin;
      }
      steps.push_back({ts, dur});
    }
  }
  std::sort(steps.begin(), steps.end());
  std::vector<StepRow> rows;
  for (std::size_t i = 1; i < steps.size(); ++i) {
    const double gap = steps[i].first - steps[i - 1].first;
    const double transfer = std::min(gap, steps[i].second);
    rows.push_back(StepRow{steps[i].first, transfer * 1e6,
                           (gap - transfer) * 1e6});
  }
  return rows;
}

}  // namespace rdmc::obs
