// The real engine moving real bytes: one RDMC group of four members over
// the threaded MemFabric (one completion thread per member), with payloads
// generated from the run's seed and verified here after every repetition.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>

#include "checks.hpp"
#include "core/group.hpp"
#include "core/rdmc.hpp"
#include "fabric/mem_fabric.hpp"
#include "layers.hpp"
#include "obs/stall.hpp"
#include "obs/trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace rdmc;

constexpr std::size_t kMembers = 4;
constexpr std::uint64_t kLargeBytes = 64ull << 20;
constexpr std::size_t kBlock = std::size_t{1} << 20;
/// Message sequence of one repetition: one small set-up message, kLarge
/// back-to-back large messages, kOneAtATime small messages each sent after
/// the previous one was delivered everywhere, then a burst of kBurst.
constexpr std::size_t kLarge = 3;
constexpr std::size_t kOneAtATime = 64;
constexpr std::size_t kBurst = 256;
constexpr std::size_t kMessages = 1 + kLarge + kOneAtATime + kBurst;
constexpr std::size_t kFirstSmall = 1 + kLarge;
/// A repetition that waits this long for a delivery has hung.
constexpr double kWaitLimitS = 30.0;

bool is_large(std::size_t seq) { return seq >= 1 && seq <= kLarge; }

/// What one receiver was handed, in delivery order.
struct Received {
  double when = 0.0;
  std::byte* data = nullptr;
  std::size_t size = 0;
};

class EngineWorkload final : public Workload {
 public:
  EngineWorkload(std::uint64_t seed, bool traced);
  Rep run_rep() override;
  Metrics run_probes() override;

 private:
  /// Block until every receiver has delivered `count` messages; false on
  /// timeout.
  bool wait_delivered(std::size_t count);

  bool traced_;
  std::vector<std::uint64_t> sizes_;
  std::vector<std::uint64_t> sums_;
  std::vector<std::vector<std::byte>> payloads_;  // root's messages by seq
  /// Receive memory per receiver, touched once up front and reused by
  /// every repetition: large slots, then one slot per small message.
  std::vector<std::vector<std::vector<std::byte>>> large_slots_;
  std::vector<std::vector<std::vector<std::byte>>> small_slots_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::vector<Received>> received_;  // guarded by mutex_
  std::vector<std::size_t> large_used_, small_used_;
  std::vector<std::vector<std::byte>> overflow_;  // guarded by mutex_
};

EngineWorkload::EngineWorkload(std::uint64_t seed, bool traced)
    : traced_(traced) {
  for (std::size_t seq = 0; seq < kMessages; ++seq) {
    const std::uint64_t size =
        is_large(seq) ? kLargeBytes : small_size(seed, seq);
    sizes_.push_back(size);
    payloads_.emplace_back(size);
    fill_payload(payloads_.back(), seed, seq);
    sums_.push_back(checksum(payloads_.back()));
  }
  large_slots_.resize(kMembers);
  small_slots_.resize(kMembers);
  for (std::size_t r = 1; r < kMembers; ++r) {
    for (std::size_t i = 0; i < kLarge; ++i)
      large_slots_[r].emplace_back(kLargeBytes, std::byte{0});
    for (std::size_t i = 0; i < kMessages - kLarge; ++i)
      small_slots_[r].emplace_back(kSmallMaxBytes, std::byte{0});
  }
}

bool EngineWorkload::wait_delivered(std::size_t count) {
  std::unique_lock lock(mutex_);
  return cv_.wait_for(
      lock, std::chrono::duration<double>(kWaitLimitS), [this, count] {
        for (std::size_t r = 1; r < kMembers; ++r)
          if (received_[r].size() < count) return false;
        return true;
      });
}

Rep EngineWorkload::run_rep() {
  Rep rep;
  Tracer* tracer = traced_ ? Tracer::active() : nullptr;
  if (tracer != nullptr) tracer->reset();
  {
    std::lock_guard lock(mutex_);
    received_.assign(kMembers, {});
    large_used_.assign(kMembers, 0);
    small_used_.assign(kMembers, 0);
    overflow_.clear();
  }

  // -- Set-up: fabric, nodes, group, first small message everywhere. -------
  const double t_setup = now_s();
  std::unique_ptr<fabric::MemFabric> mem;
  std::unique_ptr<TracedFabric> traced_fabric;
  std::vector<std::unique_ptr<Node>> nodes;
  double fabric_build_s = 0.0;
  {
    Span span(SpanKind::kClusterBuild);
    {
      Span fabric_span(SpanKind::kFabricBuild);
      mem = std::make_unique<fabric::MemFabric>(kMembers);
    }
    fabric_build_s = now_s() - t_setup;
    fabric::Fabric* fab = mem.get();
    if (tracer != nullptr) {
      traced_fabric = std::make_unique<TracedFabric>(*mem, now_s);
      fab = traced_fabric.get();
    }
    for (std::size_t i = 0; i < kMembers; ++i)
      nodes.push_back(std::make_unique<Node>(*fab, static_cast<NodeId>(i)));
  }
  const double t_built = now_s();

  GroupOptions options;
  options.block_size = kBlock;
  if (tracer != nullptr)
    options.make_schedule = [](std::size_t n, std::size_t rank) {
      return std::make_unique<TracedSchedule>(sched::make_schedule(
          sched::Algorithm::kBinomialPipeline, n, rank));
    };
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < kMembers; ++i)
    members.push_back(static_cast<NodeId>(i));
  const double rss_before = current_rss_mb();
  for (std::size_t r = 0; r < kMembers; ++r) {
    Span span(SpanKind::kCreateGroup);
    const bool ok = nodes[r]->create_group(
        1, members, options,
        [this, r](std::size_t size) {
          std::lock_guard lock(mutex_);
          if (size == kLargeBytes && large_used_[r] < kLarge)
            return fabric::MemoryView{large_slots_[r][large_used_[r]++].data(),
                                      size};
          if (size <= small_slots_[r].front().size() &&
              small_used_[r] < small_slots_[r].size())
            return fabric::MemoryView{small_slots_[r][small_used_[r]++].data(),
                                      size};
          // Unexpected size or count: still give the engine valid memory;
          // the checks below flag the message.
          overflow_.emplace_back(size);
          return fabric::MemoryView{overflow_.back().data(), size};
        },
        [this, r](std::byte* data, std::size_t size) {
          if (r == 0) return;  // the root's local send completion
          const double when = now_s();
          std::lock_guard lock(mutex_);
          received_[r].push_back({when, data, size});
          cv_.notify_all();
        });
    if (!ok) note_error(rep, "create_group failed");
  }
  const double rss_after = current_rss_mb();
  const double t_created = now_s();

  std::vector<double> sent_at(kMessages, 0.0);
  std::vector<std::uint64_t> send_failed;
  auto send = [&](std::size_t seq) {
    Tracer::set_seq(seq);
    sent_at[seq] = now_s();
    Span span(SpanKind::kSend);
    if (!nodes[0]->send(1, payloads_[seq].data(), sizes_[seq]))
      send_failed.push_back(seq);
  };
  // Host time of the last receiver's delivery of `seq` (deliveries are
  // positional; the checks below verify that position == stamp).
  auto last_delivery = [this](std::size_t seq) {
    std::lock_guard lock(mutex_);
    double last = 0.0;
    for (std::size_t r = 1; r < kMembers; ++r)
      if (received_[r].size() > seq)
        last = std::max(last, received_[r][seq].when);
    return last;
  };

  bool hung = false;
  send(0);
  hung = !wait_delivered(1);
  rep.values["setup_s"] = last_delivery(0) - t_setup;

  // -- Measured phases. ----------------------------------------------------
  std::atomic<bool> sampling{tracer != nullptr};
  std::size_t queue_depth_max = 0;
  std::thread sampler;
  if (tracer != nullptr)
    sampler = std::thread([&] {
      while (sampling.load()) {
        for (std::size_t i = 0; i < kMembers; ++i)
          queue_depth_max = std::max(
              queue_depth_max,
              mem->queue_state(static_cast<fabric::NodeId>(i)).first);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });

  const double t_measure = now_s();
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  if (tracer != nullptr) recorder.enable({std::size_t{1} << 20});
  for (std::size_t seq = 1; seq <= kLarge; ++seq) send(seq);
  hung = hung || !wait_delivered(kFirstSmall);
  std::vector<obs::TraceEvent> events;
  if (tracer != nullptr) {
    events = recorder.snapshot();
    recorder.disable();
  }
  const double large_end = last_delivery(kLarge);

  std::vector<double> latencies;
  for (std::size_t seq = kFirstSmall; seq < kFirstSmall + kOneAtATime && !hung;
       ++seq) {
    send(seq);
    hung = !wait_delivered(seq + 1);
    latencies.push_back(last_delivery(seq) - sent_at[seq]);
  }
  const std::size_t first_burst = kFirstSmall + kOneAtATime;
  for (std::size_t seq = first_burst; seq < kMessages && !hung; ++seq)
    send(seq);
  hung = hung || !wait_delivered(kMessages);
  const double t_done = now_s();
  sampling = false;
  if (sampler.joinable()) sampler.join();

  rep.values["wall_s"] = t_done - t_measure;
  rep.values["large_gbps"] = static_cast<double>(kLargeBytes * kLarge) * 8.0 /
                             (large_end - sent_at[1]) / 1e9;
  for (double l : latencies) rep.small_latencies_us.push_back(l * 1e6);
  rep.values["small_p50_us"] = median(latencies) * 1e6;
  rep.values["small_msgs_per_s"] =
      static_cast<double>(kBurst) /
      (last_delivery(kMessages - 1) - sent_at[first_burst]);
  if (hung) note_error(rep, "a delivery did not arrive within the limit");

  // Let trailing completions (credits, send completions) settle before
  // reading the groups' counters, then stop the engine before reading what
  // it wrote: the nodes detach from their completion threads, then the
  // threads stop.
  mem->drain();
  std::vector<Group::Stats> stats;
  for (std::size_t r = 1; r < kMembers; ++r)
    if (const Group* g = nodes[r]->group(1)) stats.push_back(g->stats());
  nodes.clear();
  traced_fabric.reset();
  mem->stop();

  // -- Checks: every receiver got every message once, in order, intact. ----
  std::vector<bool> bad(kMessages, false);
  for (std::uint64_t seq : send_failed) bad[seq] = true;
  for (std::size_t r = 1; r < kMembers; ++r) {
    OrderChecker order;
    const auto& got = received_[r];
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Received& m = got[i];
      const std::uint64_t stamp =
          m.size >= 8 ? read_stamp(m.data) : kMessages;
      // A corrupted stamp is not fed to the order checker, so one flipped
      // bit costs one message, not every message after it.
      const bool known = stamp < kMessages;
      const bool in_order = known && order.deliver(stamp);
      const bool intact = known && m.size == sizes_[stamp] &&
                          checksum({m.data, m.size}) == sums_[stamp];
      if (!in_order || !intact)
        bad[std::min<std::size_t>(i, kMessages - 1)] = true;
    }
    for (std::size_t seq = got.size(); seq < kMessages; ++seq) bad[seq] = true;
  }
  rep.attempted = kMessages;
  rep.failed = static_cast<std::uint64_t>(
      std::count(bad.begin(), bad.end(), true));
  if (rep.failed > 0)
    note_error(rep, std::to_string(rep.failed) +
                        " messages lost, reordered, duplicated or corrupted");

  if (tracer != nullptr) {
    Metrics& v = rep.values;
    const auto t = tracer->totals();
    auto at = [&t](SpanKind k) -> const KindTotals& {
      return t[static_cast<std::size_t>(k)];
    };
    std::uint64_t blocks_received = 0, duplicates = 0;
    double copy_s = 0.0;
    for (const auto& st : stats) {
      blocks_received += st.blocks_received;
      duplicates += st.duplicate_blocks;
      copy_s += st.copy_seconds;
    }
    v["harness.cluster_build_s"] = t_built - t_setup;
    v["fabric.build_s"] = fabric_build_s;
    v["core.group_create_s"] = t_created - t_built;
    v["core.group_rss_mb"] = rss_after - rss_before;
    for (const char* name :
         {"sim.run_s", "sim.events", "sim.ns_per_event", "sim.self_s",
          "sim.flow.reallocations", "sim.flow.filling_rounds",
          "sim.flow.flows_touched", "sim.flow.touched_per_realloc",
          "sim.flow.component_fills", "sim.flow.expand_rounds",
          "sim.flow.full_recomputes", "sim.flow.max_component",
          "sim.flow.memo_hit_rate", "sim.flow.hier_fills",
          "sim.flow.hier_fallbacks", "sim.flow.split_cuts"})
      v[name] = 0.0;  // no simulator on this workload
    v["sched.calls"] = static_cast<double>(at(SpanKind::kSchedule).calls);
    v["sched.calls_per_block"] =
        static_cast<double>(at(SpanKind::kSchedule).calls) /
        static_cast<double>(std::max<std::uint64_t>(blocks_received, 1));
    v["sched.self_s"] = at(SpanKind::kSchedule).self_s;
    v["core.completions"] = static_cast<double>(at(SpanKind::kHandler).calls);
    v["core.handler_self_s"] = at(SpanKind::kHandler).self_s;
    v["core.blocks_received"] = static_cast<double>(blocks_received);
    v["core.duplicate_blocks"] = static_cast<double>(duplicates);
    v["core.send_call_us"] = at(SpanKind::kSend).total_s * 1e6 /
                             static_cast<double>(at(SpanKind::kSend).calls);
    v["core.copy_s"] = copy_s;
    {
      double lo = 1e300, hi = 0.0;
      for (std::size_t r = 1; r < kMembers; ++r)
        if (received_[r].size() > kLarge) {
          lo = std::min(lo, received_[r][kLarge].when);
          hi = std::max(hi, received_[r][kLarge].when);
        }
      v["core.delivery_skew_us"] = (hi - lo) * 1e6;
    }
    v["fabric.posts"] = static_cast<double>(at(SpanKind::kPost).calls);
    v["fabric.post_self_s"] = at(SpanKind::kPost).self_s;
    v["fabric.post_to_completion_us"] =
        median(tracer->post_to_completion_s()) * 1e6;
    v["fabric.queue_depth_max"] = static_cast<double>(queue_depth_max);
    // Wall-clock stall tiling of the first large message.
    obs::StallBreakdown slowest;
    {
      Span span(SpanKind::kAnalyze);
      const std::vector<std::uint32_t> ids(members.begin(), members.end());
      const auto analysis = obs::analyze_multicast(events, 1, ids, 1);
      for (const auto& r : analysis.receivers)
        if (r.latency_s > slowest.latency_s) slowest = r;
    }
    v["obs.stall.transfer_s"] = slowest.transfer_s;
    v["obs.stall.wait_s"] = slowest.wait_s;
    v["obs.stall.software_s"] = slowest.software_s;
    v["obs.tiling_gap_us"] = (slowest.latency_s - slowest.sum()) * 1e6;
  }
  return rep;
}

Metrics EngineWorkload::run_probes() {
  // The fabric's own point-to-point bound: 1 MB sends posted directly on
  // one MemFabric queue pair, no RDMC engine in the way, streaming through
  // regions as large as a large message (so caches do not flatter it).
  constexpr std::size_t kSends = kLargeBytes / kBlock;
  constexpr int kTrials = 5;
  std::vector<std::byte> src(kLargeBytes, std::byte{0x5A});
  std::vector<std::byte> dst(kLargeBytes, std::byte{0});
  std::vector<double> p2p, copy;
  {
    fabric::MemFabric mem(2);
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t received = 0;
    mem.endpoint(0).set_completion_handler([](const fabric::Completion&) {});
    mem.endpoint(1).set_completion_handler(
        [&](const fabric::Completion& c) {
          if (c.opcode != fabric::WcOpcode::kRecv) return;
          std::lock_guard lock(mutex);
          ++received;
          cv.notify_all();
        });
    fabric::QueuePair* tx = mem.connect(0, 1, 0);
    fabric::QueuePair* rx = mem.connect(1, 0, 0);
    for (int trial = 0; trial < kTrials; ++trial) {
      {
        std::lock_guard lock(mutex);
        received = 0;
      }
      for (std::size_t i = 0; i < kSends; ++i)
        rx->post_recv({dst.data() + i * kBlock, kBlock}, i);
      const double t0 = now_s();
      for (std::size_t i = 0; i < kSends; ++i)
        tx->post_send({src.data() + i * kBlock, kBlock}, i, 0);
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return received == kSends; });
      p2p.push_back(static_cast<double>(kLargeBytes) * 8.0 / (now_s() - t0) /
                    1e9);
    }
    mem.endpoint(0).set_completion_handler(nullptr);
    mem.endpoint(1).set_completion_handler(nullptr);
    mem.stop();
  }
  // Reference only: one plain memcpy of the same size on this host.
  for (int trial = 0; trial < kTrials; ++trial) {
    const double t0 = now_s();
    std::memcpy(dst.data(), src.data(), kLargeBytes);
    copy.push_back(static_cast<double>(kLargeBytes) * 8.0 / (now_s() - t0) /
                   1e9);
  }
  std::printf("reference: memcpy %.2f Gb/s, MemFabric p2p %.2f Gb/s\n",
              median(copy), median(p2p));
  return {{"fabric.p2p_gbps", median(p2p)}};
}

}  // namespace

std::unique_ptr<Workload> make_engine_workload(std::uint64_t seed,
                                               bool traced) {
  return std::make_unique<EngineWorkload>(seed, traced);
}

}  // namespace perfbench
