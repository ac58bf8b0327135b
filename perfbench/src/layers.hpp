// Per-layer timing from outside the program.
//
// The traced run splits host time across the project's modules without
// touching them: forwarding decorators over the public fabric interfaces
// (Fabric / Endpoint / QueuePair) and over sched::Schedule (installed via
// GroupOptions::make_schedule) open a span around every call that crosses
// a layer boundary, and the workloads open spans around Simulator::run,
// Node::create_group and Node::send. A layer's self time is its spans'
// time minus the time of the spans nested inside them on the same thread.
//
// Coarse spans (cluster build, group creation, sends, simulator runs,
// completion handlers) are kept as records; the per-call spans of the
// schedule and the post path run into the millions on the large workloads,
// so they are only aggregated (count, total, self time).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.hpp"
#include "sched/schedule.hpp"

namespace perfbench {

/// Host seconds on the steady clock.
double now_s();

/// Every boundary the benchmark times; the comment names the layer.
enum class SpanKind : std::uint8_t {
  kClusterBuild,  // harness: simulator + topology + fabric + nodes
  kFabricBuild,   // fabric: backend construction
  kSimRun,        // sim: Simulator::run
  kSchedule,      // sched: one Schedule query
  kCreateGroup,   // core: Node::create_group on one member
  kSend,          // core: Node::send
  kHandler,       // core: one completion handler invocation
  kPost,          // fabric: one QueuePair::post_* call
  kAnalyze,       // obs: stall analysis of a recorded trace
  kCount
};
constexpr std::size_t kKinds = static_cast<std::size_t>(SpanKind::kCount);

/// "<layer>.<boundary>", as written to the spans file.
const char* kind_name(SpanKind kind);

/// One kept span. `parent` indexes the enclosing kept span of the same
/// thread (-1 for a root); `seq` is the benchmark's message sequence number
/// current when the span opened, the id shared by the spans of a message.
struct SpanRecord {
  SpanKind kind = SpanKind::kCount;
  std::uint32_t thread = 0;
  std::int64_t parent = -1;
  std::uint64_t seq = 0;
  double start = 0.0;
  double end = 0.0;
};

struct KindTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  /// Calls and self time of spans nested (at any depth) inside a
  /// Simulator::run span.
  std::uint64_t calls_in_run = 0;
  double self_in_run_s = 0.0;
};

/// Collects spans while installed. One tracer is active at a time; each
/// thread accumulates into its own slot, so the hot path takes no lock.
/// reset() and totals() must be called while no thread is inside a span.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer, or null when the run is untraced.
  static Tracer* active();
  static void install(Tracer* tracer);

  /// Forget everything recorded so far (called between repetitions).
  void reset();

  std::array<KindTotals, kKinds> totals() const;
  std::vector<SpanRecord> records() const;
  /// Spans beyond the record cap (aggregated only).
  std::uint64_t records_dropped() const;

  /// Post -> send-completion latency on the fabric's own clock: the
  /// QueuePair decorator notes each post_send, the Endpoint decorator
  /// closes it on the matching kSend completion.
  void note_post(rdmc::fabric::QpId qp, std::uint64_t wr, double when);
  void note_send_completion(rdmc::fabric::QpId qp, std::uint64_t wr,
                            double when);
  std::vector<double> post_to_completion_s() const;

  /// Benchmark message sequence number stamped on newly opened spans.
  static void set_seq(std::uint64_t seq);

  struct ThreadSlot;

 private:
  friend class Span;
  ThreadSlot& slot();

  std::atomic<std::uint64_t> epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadSlot>> slots_;
  std::unordered_map<std::uint64_t, double> open_posts_;
  std::vector<double> post_latencies_;
};

/// RAII span; a no-op when no tracer is installed.
class Span {
 public:
  explicit Span(SpanKind kind);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadSlot* slot_ = nullptr;
};

using Clock = std::function<double()>;

/// Forwarding decorator over a whole fabric: every endpoint and queue pair
/// handed out is wrapped, and the wrappers time the calls that cross into
/// the backend (posts) and out of it (completion handlers). `clock` is the
/// fabric's own clock (virtual on SimFabric) for post -> completion times.
class TracedFabric final : public rdmc::fabric::Fabric {
 public:
  TracedFabric(rdmc::fabric::Fabric& inner, Clock clock);
  ~TracedFabric() override;

  std::size_t num_nodes() const override { return inner_.num_nodes(); }
  rdmc::fabric::Endpoint& endpoint(rdmc::fabric::NodeId node) override;
  rdmc::fabric::QueuePair* connect(rdmc::fabric::NodeId a,
                                   rdmc::fabric::NodeId b,
                                   std::uint32_t channel) override;
  rdmc::fabric::FaultInjector& faults() override { return inner_.faults(); }

 private:
  class Endpoint;
  class QueuePair;

  rdmc::fabric::Fabric& inner_;
  Clock clock_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::mutex mutex_;
  std::unordered_map<rdmc::fabric::QueuePair*, std::unique_ptr<QueuePair>>
      qps_;
};

/// Forwarding decorator over one schedule instance.
class TracedSchedule final : public rdmc::sched::Schedule {
 public:
  explicit TracedSchedule(std::unique_ptr<rdmc::sched::Schedule> inner);

  std::vector<rdmc::sched::Transfer> sends_at(std::size_t num_blocks,
                                              std::size_t step) const override;
  std::vector<rdmc::sched::Transfer> recvs_at(std::size_t num_blocks,
                                              std::size_t step) const override;
  std::size_t num_steps(std::size_t num_blocks) const override;
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<rdmc::sched::Schedule> inner_;
};

/// Resident set size of this process now, in MB (from /proc/self/statm).
double current_rss_mb();
/// Peak resident set size of this process so far, in MB (getrusage).
double peak_rss_mb();

}  // namespace perfbench
