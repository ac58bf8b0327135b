#include "layers.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace fab = rdmc::fabric;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* kind_name(SpanKind kind) {
  static constexpr const char* kNames[kKinds] = {
      "harness.cluster_build", "fabric.build",  "sim.run",
      "sched.query",           "core.create_group", "core.send",
      "core.handler",          "fabric.post",   "obs.analyze"};
  return kNames[static_cast<std::size_t>(kind)];
}

namespace {

std::atomic<Tracer*> g_active{nullptr};
std::atomic<std::uint64_t> g_epoch{0};
std::atomic<std::uint64_t> g_seq{0};

/// Kept records per thread; beyond it spans are only aggregated.
constexpr std::size_t kRecordCap = std::size_t{1} << 19;

bool kept(SpanKind kind) {
  return kind != SpanKind::kSchedule && kind != SpanKind::kPost;
}

}  // namespace

struct Tracer::ThreadSlot {
  struct Frame {
    SpanKind kind;
    bool in_run;
    std::int64_t record;
    double start;
    double child_s;
  };
  std::uint32_t thread = 0;
  std::array<KindTotals, kKinds> totals{};
  std::vector<SpanRecord> records;
  std::uint64_t dropped = 0;
  std::vector<Frame> stack;

  void open(SpanKind kind) {
    const bool parent_in_run = !stack.empty() && stack.back().in_run;
    std::int64_t parent = -1;
    for (auto it = stack.rbegin(); it != stack.rend(); ++it)
      if (it->record >= 0) {
        parent = it->record;
        break;
      }
    std::int64_t record = -1;
    const double start = now_s();
    if (kept(kind)) {
      if (records.size() < kRecordCap) {
        record = static_cast<std::int64_t>(records.size());
        records.push_back({kind, thread, parent,
                           g_seq.load(std::memory_order_relaxed), start, 0.0});
      } else {
        ++dropped;
      }
    }
    stack.push_back(
        {kind, parent_in_run || kind == SpanKind::kSimRun, record, start, 0.0});
  }

  void close() {
    const double end = now_s();
    const Frame f = stack.back();
    stack.pop_back();
    const double dur = end - f.start;
    KindTotals& t = totals[static_cast<std::size_t>(f.kind)];
    ++t.calls;
    t.total_s += dur;
    t.self_s += dur - f.child_s;
    if (f.in_run) {
      ++t.calls_in_run;
      t.self_in_run_s += dur - f.child_s;
    }
    if (f.record >= 0) records[static_cast<std::size_t>(f.record)].end = end;
    if (!stack.empty()) stack.back().child_s += dur;
  }
};

namespace {
struct ThreadBinding {
  std::uint64_t epoch = 0;
  Tracer::ThreadSlot* slot = nullptr;
};
thread_local ThreadBinding t_binding;
}  // namespace

Tracer::Tracer() : epoch_(++g_epoch) {}
Tracer::~Tracer() {
  Tracer* self = this;
  g_active.compare_exchange_strong(self, nullptr);
}

Tracer* Tracer::active() { return g_active.load(std::memory_order_relaxed); }
void Tracer::install(Tracer* tracer) { g_active.store(tracer); }
void Tracer::set_seq(std::uint64_t seq) {
  g_seq.store(seq, std::memory_order_relaxed);
}

Tracer::ThreadSlot& Tracer::slot() {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (t_binding.epoch != epoch) {
    std::lock_guard lock(mutex_);
    slots_.push_back(std::make_unique<ThreadSlot>());
    slots_.back()->thread = static_cast<std::uint32_t>(slots_.size() - 1);
    t_binding = {epoch, slots_.back().get()};
  }
  return *t_binding.slot;
}

void Tracer::reset() {
  std::lock_guard lock(mutex_);
  epoch_.store(++g_epoch);
  slots_.clear();
  open_posts_.clear();
  post_latencies_.clear();
}

std::array<KindTotals, kKinds> Tracer::totals() const {
  std::lock_guard lock(mutex_);
  std::array<KindTotals, kKinds> sum{};
  for (const auto& s : slots_)
    for (std::size_t k = 0; k < kKinds; ++k) {
      sum[k].calls += s->totals[k].calls;
      sum[k].total_s += s->totals[k].total_s;
      sum[k].self_s += s->totals[k].self_s;
      sum[k].calls_in_run += s->totals[k].calls_in_run;
      sum[k].self_in_run_s += s->totals[k].self_in_run_s;
    }
  return sum;
}

std::vector<SpanRecord> Tracer::records() const {
  std::lock_guard lock(mutex_);
  std::vector<SpanRecord> out;
  for (const auto& s : slots_) {
    const auto base = static_cast<std::int64_t>(out.size());
    for (SpanRecord r : s->records) {
      if (r.parent >= 0) r.parent += base;
      out.push_back(r);
    }
  }
  return out;
}

std::uint64_t Tracer::records_dropped() const {
  std::lock_guard lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& s : slots_) n += s->dropped;
  return n;
}

namespace {
std::uint64_t post_key(fab::QpId qp, std::uint64_t wr) {
  return (qp << 40) ^ (wr & ((std::uint64_t{1} << 40) - 1));
}
}  // namespace

void Tracer::note_post(fab::QpId qp, std::uint64_t wr, double when) {
  std::lock_guard lock(mutex_);
  open_posts_[post_key(qp, wr)] = when;
}

void Tracer::note_send_completion(fab::QpId qp, std::uint64_t wr,
                                  double when) {
  std::lock_guard lock(mutex_);
  const auto it = open_posts_.find(post_key(qp, wr));
  if (it == open_posts_.end()) return;
  post_latencies_.push_back(when - it->second);
  open_posts_.erase(it);
}

std::vector<double> Tracer::post_to_completion_s() const {
  std::lock_guard lock(mutex_);
  return post_latencies_;
}

Span::Span(SpanKind kind) {
  Tracer* t = Tracer::active();
  if (t == nullptr) return;
  slot_ = &t->slot();
  slot_->open(kind);
}

Span::~Span() {
  if (slot_ != nullptr) slot_->close();
}

// -- Fabric decorators -----------------------------------------------------

class TracedFabric::QueuePair final : public fab::QueuePair {
 public:
  QueuePair(fab::QueuePair& inner, const Clock& clock)
      : fab::QueuePair(inner.id(), inner.peer()),
        inner_(inner),
        clock_(clock) {}

  fab::PostResult post_send(fab::MemoryView buf, std::uint64_t wr_id,
                            std::uint32_t immediate) override {
    // Noted before posting: the completion may beat the return.
    if (Tracer* t = Tracer::active()) t->note_post(id(), wr_id, clock_());
    Span span(SpanKind::kPost);
    return inner_.post_send(buf, wr_id, immediate);
  }
  fab::PostResult post_recv(fab::MemoryView buf,
                            std::uint64_t wr_id) override {
    Span span(SpanKind::kPost);
    return inner_.post_recv(buf, wr_id);
  }
  fab::PostResult post_write_imm(std::uint32_t immediate,
                                 std::uint64_t wr_id) override {
    Span span(SpanKind::kPost);
    return inner_.post_write_imm(immediate, wr_id);
  }
  fab::PostResult post_window_write(std::uint32_t window_id,
                                    std::uint64_t offset,
                                    fab::MemoryView local,
                                    std::uint32_t immediate,
                                    std::uint64_t wr_id,
                                    bool signaled) override {
    Span span(SpanKind::kPost);
    return inner_.post_window_write(window_id, offset, local, immediate,
                                    wr_id, signaled);
  }
  fab::PostResult post_send_ud(fab::MemoryView buf, std::uint64_t wr_id,
                               std::uint32_t immediate) override {
    Span span(SpanKind::kPost);
    return inner_.post_send_ud(buf, wr_id, immediate);
  }
  fab::PostResult post_recv_ud(fab::MemoryView buf,
                               std::uint64_t wr_id) override {
    Span span(SpanKind::kPost);
    return inner_.post_recv_ud(buf, wr_id);
  }
  void close() override { inner_.close(); }

 private:
  fab::QueuePair& inner_;
  const Clock& clock_;
};

class TracedFabric::Endpoint final : public fab::Endpoint {
 public:
  Endpoint(fab::Endpoint& inner, const Clock& clock)
      : inner_(inner), clock_(clock) {}

  fab::NodeId id() const override { return inner_.id(); }
  void set_completion_handler(
      std::function<void(const fab::Completion&)> handler) override {
    if (!handler) {
      inner_.set_completion_handler(nullptr);
      return;
    }
    inner_.set_completion_handler(
        [this, handler = std::move(handler)](const fab::Completion& c) {
          if (c.opcode == fab::WcOpcode::kSend)
            if (Tracer* t = Tracer::active())
              t->note_send_completion(c.qp, c.wr_id, clock_());
          Span span(SpanKind::kHandler);
          handler(c);
        });
  }
  void send_oob(fab::NodeId to, std::vector<std::byte> payload) override {
    inner_.send_oob(to, std::move(payload));
  }
  void set_oob_handler(
      std::function<void(fab::NodeId, std::span<const std::byte>)> handler)
      override {
    inner_.set_oob_handler(std::move(handler));
  }
  void set_completion_mode(fab::CompletionMode mode) override {
    inner_.set_completion_mode(mode);
  }
  fab::CompletionMode completion_mode() const override {
    return inner_.completion_mode();
  }
  void register_window(std::uint32_t window_id,
                       fab::MemoryView region) override {
    inner_.register_window(window_id, region);
  }
  void unregister_window(std::uint32_t window_id) override {
    inner_.unregister_window(window_id);
  }

 private:
  fab::Endpoint& inner_;
  const Clock& clock_;
};

TracedFabric::TracedFabric(fab::Fabric& inner, Clock clock)
    : inner_(inner), clock_(std::move(clock)) {
  for (std::size_t n = 0; n < inner_.num_nodes(); ++n)
    endpoints_.push_back(std::make_unique<Endpoint>(
        inner_.endpoint(static_cast<fab::NodeId>(n)), clock_));
}

TracedFabric::~TracedFabric() = default;

fab::Endpoint& TracedFabric::endpoint(fab::NodeId node) {
  return *endpoints_[node];
}

fab::QueuePair* TracedFabric::connect(fab::NodeId a, fab::NodeId b,
                                      std::uint32_t channel) {
  fab::QueuePair* qp = inner_.connect(a, b, channel);
  if (qp == nullptr) return nullptr;
  std::lock_guard lock(mutex_);
  auto& wrapped = qps_[qp];
  if (!wrapped) wrapped = std::make_unique<QueuePair>(*qp, clock_);
  return wrapped.get();
}

// -- Schedule decorator ----------------------------------------------------

TracedSchedule::TracedSchedule(std::unique_ptr<rdmc::sched::Schedule> inner)
    : Schedule(inner->num_nodes(), inner->rank()), inner_(std::move(inner)) {}

std::vector<rdmc::sched::Transfer> TracedSchedule::sends_at(
    std::size_t num_blocks, std::size_t step) const {
  Span span(SpanKind::kSchedule);
  return inner_->sends_at(num_blocks, step);
}

std::vector<rdmc::sched::Transfer> TracedSchedule::recvs_at(
    std::size_t num_blocks, std::size_t step) const {
  Span span(SpanKind::kSchedule);
  return inner_->recvs_at(num_blocks, step);
}

std::size_t TracedSchedule::num_steps(std::size_t num_blocks) const {
  Span span(SpanKind::kSchedule);
  return inner_->num_steps(num_blocks);
}

// -- Memory ----------------------------------------------------------------

double current_rss_mb() {
  long pages_total = 0, pages_resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2)
      pages_resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

}  // namespace perfbench
