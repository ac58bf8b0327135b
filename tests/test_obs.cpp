// Unified observability layer: trace recorder + Chrome JSON export,
// metrics registry, critical-path stall analyzer, pluggable log sink.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/rdmc.hpp"
#include "fabric/mem_fabric.hpp"
#include "harness/sim_harness.hpp"
#include "json_scanner.hpp"
#include "obs/metrics.hpp"
#include "obs/stall.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "util/logging.hpp"

using namespace rdmc;

namespace {

using rdmc::tests::JsonScanner;

// Run one traced pipeline multicast on SimFabric; returns the snapshot.
std::vector<obs::TraceEvent> traced_multicast(std::size_t nodes,
                                              std::uint64_t bytes) {
  obs::TraceRecorder::instance().enable();
  harness::MulticastConfig cfg;
  cfg.profile = sim::fractus_profile(nodes);
  cfg.group_size = nodes;
  cfg.message_bytes = bytes;
  cfg.block_size = 64 << 10;
  harness::run_multicast(cfg);
  auto events = obs::TraceRecorder::instance().snapshot();
  obs::TraceRecorder::instance().disable();
  return events;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

}  // namespace

TEST(TraceExport, JsonWellFormedAndSchemaStable) {
  const auto events = traced_multicast(4, 1u << 20);
  ASSERT_FALSE(events.empty());
  const std::string json = obs::to_chrome_json(events);

  JsonScanner scanner(json);
  EXPECT_TRUE(scanner.whole_document()) << "export is not valid JSON";

  // Chrome trace_event required keys.
  EXPECT_TRUE(contains(json, "\"traceEvents\""));
  EXPECT_TRUE(contains(json, "\"ph\""));
  EXPECT_TRUE(contains(json, "\"ts\""));
  EXPECT_TRUE(contains(json, "\"pid\""));
  EXPECT_TRUE(contains(json, "\"tid\""));
  // Process rows exist for the layers that emitted.
  EXPECT_TRUE(contains(json, "process_name"));
  EXPECT_TRUE(contains(json, "thread_name"));

  // Spans from all three layers: core engine, fabric, simulator.
  EXPECT_TRUE(contains(json, "\"name\":\"msg\""));
  EXPECT_TRUE(contains(json, "\"name\":\"block\""));
  EXPECT_TRUE(contains(json, "\"name\":\"xfer\""));
  EXPECT_TRUE(contains(json, "\"name\":\"flow\""));
}

TEST(TraceExport, DeterministicAcrossSameSeedRuns) {
  const auto a = traced_multicast(4, 1u << 20);
  const auto b = traced_multicast(4, 1u << 20);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(obs::to_chrome_json(a), obs::to_chrome_json(b));
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsDrops) {
  auto& rec = obs::TraceRecorder::instance();
  rec.enable(obs::TraceRecorder::Options{8});
  for (std::uint64_t i = 0; i < 20; ++i)
    rec.instant(obs::Cat::kApp, "tick", 0, static_cast<double>(i));
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest surviving first.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_DOUBLE_EQ(events[i].ts, static_cast<double>(12 + i));
  rec.disable();
}

TEST(Metrics, Log2HistogramBucketBoundaries) {
  obs::Log2Histogram h(-4, 3);  // buckets cover [2^-4, 2^4)
  EXPECT_EQ(h.bucket_count(), 8u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0625);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 0.125);
  EXPECT_DOUBLE_EQ(h.bucket_lo(7), 8.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(7), 16.0);

  // An exact power of two is the *inclusive* lower bound of its bucket.
  h.add(1.0);                       // bucket of [1, 2) -> index 4
  h.add(std::nextafter(2.0, 0.0));  // still [1, 2)
  h.add(2.0);                       // [2, 4) -> index 5
  EXPECT_EQ(h.count_at(4), 2u);
  EXPECT_EQ(h.count_at(5), 1u);

  // Range edges.
  h.add(0.0625);  // == 2^min_exp -> first bucket, not underflow
  EXPECT_EQ(h.count_at(0), 1u);
  h.add(0.03);  // < 2^min_exp
  h.add(0.0);
  h.add(-1.0);
  EXPECT_EQ(h.underflow(), 3u);
  h.add(16.0);  // == 2^(max_exp+1) -> overflow
  h.add(1e9);
  EXPECT_EQ(h.overflow(), 2u);

  EXPECT_EQ(h.total(), 9u);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(Metrics, RegistryRoundTripAndPerfStatsView) {
  obs::MetricsRegistry registry;
  registry.counter("sim.events").set(42);
  registry.counter("harness.wall_ns").set(1500000000);
  registry.histogram("lat").add(0.5);

  const harness::PerfStats stats = harness::PerfStats::from(registry);
  EXPECT_EQ(stats.events_processed, 42u);
  EXPECT_DOUBLE_EQ(stats.wall_seconds, 1.5);
  EXPECT_EQ(stats.flow_starts, 0u);  // absent names read as zero

  const std::string json = registry.to_json();
  JsonScanner scanner(json);
  EXPECT_TRUE(scanner.whole_document());
  EXPECT_TRUE(contains(json, "\"sim.events\":42"));
}

TEST(Stall, ChainAttributionWithInjectedDegrade) {
  obs::TraceRecorder::instance().enable();

  auto profile = sim::fractus_profile(3);
  harness::SimCluster cluster(profile);
  GroupOptions options;
  options.block_size = 64 << 10;
  options.algorithm = sched::Algorithm::kChain;
  cluster.create_group(1, {0, 1, 2}, options);

  const std::uint64_t bytes = 4u << 20;
  // Calibrate an undisturbed run first so the fault lands mid-transfer.
  ASSERT_TRUE(cluster.node(0).send(1, nullptr, bytes));
  cluster.run_to_quiescence();
  const double clean = cluster.sim().now();
  ASSERT_GT(clean, 0.0);

  obs::TraceRecorder::instance().enable();  // clear, trace the faulty run
  harness::SimCluster faulty(profile);
  faulty.create_group(1, {0, 1, 2}, options);
  // Degrade the chain's 1 -> 2 hop to 25% bandwidth from 30% of the clean
  // runtime until past the (now much later) end, so the tail receiver's
  // final wire transfer provably overlaps the fault window.
  faulty.sim().at(clean * 0.3, [&] {
    ASSERT_TRUE(faulty.fabric().degrade_link(1, 2, 0.25, clean * 10.0));
  });
  ASSERT_TRUE(faulty.node(0).send(1, nullptr, bytes));
  faulty.run_to_quiescence();
  const auto events = obs::TraceRecorder::instance().snapshot();
  obs::TraceRecorder::instance().disable();

  const auto analysis = obs::analyze_multicast(events, 1, {0, 1, 2});
  for (const auto& w : analysis.warnings) ADD_FAILURE() << w;
  ASSERT_EQ(analysis.receivers.size(), 2u);

  for (const auto& r : analysis.receivers) {
    EXPECT_GT(r.latency_s, 0.0);
    EXPECT_GT(r.hops, 0u);
    // The per-class segments tile [msg start, delivery]: sums are exact.
    EXPECT_NEAR(r.sum(), r.latency_s, 1e-12 + r.latency_s * 1e-9);
    EXPECT_GE(r.transfer_s, 0.0);
    EXPECT_GE(r.wait_s, 0.0);
    EXPECT_GE(r.software_s, 0.0);
    EXPECT_GE(r.injected_s, 0.0);
    EXPECT_DOUBLE_EQ(r.recovery_s, 0.0);
  }

  // Node 2 sits behind the degraded hop: it must see injected stall time,
  // and the degrade must have actually slowed the run.
  const auto& tail = analysis.receivers.back();
  EXPECT_EQ(tail.node, 2u);
  EXPECT_GT(tail.injected_s, 0.0);
  EXPECT_GT(tail.latency_s, clean);
}

TEST(Stall, DecompositionClosesWithinOnePercent) {
  const auto events = traced_multicast(8, 2u << 20);
  std::vector<std::uint32_t> members(8);
  for (std::uint32_t i = 0; i < 8; ++i) members[i] = i;
  const auto analysis = obs::analyze_multicast(events, 1, members);
  for (const auto& w : analysis.warnings) ADD_FAILURE() << w;
  ASSERT_EQ(analysis.receivers.size(), 7u);
  for (const auto& r : analysis.receivers) {
    ASSERT_GT(r.latency_s, 0.0);
    EXPECT_LE(std::abs(r.sum() / r.latency_s - 1.0), 0.01);
  }
}

// Wall-clock tiling on the threaded MemFabric: the fabric's transfer spans
// must cover the byte copy and share the nodes' timebase, so each of two
// 8 MB multicasts to three members tiles into real transfer time and the
// segments still close on the latency. Two messages, because block
// numbers and work-request ids restart with every message and the
// analyzer must not mix them up.
TEST(Stall, MemFabricTransferSpansCoverTheCopy) {
  constexpr std::size_t kMembers = 3;
  constexpr std::size_t kBytes = std::size_t{8} << 20;
  fabric::MemFabric fabric(kMembers);
  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t i = 0; i < kMembers; ++i)
    nodes.push_back(std::make_unique<Node>(fabric, static_cast<NodeId>(i)));
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t delivered = 0;
  std::vector<std::vector<std::byte>> buffers(kMembers);

  obs::TraceRecorder::instance().enable();
  const std::vector<NodeId> members{0, 1, 2};
  for (const NodeId m : members) {
    ASSERT_TRUE(nodes[m]->create_group(
        1, members, GroupOptions{},
        [&buffers, m](std::size_t size) {
          buffers[m].resize(size);
          return fabric::MemoryView{buffers[m].data(), size};
        },
        [&, m](std::byte*, std::size_t) {
          if (m == 0) return;  // the root's own send completion
          std::lock_guard lock(mutex);
          ++delivered;
          cv.notify_all();
        }));
  }
  std::vector<std::byte> payload(kBytes, std::byte{0x5A});
  for (std::size_t sent = 1; sent <= 2; ++sent) {
    ASSERT_TRUE(nodes[0]->send(1, payload.data(), kBytes));
    std::unique_lock lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(20), [&] {
      return delivered == sent * (kMembers - 1);
    }));
  }
  const auto events = obs::TraceRecorder::instance().snapshot();
  obs::TraceRecorder::instance().disable();
  nodes.clear();
  fabric.stop();

  const std::vector<std::uint32_t> ids(members.begin(), members.end());
  for (std::size_t seq = 0; seq < 2; ++seq) {
    const auto analysis = obs::analyze_multicast(events, 1, ids, seq);
    for (const auto& w : analysis.warnings) ADD_FAILURE() << w;
    ASSERT_EQ(analysis.receivers.size(), kMembers - 1);
    for (const auto& r : analysis.receivers) {
      EXPECT_GT(r.latency_s, 0.0);
      // The last hop's 1 MB block copy: tens of microseconds at least.
      EXPECT_GT(r.transfer_s, 1e-5) << "seq " << seq << ", node " << r.node;
      EXPECT_NEAR(r.sum(), r.latency_s, 1e-12 + r.latency_s * 1e-9);
    }
  }
}

TEST(Stall, StepProfileTransfersBoundedByGaps) {
  const auto events = traced_multicast(4, 1u << 20);
  const auto sender = obs::step_profile(events, 1, 0, /*sender_side=*/true);
  const auto relay = obs::step_profile(events, 1, 1, /*sender_side=*/false);
  EXPECT_GT(sender.size(), 4u);
  EXPECT_GT(relay.size(), 4u);
  for (const auto& row : sender) {
    EXPECT_GE(row.transfer_us, 0.0);
    EXPECT_GE(row.wait_us, 0.0);
  }
}

TEST(Logging, PluggableSinkCapturesWarnings) {
  std::vector<std::string> lines;
  auto previous = util::set_log_sink(
      [&lines](util::LogLevel level, const char* tag, const char* body) {
        lines.push_back(std::string(util::level_name(level)) + "/" + tag +
                        ": " + body);
      });
  RDMC_LOG_WARN("test", "disk %d%% full", 93);
  RDMC_LOG_ERROR("core", "oops");
  RDMC_LOG_DEBUG("test", "invisible at default level");
  util::set_log_sink(std::move(previous));
  RDMC_LOG_WARN("test", "back on stderr, not captured");

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "WARN/test: disk 93% full");
  EXPECT_EQ(lines[1], "ERROR/core: oops");
}

// The bounded-memory guarantee the retired per-group trace vector provided
// now lives in the recorder ring: a traced multicast that outgrows the ring
// keeps only the newest `capacity` events and reports the overwrites.
TEST(GroupTrace, RecorderRingBoundsTracedMulticast) {
  auto& rec = obs::TraceRecorder::instance();
  obs::TraceRecorder::Options ring;
  ring.capacity = 16;
  rec.enable(ring);
  auto profile = sim::fractus_profile(4);
  harness::SimCluster cluster(profile);
  GroupOptions options;
  options.block_size = 64 << 10;
  cluster.create_group(1, {0, 1, 2, 3}, options);
  ASSERT_TRUE(cluster.node(0).send(1, nullptr, 4u << 20));
  cluster.run_to_quiescence();
  // 64 blocks emit far more than 16 events; the cap must hold.
  EXPECT_EQ(rec.snapshot().size(), 16u);
  EXPECT_GT(rec.dropped(), 0u);
  EXPECT_EQ(rec.recorded(), rec.dropped() + 16u);
  rec.disable();
  rec.clear();
}
