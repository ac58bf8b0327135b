// Parallel sweep executor: determinism and correctness guarantees.
//
// The executor's contract (util/parallel.hpp) is that fanning a sweep
// over worker threads changes nothing observable: every index runs exactly
// once, results land in input-ordered slots, and a traced chaos campaign
// exports byte-for-byte the same JSON as a serial run — per-seed events are
// recorded into thread shards and merged back in seed order.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/chaos.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "util/parallel.hpp"

namespace rdmc::harness {
namespace {

TEST(ParallelFor, RunsEveryIndexOnce) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3},
                                 std::size_t{8}, std::size_t{100}}) {
    std::vector<std::atomic<int>> hits(57);
    util::parallel_for(hits.size(), jobs,
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", jobs " << jobs;
  }
  // Empty range: no calls, no hang.
  util::parallel_for(0, 4,
                     [](std::size_t) { FAIL() << "called on empty range"; });
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      util::parallel_for(16, 4,
                         [](std::size_t i) {
                           if (i % 5 == 0) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

ChaosSpec smoke_spec() {
  ChaosSpec spec;
  spec.profile = sim::fractus_profile(8);
  spec.group_size = 8;
  spec.messages = 2;
  spec.message_bytes = 128u << 10;
  spec.group_options.block_size = 32 << 10;
  spec.faults.min_events = 1;
  spec.faults.max_events = 2;
  return spec;
}

void expect_same_result(const ChaosCampaignResult& a,
                        const ChaosCampaignResult& b) {
  EXPECT_EQ(a.seeds_run, b.seeds_run);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.root_lost, b.root_lost);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.fault_hit, b.fault_hit);
  EXPECT_EQ(a.total_reforms, b.total_reforms);
  EXPECT_EQ(a.total_deliveries, b.total_deliveries);
  EXPECT_DOUBLE_EQ(a.window_s, b.window_s);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].seed, b.failures[i].seed);
    EXPECT_EQ(a.failures[i].plan, b.failures[i].plan);
    EXPECT_EQ(a.failures[i].violations, b.failures[i].violations);
    EXPECT_EQ(a.failures[i].virtual_seconds, b.failures[i].virtual_seconds);
  }
}

TEST(ParallelSweep, ChaosCampaignIdenticalAcrossJobCounts) {
  const ChaosSpec spec = smoke_spec();
  const ChaosCampaignResult serial = run_chaos_campaign(1, 12, spec, 1);
  const ChaosCampaignResult par4 = run_chaos_campaign(1, 12, spec, 4);
  expect_same_result(serial, par4);
}

TEST(ParallelSweep, TraceJsonIdenticalToSerial) {
  const ChaosSpec spec = smoke_spec();
  auto& recorder = obs::TraceRecorder::instance();

  recorder.enable();
  run_chaos_campaign(1, 6, spec, 1);
  const std::string serial_json = obs::to_chrome_json(recorder.snapshot());
  recorder.disable();

  recorder.enable();
  run_chaos_campaign(1, 6, spec, 4);
  const std::string parallel_json = obs::to_chrome_json(recorder.snapshot());
  recorder.disable();

  ASSERT_FALSE(serial_json.empty());
  EXPECT_EQ(serial_json, parallel_json);
}

}  // namespace
}  // namespace rdmc::harness
