// Simulator-core performance benchmark.
//
// The simulator is this project's hardware: every figure regeneration is
// bounded by how fast the discrete-event core (EventQueue + FlowNetwork)
// chews through flow-set changes. This bench runs representative Fig 8 and
// Fig 10 configurations, reports wall time plus the FlowNetwork counters,
// and writes everything to BENCH_core.json for regression tracking.
//
// The seed_wall_seconds references are the times the pre-optimization tree
// (commit "growth seed") needed for the same configurations on the same
// class of machine; speedup_vs_seed is wall-time improvement against that.
// The incremental-reallocation work targets >= 3x on the 512-node Fig 8
// pipeline point.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/sim_harness.hpp"
#include "sim/cluster_profiles.hpp"

using namespace rdmc;

namespace {

struct Point {
  std::string name;
  double virtual_seconds = 0.0;
  double seed_wall_seconds = 0.0;  // 0: no recorded seed reference
  harness::PerfStats perf;
};

void append_json(std::string& out, const Point& p) {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "    {\n"
      "      \"name\": \"%s\",\n"
      "      \"wall_seconds\": %.6f,\n"
      "      \"virtual_seconds\": %.9f,\n"
      "      \"events_processed\": %llu,\n"
      "      \"reallocations\": %llu,\n"
      "      \"filling_rounds\": %llu,\n"
      "      \"flows_touched\": %llu,\n"
      "      \"max_component\": %llu,\n"
      "      \"expand_rounds\": %llu,\n"
      "      \"full_recomputes\": %llu,\n"
      "      \"flow_starts\": %llu,\n"
      "      \"component_fills\": %llu,\n",
      p.name.c_str(), p.perf.wall_seconds, p.virtual_seconds,
      (unsigned long long)p.perf.events_processed,
      (unsigned long long)p.perf.reallocations,
      (unsigned long long)p.perf.filling_rounds,
      (unsigned long long)p.perf.flows_touched,
      (unsigned long long)p.perf.max_component,
      (unsigned long long)p.perf.expand_rounds,
      (unsigned long long)p.perf.full_recomputes,
      (unsigned long long)p.perf.flow_starts,
      (unsigned long long)p.perf.component_fills);
  out += buf;
  // No recorded seed reference: emit null, not a misleading 0.000.
  if (p.seed_wall_seconds > 0.0 && p.perf.wall_seconds > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "      \"seed_wall_seconds\": %.3f,\n"
                  "      \"speedup_vs_seed\": %.3f\n"
                  "    }",
                  p.seed_wall_seconds,
                  p.seed_wall_seconds / p.perf.wall_seconds);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "      \"seed_wall_seconds\": null,\n"
                  "      \"speedup_vs_seed\": null\n"
                  "    }");
  }
  out += buf;
}

Point run_fig8(std::size_t nodes, std::uint64_t bytes, double seed_wall) {
  harness::MulticastConfig cfg;
  cfg.profile = sim::sierra_profile(nodes);
  cfg.group_size = nodes;
  cfg.message_bytes = bytes;
  cfg.block_size = 1 << 20;
  const auto result = harness::run_multicast(cfg);
  Point p;
  p.name = "fig8_" + std::to_string(nodes) + "_pipeline";
  p.virtual_seconds = result.total_seconds;
  p.seed_wall_seconds = seed_wall;
  p.perf = result.perf;
  return p;
}

Point run_fig10(std::size_t groups, std::size_t size, std::uint64_t bytes,
                std::size_t messages, double seed_wall) {
  harness::ConcurrentConfig cfg;
  cfg.profile = sim::fractus_profile(size);
  cfg.group_size = size;
  cfg.senders = groups;
  cfg.message_bytes = bytes;
  cfg.messages = messages;
  const auto result = harness::run_concurrent(cfg);
  Point p;
  p.name = "fig10_" + std::to_string(groups) + "x" + std::to_string(size) +
           "_concurrent";
  p.virtual_seconds = result.makespan_seconds;
  p.seed_wall_seconds = seed_wall;
  p.perf = result.perf;
  return p;
}

/// Fig 10b-shaped oversubscribed-rack point: concurrent rotated-root
/// groups on the parameterized racked profile — components span racks and
/// couple through the shared uplinks.
Point run_racked(std::size_t groups, std::size_t size, std::uint64_t bytes,
                 std::size_t messages, double seed_wall) {
  harness::ConcurrentConfig cfg;
  cfg.profile = sim::racked_profile(size, 16, 3.5);
  cfg.group_size = size;
  cfg.senders = groups;
  cfg.message_bytes = bytes;
  cfg.messages = messages;
  const auto result = harness::run_concurrent(cfg);
  Point p;
  p.name = "fig10b_" + std::to_string(groups) + "x" + std::to_string(size) +
           "_racked";
  p.virtual_seconds = result.makespan_seconds;
  p.seed_wall_seconds = seed_wall;
  p.perf = result.perf;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  const bool quick = opts.quick;
  bench::header("Simulator-core performance (wall time + counters)",
                "infrastructure for Figs 8 and 10 (not a paper figure)",
                "incremental reallocation keeps wall time flat as the "
                "active flow count grows");

  // Seed references: wall times of the previous tree for the identical
  // configurations (measured where this bench was developed; 0 means no
  // reference recorded for that point). The 512-node and fig10 seeds are
  // the original growth-seed tree (the growth-seed solver is quadratic in
  // active flows; larger points would not finish in useful time). The
  // 1024/4096/16384 seeds are a later tree with the short expansion cap
  // (kMaxExpandRounds 6), so speedup_vs_seed on those rows tracks what
  // the longer cap and everything since bought.
  std::vector<Point> points;
  if (quick) {
    points.push_back(run_fig8(128, 8ull << 20, 0.0));
    points.push_back(run_fig10(8, 8, 16ull << 20, 1, 0.0));
    // Racked point small enough for smoke runs: components couple
    // through the oversubscribed rack uplinks.
    points.push_back(run_racked(16, 256, 2ull << 20, 1, 0.0));
  } else {
    points.push_back(run_fig8(128, 32ull << 20, 0.0));
    points.push_back(run_fig8(512, 32ull << 20, 14.57));
    points.push_back(run_fig8(1024, 32ull << 20, 1.63));
    points.push_back(run_fig8(4096, 32ull << 20, 12.06));
    points.push_back(run_fig10(16, 16, 100ull << 20, 2, 16.7));
    points.push_back(run_racked(8, 128, 8ull << 20, 1, 0.0));
    // 2 MB, not 8: the larger racked shape at 8 MB multiplies the bench
    // wall for no extra coverage.
    points.push_back(run_racked(16, 256, 2ull << 20, 1, 0.0));
    // Mega-scale point: ~27 s here vs ~2.5 min on the pre-splitting
    // tree (seed extrapolated from its measured n^1.8 wall scaling at
    // 1024/4096/8192). Too heavy for every CI run — opt in with
    // RDMC_BIG_BENCH=1.
    if (std::getenv("RDMC_BIG_BENCH") != nullptr)
      points.push_back(run_fig8(16384, 32ull << 20, 150.0));
  }

  std::printf("%-24s %10s %12s %12s %12s %10s %9s\n", "point", "wall_s",
              "events", "reallocs", "fill_rounds", "avg_touch", "speedup");
  for (const auto& p : points) {
    const double avg_touch =
        p.perf.reallocations
            ? (double)p.perf.flows_touched / (double)p.perf.reallocations
            : 0.0;
    // Rows without a seed reference print n/a, as BENCH_core.json writes
    // null for them.
    char speedup[16] = "n/a";
    if (p.seed_wall_seconds > 0.0 && p.perf.wall_seconds > 0)
      std::snprintf(speedup, sizeof speedup, "%.2fx",
                    p.seed_wall_seconds / p.perf.wall_seconds);
    std::printf("%-24s %10.3f %12llu %12llu %12llu %10.1f %9s\n",
                p.name.c_str(), p.perf.wall_seconds,
                (unsigned long long)p.perf.events_processed,
                (unsigned long long)p.perf.reallocations,
                (unsigned long long)p.perf.filling_rounds, avg_touch, speedup);
  }

  std::string json = "{\n  \"bench\": \"perf_core\",\n";
  json += quick ? "  \"quick\": true,\n" : "  \"quick\": false,\n";
  json += "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    append_json(json, points[i]);
    json += i + 1 < points.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  const char* path = "BENCH_core.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
  } else {
    std::fprintf(stderr, "failed to open %s for writing\n", path);
    return 1;
  }
  return 0;
}
