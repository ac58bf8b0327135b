// Benchmark program: one workload per process, repeated for a host-time
// budget, reported as one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//   perfbench --self-test
//
// With --trace 0 the JSON carries the end-to-end metrics (each the median
// over the repetitions); with --trace 1 the decorators of layers.hpp are
// installed and it carries the per-layer metrics instead. Lines before the
// JSON are informational.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "checks.hpp"
#include "layers.hpp"
#include "workload.hpp"

namespace perfbench {

std::uint64_t small_size(std::uint64_t seed, std::uint64_t index) {
  return 1024 - 64 + mix64(mix64(seed) ^ (index + 1)) % 129;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void note_error(Rep& rep, std::string what) {
  if (rep.errors.size() < 8) rep.errors.push_back(std::move(what));
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"wall_s", "s"},          {"large_gbps", "Gb/s"},
    {"small_p50_us", "us"},   {"small_msgs_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"harness.cluster_build_s", "s"},
    {"core.group_create_s", "s"},
    {"core.group_rss_mb", "MB"},
    {"sim.run_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.self_s", "s"},
    {"sim.flow.reallocations", "count"},
    {"sim.flow.filling_rounds", "count"},
    {"sim.flow.flows_touched", "count"},
    {"sim.flow.touched_per_realloc", "ratio"},
    {"sim.flow.component_fills", "count"},
    {"sim.flow.expand_rounds", "count"},
    {"sim.flow.full_recomputes", "count"},
    {"sim.flow.max_component", "count"},
    {"sim.flow.memo_hit_rate", "ratio"},
    {"sim.flow.hier_fills", "count"},
    {"sim.flow.hier_fallbacks", "count"},
    {"sim.flow.split_cuts", "count"},
    {"sched.calls", "count"},
    {"sched.calls_per_block", "ratio"},
    {"sched.self_s", "s"},
    {"core.completions", "count"},
    {"core.handler_self_s", "s"},
    {"core.blocks_received", "count"},
    {"core.duplicate_blocks", "count"},
    {"core.send_call_us", "us"},
    {"core.copy_s", "s"},
    {"core.delivery_skew_us", "us"},
    {"core.bound_ratio", "ratio"},
    {"fabric.build_s", "s"},
    {"fabric.posts", "count"},
    {"fabric.post_self_s", "s"},
    {"fabric.post_to_completion_us", "us"},
    {"fabric.queue_depth_max", "count"},
    {"fabric.p2p_gbps", "Gb/s"},
    {"obs.stall.transfer_s", "s"},
    {"obs.stall.wait_s", "s"},
    {"obs.stall.software_s", "s"},
    {"obs.tiling_gap_us", "us"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>]\n"
               "       perfbench --self-test\n");
  return 2;
}

void write_spans(const std::string& path, const Tracer& tracer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const auto records = tracer.records();
  const double t0 = records.empty() ? 0.0 : records.front().start;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"thread\":%u,\"parent\":%lld,"
                 "\"seq\":%llu,\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 i, kind_name(r.kind), r.thread,
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.seq), r.start - t0,
                 r.end - t0);
  }
  std::fclose(f);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, spans_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool self_test_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--self-test") {
      self_test_only = true;
    } else if (value == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      workload = value, ++i;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10), ++i;
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr), ++i;
    } else if (arg == "--trace") {
      trace = std::atoi(value), ++i;
    } else if (arg == "--spans-out") {
      spans_out = value, ++i;
    } else {
      return usage();
    }
  }

  if (self_test_only) {
    const auto failed = self_test();
    for (const auto& name : failed)
      std::printf("checker self-test FAILED: %s\n", name.c_str());
    if (failed.empty()) std::printf("checker self-tests passed\n");
    return failed.empty() ? 0 : 1;
  }
  if (workload.empty() || seconds <= 0.0 || (trace != 0 && trace != 1))
    return usage();

  const bool traced = trace == 1;
  std::unique_ptr<Workload> w =
      workload == "engine_mem" ? make_engine_workload(seed, traced)
                               : make_sim_workload(workload, seed, traced);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  // Every repetition starts from fresh pages, as a new process would: with
  // glibc's adaptive mmap threshold, the first repetition's freed
  // block-sized buffers would raise the threshold and later repetitions
  // would reuse already-faulted heap pages, so set-up time would depend on
  // how many repetitions a run happened to fit.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  Tracer tracer;
  if (traced) Tracer::install(&tracer);

  Metrics probes = traced ? w->run_probes() : Metrics{};

  // Whole repetitions until the budget is spent: a repetition starts only
  // if one as long as the longest so far still fits.
  const double start = now_s();
  std::vector<Rep> reps;
  double longest = 0.0;
  do {
    const double t0 = now_s();
    reps.push_back(w->run_rep());
    longest = std::max(longest, now_s() - t0);
    if (!reps.back().errors.empty()) break;
  } while (now_s() - start + longest <= seconds);

  // Extra set-up samples in what is left of the budget.
  std::vector<double> setups;
  for (const Rep& r : reps) setups.push_back(r.values.at("setup_s"));
  double longest_setup = *std::max_element(setups.begin(), setups.end());
  while (!traced && now_s() - start + longest_setup <= seconds) {
    const double t0 = now_s();
    const auto setup = w->setup_only();
    if (!setup) break;
    setups.push_back(*setup);
    longest_setup = std::max(longest_setup, now_s() - t0);
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> small_all;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    small_all.insert(small_all.end(), r.small_latencies_us.begin(),
                     r.small_latencies_us.end());
    for (const auto& e : r.errors)
      std::printf("check failed: %s\n", e.c_str());
  }
  const bool correct = reps.back().errors.empty();

  Metrics result;
  for (const auto& [name, _] : reps.front().values) {
    std::vector<double> per_rep;
    for (const Rep& r : reps) {
      const auto it = r.values.find(name);
      if (it != r.values.end()) per_rep.push_back(it->second);
    }
    result[name] = median(per_rep);
  }
  result["setup_s"] = median(setups);
  result["peak_rss_mb"] = peak_rss_mb();
  for (const auto& [name, value] : probes) result[name] = value;
  if (traced && workload == "engine_mem")
    result["core.bound_ratio"] =
        result["large_gbps"] / result["fabric.p2p_gbps"];

  std::printf("workload=%s seed=%llu reps=%zu traced=%d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), reps.size(), trace);
  std::printf("small one-at-a-time: p50=%.3f us p99=%.3f us samples=%zu\n",
              median(small_all), quantile(small_all, 0.99), small_all.size());
  std::printf("end-to-end (medians over repetitions):");
  for (const MetricDef& m : kEndToEnd)
    std::printf(" %s=%.6g", m.name, result[m.name]);
  std::printf("\n");
  std::printf("set-up samples:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\nper repetition wall_s:");
  for (const Rep& r : reps) std::printf(" %.4f", r.values.at("wall_s"));
  std::printf("\n");
  if (traced && result["sim.run_s"] > 0) {
    // Inside Simulator::run every host second is self time of one of four
    // layers; report the worst repetition's mismatch.
    double worst = 0.0;
    for (const Rep& r : reps) {
      const auto& v = r.values;
      const double sum = v.at("sim.self_s") + v.at("sched.self_s") +
                         v.at("core.handler_self_s") +
                         v.at("fabric.post_self_s");
      worst = std::max(worst, std::abs(sum / v.at("sim.run_s") - 1.0));
    }
    std::printf("layer self times vs sim.run_s: worst mismatch %.3g\n", worst);
  }
  if (traced) {
    std::printf("span records dropped (aggregated only): %llu\n",
                static_cast<unsigned long long>(tracer.records_dropped()));
    if (!spans_out.empty()) write_spans(spans_out, tracer);
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    double v = result.count(m.name) ? result[m.name] : 0.0;
    if (!std::isfinite(v)) v = 0.0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    json += buf;
    first = false;
  };
  if (traced) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  Tracer::install(nullptr);
  return 0;
}
