// The benchmark's workloads. Each run of the benchmark process drives one
// workload for a fixed host-time budget, as whole repetitions: a repetition
// sets the system up from nothing, runs the measured phases, checks every
// output and tears everything down again.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Metrics = std::map<std::string, double>;

/// One repetition's outcome.
struct Rep {
  /// End-to-end metrics (all but peak_rss_mb, which is per process) plus,
  /// on a traced run, the per-layer metrics.
  Metrics values;
  /// One-at-a-time small-message latencies, microseconds.
  std::vector<double> small_latencies_us;
  /// Operations (messages multicast to every receiver) and those that
  /// failed any check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Descriptions of the first few failed checks.
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Rep run_rep() = 0;
  /// Per-layer metrics measured once per traced run, outside the
  /// repetitions (reference probes).
  virtual Metrics run_probes() { return {}; }
  /// Set up and tear down once more, returning the set-up seconds; an
  /// untraced run fills what is left of its budget with these so that
  /// setup_s is a median of several samples even where repetitions are
  /// long. Null where repetitions are short enough on their own.
  virtual std::optional<double> setup_only() { return std::nullopt; }
};

/// sim_pipeline, sim_concurrent or sim_racked; null for another name.
std::unique_ptr<Workload> make_sim_workload(const std::string& name,
                                            std::uint64_t seed, bool traced);
/// engine_mem.
std::unique_ptr<Workload> make_engine_workload(std::uint64_t seed,
                                               bool traced);

/// Small-message size of message `index` under `seed`: 1 KB +- 64 B, so a
/// seed changes the simulated small-message times, not only their jitter.
std::uint64_t small_size(std::uint64_t seed, std::uint64_t index);
constexpr std::uint64_t kSmallMaxBytes = 1024 + 64;

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Note a failed check on a repetition (keeps the first few descriptions).
void note_error(Rep& rep, std::string what);

}  // namespace perfbench
