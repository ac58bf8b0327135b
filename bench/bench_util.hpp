// Shared helpers for the benchmark binaries.
//
// Every bench regenerates one table or figure from the paper's evaluation
// (§5) on the simulated substrate and prints the same rows/series the paper
// reports. Pass --quick to shrink message sizes/iterations (CI smoke mode).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "util/bytes.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace rdmc::bench {

namespace detail {

/// Last `--name VALUE` or `--name=VALUE` occurrence, null when absent.
inline const char* flag_value(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  const char* found = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc)
      found = argv[i + 1];
    else if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
      found = argv[i] + len + 1;
  }
  return found;
}

/// Thread-count convention for --jobs: absent -> 1 (serial, the
/// bit-identical reference); 0 -> one per hardware thread.
inline std::size_t thread_count(const char* value) {
  if (value == nullptr) return 1;
  const long long n = std::atoll(value);
  if (n <= 0) return n == 0 ? util::default_jobs() : 1;
  return static_cast<std::size_t>(n);
}

}  // namespace detail

/// The flags every bench shares, parsed once at the top of main():
///
///   --quick           shrink sizes/iterations (CI smoke mode)
///   --jobs N          worker threads across independent sweep points
///                     (results independent of N, see util/parallel.hpp)
///   --trace out.json  record the unified trace and dump it for Perfetto
///   --telemetry out.jsonl  write the windowed telemetry time-series
///                     (benches that support it pair with write_text)
///
/// parse() ignores flags it does not know, so benches layer their own on
/// top (chaos_campaign --seeds, wan_sweep --loss). When --trace was passed
/// the recorder is enabled as a side effect; pair with write_trace(trace)
/// at exit.
struct BenchOptions {
  bool quick = false;
  std::size_t jobs = 1;
  const char* trace = nullptr;  // --trace output path, null = tracing off
  const char* telemetry = nullptr;  // --telemetry output path, null = off

  static BenchOptions parse(int argc, char** argv) {
    BenchOptions o;
    for (int i = 1; i < argc; ++i)
      if (std::strcmp(argv[i], "--quick") == 0) o.quick = true;
    o.jobs = detail::thread_count(detail::flag_value(argc, argv, "--jobs"));
    o.trace = detail::flag_value(argc, argv, "--trace");
    o.telemetry = detail::flag_value(argc, argv, "--telemetry");
    if (o.trace != nullptr) obs::TraceRecorder::instance().enable();
    return o;
  }
};

/// Write `text` (telemetry JSONL, incident JSON, ...) to `path` verbatim.
/// No-op when path is null. Prints a one-line confirmation.
inline void write_text(const char* path, const std::string& text,
                       const char* what) {
  if (path == nullptr) return;
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: failed to open %s\n", what, path);
    return;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("%s: %zu bytes -> %s\n", what, text.size(), path);
}

/// Dump the recorder to `path` as Chrome trace_event JSON (open in
/// ui.perfetto.dev). No-op when path is null.
inline void write_trace(const char* path) {
  if (path == nullptr) return;
  auto& rec = obs::TraceRecorder::instance();
  const auto events = rec.snapshot();
  if (!obs::write_chrome_json(path, events)) {
    std::fprintf(stderr, "trace: failed to write %s\n", path);
    return;
  }
  std::printf("trace: %zu events -> %s", events.size(), path);
  if (rec.dropped() > 0)
    std::printf(" (%llu oldest events dropped by ring wrap)",
                static_cast<unsigned long long>(rec.dropped()));
  std::printf("\n");
}

inline void header(const char* title, const char* paper_ref,
                   const char* expectation) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("Expected shape: %s\n", expectation);
  std::printf("==============================================================================\n");
}

}  // namespace rdmc::bench
