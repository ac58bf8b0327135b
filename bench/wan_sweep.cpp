// WAN crossover sweep: loss x RTT x size x reliability policy over the
// unreliable-datagram multicast session (fig4-style report for the lossy
// regime RDMC's RC transport cannot enter).
//
// Each cell is one independent simulation: a wan_profile cluster (regions
// as racks, thin high-RTT inter-region links), a seeded DatagramFaultProfile
// on the fabric, and a UdMulticastSession running the chosen schedule under
// the chosen reliability policy. The OOB control mesh rides the same WAN,
// so NACK probe rounds are paced by the real RTT (options.oob_latency_s).
//
// The report the sweep exists for: with no reliability policy ("none",
// break-on-loss semantics minus the break), any nonzero loss leaves
// receivers permanently short of blocks and the transfer fails outright —
// while selective-repeat and erasure coding sustain a large fraction of the
// lossless goodput at the same loss rate. Erasure's parity overhead costs
// it at zero loss; NACK round-trips cost selective-repeat as loss x RTT
// grows — that is the crossover.
//
// A final traced cell feeds obs::analyze_ud_multicast and asserts that the
// transfer/wait/retransmit/repair tiling sums exactly to each receiver's
// measured delivery latency.
//
// Deterministic for any --jobs N: cells share nothing, workers record
// through TraceRecorder::ThreadShard, and rows assemble in input order.
// Telemetry follows the same scheme — each cell runs its own registry and
// TelemetryHub on virtual-time ticks, and --telemetry concatenates the
// per-cell JSONL in input order, so the file is byte-identical for any
// --jobs N. Cell latency histograms are merged (not dropped) across the
// sweep for an aggregate selective-repeat quantile table.
#include <cmath>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "fabric/sim_fabric.hpp"
#include "harness/telemetry_ticker.hpp"
#include "obs/telemetry.hpp"
#include "obs/ud_stall.hpp"
#include "reliability/session.hpp"
#include "sim/cluster_profiles.hpp"

using namespace rdmc;
using namespace rdmc::bench;

namespace {

constexpr std::size_t kRegions = 4;
constexpr std::size_t kNodesPerRegion = 2;
constexpr std::size_t kBlockSize = 256 * 1024;

struct Cell {
  double loss = 0.0;
  double rtt_ms = 30.0;
  std::uint64_t bytes = 16ull << 20;
  reliability::Policy policy = reliability::Policy::kSelectiveRepeat;
  sched::Algorithm algorithm = sched::Algorithm::kBinomialPipeline;
};

struct CellResult {
  bool complete = false;
  double seconds = 0.0;      // pump start -> slowest delivery
  double goodput_gbps = 0.0;  // decimal Gb/s of message bytes
  std::uint64_t drops = 0;
  std::uint64_t retx = 0;
  std::uint64_t probe_rounds = 0;
  std::uint64_t parity_blocks = 0;
  std::string telemetry;              // this cell's JSONL (may be empty)
  obs::HistogramSnapshot latency;     // per-receiver delivery latency
};

std::string cell_labels(const Cell& cell, std::size_t index) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "cell=%zu,loss=%g,rtt_ms=%g,mib=%llu,policy=%s,algo=%s",
                index, cell.loss, cell.rtt_ms,
                static_cast<unsigned long long>(cell.bytes >> 20),
                std::string(reliability::policy_name(cell.policy)).c_str(),
                std::string(sched::algorithm_name(cell.algorithm)).c_str());
  return buf;
}

CellResult run_cell(const Cell& cell, std::size_t index,
                    bool collect_telemetry) {
  auto profile = sim::wan_profile(kRegions, kNodesPerRegion, cell.rtt_ms);
  sim::Simulator simulator;
  sim::Topology topology(profile.topology);
  auto fopts = fabric::SimFabric::options_from(profile);
  fopts.oob_latency_s = cell.rtt_ms * 1e-3 / 2.0;  // control rides the WAN
  fabric::SimFabric fab(simulator, topology, fopts);

  fabric::DatagramFaultProfile faults;
  faults.loss = cell.loss;
  faults.duplicate = cell.loss / 10.0;
  faults.reorder = cell.loss;
  fab.set_datagram_faults(faults);

  std::vector<fabric::NodeId> members(fab.num_nodes());
  for (std::size_t n = 0; n < members.size(); ++n)
    members[n] = static_cast<fabric::NodeId>(n);

  // Per-cell metrics + telemetry: the registry is local so cells stay
  // independent; the UD session records into a labeled scope and the hub
  // ticks on virtual time (one window per RTT), which keeps the JSONL
  // byte-identical for any --jobs N.
  const std::string labels = cell_labels(cell, index);
  obs::MetricsRegistry registry;
  obs::TelemetryOptions topt;
  topt.labels = labels;
  topt.collect_jsonl = collect_telemetry;
  obs::TelemetryHub hub(registry, topt);
  harness::TelemetryTicker ticker(simulator, hub, cell.rtt_ms * 1e-3);

  reliability::SessionOptions sopts;
  sopts.algorithm = cell.algorithm;
  sopts.policy = cell.policy;
  sopts.block_size = kBlockSize;
  sopts.clock = [&simulator] { return simulator.now(); };
  sopts.charge_cpu = [&fab](fabric::NodeId node, double seconds) {
    return fab.charge_app_seconds(node, seconds);
  };
  sopts.metrics = &registry.scope(labels);
  reliability::UdMulticastSession session(fab, members, sopts);
  if (!session.send(nullptr, cell.bytes)) return {};
  ticker.ensure_scheduled();
  simulator.run();

  CellResult r;
  r.complete = session.all_complete();
  const auto& stats = session.stats();
  r.seconds = stats.last_deliver_ts - stats.msg_start_ts;
  if (r.complete && r.seconds > 0)
    r.goodput_gbps = static_cast<double>(cell.bytes) * 8.0 / r.seconds / 1e9;
  r.drops = fab.datagram_counters().dropped;
  r.retx = stats.retx_datagrams;
  r.probe_rounds = stats.probe_rounds;
  r.parity_blocks = stats.parity_blocks;
  r.telemetry = hub.jsonl();
  if (const auto* h = registry.find_histogram(
          sopts.metrics->decorate("ud.delivery_latency_s")))
    r.latency = h->snapshot();
  return r;
}

std::string goodput_cell(const CellResult& r, double lossless_gbps) {
  if (!r.complete) return "FAIL";
  std::string s = util::TextTable::num(r.goodput_gbps, 3);
  if (lossless_gbps > 0) {
    s += " (" +
         util::TextTable::num(100.0 * r.goodput_gbps / lossless_gbps, 0) +
         "%)";
  }
  return s;
}

/// Traced cell: run one lossy selective-repeat transfer with the recorder
/// on and check the UD stall tiling closes against measured latency.
int traced_cell(std::uint64_t bytes) {
  obs::TraceRecorder::instance().enable();
  const Cell cell{0.01, 30.0, bytes, reliability::Policy::kSelectiveRepeat,
                  sched::Algorithm::kBinomialPipeline};
  run_cell(cell, 0, /*collect_telemetry=*/false);
  const auto events = obs::TraceRecorder::instance().snapshot();
  obs::TraceRecorder::instance().disable();

  std::vector<std::uint32_t> members(kRegions * kNodesPerRegion);
  for (std::uint32_t i = 0; i < members.size(); ++i) members[i] = i;
  const auto analysis = obs::analyze_ud_multicast(events, members);
  for (const auto& w : analysis.warnings)
    std::printf("trace: warning: %s\n", w.c_str());

  std::printf("\nUD stall decomposition, traced cell (1%% loss, 30 ms RTT, "
              "selective-repeat; ms per receiver):\n");
  util::TextTable table({"node", "latency", "transfer", "wait", "retransmit",
                         "repair", "datagrams", "retx", "sum/latency"});
  double worst_rel = 0.0;
  for (const auto& r : analysis.receivers) {
    const double rel = r.latency_s > 0 ? r.sum() / r.latency_s : 1.0;
    worst_rel = std::max(worst_rel, std::abs(rel - 1.0));
    table.add_row({util::TextTable::integer(r.node),
                   util::TextTable::num(r.latency_s * 1e3, 3),
                   util::TextTable::num(r.transfer_s * 1e3, 3),
                   util::TextTable::num(r.wait_s * 1e3, 3),
                   util::TextTable::num(r.retransmit_s * 1e3, 3),
                   util::TextTable::num(r.repair_s * 1e3, 3),
                   util::TextTable::integer(r.datagrams),
                   util::TextTable::integer(r.retx_datagrams),
                   util::TextTable::num(rel, 6)});
  }
  table.print();
  const bool closed = analysis.ok() && worst_rel <= 1e-9;
  std::printf("stall tiling closure: worst |sum/latency - 1| = %.2e %s\n",
              worst_rel, closed ? "(exact)" : "(NOT EXACT)");
  return closed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = BenchOptions::parse(argc, argv);
  const bool quick = opts.quick;
  header("WAN sweep — loss x RTT x size x reliability policy (UD multicast)",
         "beyond the paper: the lossy/WAN regime its RC transport excludes "
         "(SDR-RDMA's motivating deployment)",
         "at any nonzero loss the policy-free transfer fails outright; "
         "selective-repeat holds most of the lossless goodput, erasure "
         "trades parity overhead at zero loss for immunity to NACK "
         "round-trips as loss x RTT grows");

  const std::vector<double> losses =
      quick ? std::vector<double>{0.0, 0.01}
            : std::vector<double>{0.0, 0.001, 0.01, 0.05};
  const std::vector<double> rtts =
      quick ? std::vector<double>{30.0} : std::vector<double>{10.0, 30.0, 100.0};
  const std::vector<std::uint64_t> sizes =
      quick ? std::vector<std::uint64_t>{4ull << 20}
            : std::vector<std::uint64_t>{4ull << 20, 16ull << 20};
  const reliability::Policy policies[] = {reliability::Policy::kNone,
                                          reliability::Policy::kSelectiveRepeat,
                                          reliability::Policy::kErasure};

  // -- Main crossover table (binomial pipeline) ----------------------------
  std::vector<Cell> cells;
  for (const double rtt : rtts)
    for (const std::uint64_t bytes : sizes)
      for (const double loss : losses)
        for (const reliability::Policy policy : policies)
          cells.push_back(Cell{loss, rtt, bytes, policy,
                               sched::Algorithm::kBinomialPipeline});

  const bool collect_telemetry = opts.telemetry != nullptr;
  std::vector<CellResult> results(cells.size());
  util::parallel_for(cells.size(), opts.jobs, [&](std::size_t i) {
    obs::TraceRecorder::ThreadShard shard;
    results[i] = run_cell(cells[i], i, collect_telemetry);
  });

  util::TextTable table({"rtt (ms)", "size", "loss", "none (Gb/s)",
                         "selective-repeat (Gb/s)", "erasure (Gb/s)",
                         "retx", "probes"});
  bool crossover_seen = false;
  for (std::size_t i = 0; i < cells.size(); i += 3) {
    const Cell& c = cells[i];
    // Lossless reference for this (rtt, size): the policy-free cell of the
    // loss = 0 row (cells are laid out loss-major within each pair).
    const std::size_t base = (i / (losses.size() * 3)) * (losses.size() * 3);
    const double lossless = results[base].goodput_gbps;
    const CellResult& none = results[i];
    const CellResult& sr = results[i + 1];
    const CellResult& rs = results[i + 2];
    table.add_row({util::TextTable::num(c.rtt_ms, 0),
                   util::format_bytes(c.bytes),
                   util::TextTable::num(c.loss * 100, 1) + "%",
                   goodput_cell(none, c.loss == 0 ? 0 : lossless),
                   goodput_cell(sr, lossless),
                   goodput_cell(rs, lossless),
                   util::TextTable::integer(sr.retx),
                   util::TextTable::integer(sr.probe_rounds)});
    if (c.loss > 0 && !none.complete && lossless > 0 &&
        sr.goodput_gbps >= 0.5 * lossless) {
      crossover_seen = true;
    }
  }
  table.print();
  std::printf("\ncrossover: %s\n",
              crossover_seen
                  ? "confirmed — policy-free transfer fails under loss while "
                    "selective-repeat holds >= 50% of lossless goodput"
                  : "NOT OBSERVED (expected a lossy row with none=FAIL and "
                    "selective-repeat >= 50% of lossless)");

  // -- Schedule comparison at the canonical lossy point --------------------
  const double sched_loss = 0.01, sched_rtt = 30.0;
  const std::uint64_t sched_bytes = sizes.back();
  const sched::Algorithm algs[] = {sched::Algorithm::kBinomialPipeline,
                                   sched::Algorithm::kChain,
                                   sched::Algorithm::kBinomialTree};
  std::vector<Cell> sched_cells;
  for (const sched::Algorithm alg : algs)
    for (const reliability::Policy policy :
         {reliability::Policy::kSelectiveRepeat, reliability::Policy::kErasure})
      sched_cells.push_back(Cell{sched_loss, sched_rtt, sched_bytes, policy, alg});
  std::vector<CellResult> sched_results(sched_cells.size());
  util::parallel_for(sched_cells.size(), opts.jobs, [&](std::size_t i) {
    obs::TraceRecorder::ThreadShard shard;
    sched_results[i] = run_cell(sched_cells[i], cells.size() + i,
                                collect_telemetry);
  });
  std::printf("\nSchedules at 1%% loss, 30 ms RTT, %s:\n",
              util::format_bytes(sched_bytes).c_str());
  util::TextTable stable({"schedule", "selective-repeat (Gb/s)",
                          "erasure (Gb/s)"});
  for (std::size_t i = 0; i < sched_cells.size(); i += 2) {
    stable.add_row({std::string(sched::algorithm_name(sched_cells[i].algorithm)),
                    goodput_cell(sched_results[i], 0),
                    goodput_cell(sched_results[i + 1], 0)});
  }
  stable.print();

  // -- Aggregate latency across cells (shard merge, not drop) --------------
  // Every selective-repeat cell's per-receiver delivery-latency snapshot
  // merges into one sweep-wide distribution.
  obs::HistogramSnapshot sr_latency;
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (cells[i].policy == reliability::Policy::kSelectiveRepeat)
      sr_latency.merge(results[i].latency);
  if (!sr_latency.empty()) {
    std::printf("\nselective-repeat delivery latency across all cells "
                "(%llu deliveries): p50 %.1f ms, p90 %.1f ms, p99 %.1f ms, "
                "max %.1f ms\n",
                static_cast<unsigned long long>(sr_latency.total),
                sr_latency.quantile(0.5) * 1e3,
                sr_latency.quantile(0.9) * 1e3,
                sr_latency.quantile(0.99) * 1e3, sr_latency.max * 1e3);
  }

  if (collect_telemetry) {
    std::string telemetry;
    for (const CellResult& r : results) telemetry += r.telemetry;
    for (const CellResult& r : sched_results) telemetry += r.telemetry;
    write_text(opts.telemetry, telemetry, "telemetry");
  }

  const int rc = traced_cell(sizes.front());
  write_trace(opts.trace);
  return rc;
}
