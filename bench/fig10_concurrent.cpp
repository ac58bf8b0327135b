// Figure 10: aggregate bandwidth of concurrent multicasts to overlapping
// groups (identical membership, rotated roots) on Fractus (full bisection)
// and Apt (oversubscribed TOR), varying the fraction of active senders.
#include "bench_util.hpp"
#include "harness/sim_harness.hpp"

using namespace rdmc;
using namespace rdmc::bench;

namespace {

void run_cluster(const char* name, const sim::ClusterProfile& base,
                 const std::vector<std::size_t>& group_sizes,
                 const std::vector<std::uint64_t>& sizes, bool quick,
                 std::size_t jobs) {
  std::printf("\n--- Figure 10 (%s) ---\n", name);
  // Flatten every (message, group size, sender count) cell into one work
  // list for the sweep executor; each cell is an independent simulation and
  // the tables are assembled in input order afterwards.
  struct Cell {
    std::uint64_t message;
    std::size_t group_size;
    std::size_t senders;
  };
  std::vector<Cell> cells;
  for (std::uint64_t message : sizes)
    for (std::size_t n : group_sizes)
      for (std::size_t senders :
           {n, std::max<std::size_t>(1, n / 2), std::size_t{1}})
        cells.push_back({message, n, senders});

  std::vector<double> gbps(cells.size());
  util::parallel_for(cells.size(), jobs, [&](std::size_t i) {
    const Cell& cell = cells[i];
    harness::ConcurrentConfig cfg;
    cfg.profile = base;
    cfg.group_size = cell.group_size;
    cfg.senders = cell.senders;
    cfg.message_bytes = cell.message;
    cfg.block_size = std::min<std::size_t>(1 << 20, cell.message);
    cfg.messages = quick ? 2 : (cell.message >= (16ull << 20) ? 2 : 6);
    gbps[i] = harness::run_concurrent(cfg).aggregate_gbps;
  });

  std::size_t i = 0;
  for (std::uint64_t message : sizes) {
    util::TextTable table({"group size", "all send (Gb/s)",
                           "half send (Gb/s)", "one send (Gb/s)"});
    for (std::size_t n : group_sizes) {
      std::vector<std::string> row{util::TextTable::integer(n)};
      for (std::size_t s = 0; s < 3; ++s)
        row.push_back(util::TextTable::num(gbps[i++], 2));
      table.add_row(std::move(row));
    }
    std::printf("\nmessage size %s per sender:\n",
                util::format_bytes(message).c_str());
    table.print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = BenchOptions::parse(argc, argv);
  const bool quick = opts.quick;
  const std::size_t jobs = opts.jobs;
  header("Figure 10 — aggregate bandwidth of concurrent overlapping groups",
         "Fig 10a (Fractus) and Fig 10b (Apt), §5.2.2",
         "Fractus approaches its ~100 Gb/s bisection for large messages; "
         "Apt's oversubscribed TOR caps aggregate inter-rack goodput near "
         "16 Gb/s per link under load; no interference collapse from "
         "overlap");

  // The "100 MB" series is simulated at 16 MB: both run at steady-state
  // bandwidth (k >> log n), so the aggregate-Gb/s values are equivalent.
  std::vector<std::uint64_t> sizes{16ull << 20, 1ull << 20, 64ull << 10};
  if (quick) sizes = {4ull << 20, 1ull << 20};

  run_cluster("Fractus, full bisection", sim::fractus_profile(16),
              {4, 8, 12, 16}, sizes, quick, jobs);

  // Apt groups span racks (16 nodes/rack), like the paper's batch-placed
  // allocations.
  run_cluster("Apt, oversubscribed TOR", sim::apt_profile(32),
              {8, 16, 24, 32}, sizes, quick, jobs);
  return 0;
}
