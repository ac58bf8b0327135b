// Fixture: the sanctioned parallel-fill shape — workers write only
// per-index result slots and per-worker scratch; the shared counters are
// updated afterwards, serially, in canonical order.
#include <cstddef>
#include <cstdint>
#include <vector>

template <typename F>
void parallel_for_workers(std::size_t n, std::size_t jobs, F f);

class Net {
  struct Counters {
    std::uint64_t filling_rounds = 0;
  };
  Counters counters_;
  std::vector<std::uint64_t> fill_pops_;
  std::vector<std::vector<int>> worker_heaps_;
  std::uint64_t run_one(std::size_t i, std::vector<int>& heap);

  void fill(std::size_t n) {
    fill_pops_.assign(n, 0);
    worker_heaps_.resize(4);
    parallel_for_workers(n, 4, [&](std::size_t w, std::size_t i) {
      // Per-index slot, per-worker heap.
      fill_pops_[i] = run_one(i, worker_heaps_[w]);
    });
    // Serial epilogue: merge in index order, touch shared state here only.
    for (std::size_t i = 0; i < n; ++i)
      counters_.filling_rounds += fill_pops_[i];
  }
};
