// Fixture: shared fill state mutated inside parallel worker loops. Every
// write here races across workers AND makes the counts depend on the
// interleaving — both sides of the byte-identical contract broken at once.
#include <cstddef>
#include <cstdint>

template <typename F>
void parallel_for_workers(std::size_t n, std::size_t jobs, F f);
template <typename F>
void parallel_for(std::size_t n, std::size_t jobs, F f);

class Net {
  struct Counters {
    std::uint64_t filling_rounds = 0;
    std::uint64_t component_fills = 0;
    std::uint64_t max_component = 0;
  };
  Counters counters_;

  void fill(std::size_t n) {
    parallel_for_workers(n, 4, [&](std::size_t w, std::size_t i) {
      ++counters_.filling_rounds;
      counters_.component_fills += 1;
    });
  }

  void widest(std::size_t n) {
    parallel_for(n, 4, [&](std::size_t i) { counters_.max_component = i; });
  }
};
