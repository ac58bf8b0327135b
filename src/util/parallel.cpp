#include "util/parallel.hpp"

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace rdmc::util {

std::size_t default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (jobs > count) jobs = count;
  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  Mutex error_mutex;
  // Guarded by error_mutex while workers run (GUARDED_BY does not apply to
  // locals); the final read happens after every worker has joined.
  std::exception_ptr first_error;
  const auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (std::size_t t = 0; t < jobs; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rdmc::util
