// Fixture: one violation per rule, each carrying a reasoned inline
// suppression — must pass as-is. The test runner also strips every
// rdmc-lint comment from a copy and asserts every rule then fires
// (round-trip).
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <vector>

double stamped() {
  // rdmc-lint: allow(wall-clock) fixture: pretend factory boundary
  auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

int entropy() {
  return rand();  // rdmc-lint: allow(unseeded-rng) fixture: same-line form
}

long bucket_sum() {
  std::unordered_map<int, int> counts{{1, 2}, {3, 4}};
  long total = 0;
  // rdmc-lint: allow(unordered-iter) fixture: per-entry add is order-independent
  for (const auto& [k, v] : counts) total += v;
  return total;
}

struct Widget {
  int x;
};
// rdmc-lint: allow(pointer-order) fixture: pretend a stable id is impossible
std::map<Widget*, int> by_widget;

double fp_sum(const std::vector<double>& xs) {
  // rdmc-lint: allow(float-accumulate) fixture: tolerance-checked downstream
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

class Guard {
  // rdmc-lint: allow(raw-mutex) fixture: pretend TSA cannot model this one
  mutable std::mutex mutex_;
};
