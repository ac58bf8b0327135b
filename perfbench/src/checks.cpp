#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void fill_payload(std::span<std::byte> buf, std::uint64_t seed,
                  std::uint64_t seq) {
  std::uint64_t state = mix64(seed ^ mix64(seq));
  std::size_t i = 0;
  for (; i + 8 <= buf.size(); i += 8) {
    state = mix64(state);
    std::memcpy(buf.data() + i, &state, 8);
  }
  state = mix64(state);
  for (; i < buf.size(); ++i, state >>= 8)
    buf[i] = static_cast<std::byte>(state & 0xFF);
  const std::size_t stamp = buf.size() < 8 ? buf.size() : 8;
  std::memcpy(buf.data(), &seq, stamp);
}

std::uint64_t read_stamp(const std::byte* buf) {
  std::uint64_t seq = 0;
  std::memcpy(&seq, buf, 8);
  return seq;
}

std::uint64_t checksum(std::span<const std::byte> buf) {
  // Four independent lanes keep the multiply latency off the critical path;
  // the lane index and position enter every word, so a swap of two words is
  // caught as surely as a flipped bit.
  std::uint64_t lanes[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                            0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  std::size_t i = 0;
  for (; i + 32 <= buf.size(); i += 32) {
    for (int l = 0; l < 4; ++l) {
      std::uint64_t w = 0;
      std::memcpy(&w, buf.data() + i + 8 * l, 8);
      lanes[l] = (lanes[l] ^ w) * 0x9FB21C651E98DF25ull + i;
    }
  }
  std::uint64_t tail = 0;
  for (; i < buf.size(); ++i)
    tail = (tail ^ static_cast<std::uint8_t>(buf[i])) * 0x100000001B3ull + i;
  std::uint64_t h = mix64(buf.size()) ^ mix64(tail);
  for (std::uint64_t lane : lanes) h = mix64(h ^ lane);
  return h;
}

bool OrderChecker::deliver(std::uint64_t stamp) {
  if (stamp != next_) {
    ++violations_;
    // Resynchronise past a gap; a duplicate or a late message leaves the
    // expectation where it was.
    if (stamp > next_) next_ = stamp + 1;
    return false;
  }
  ++next_;
  return true;
}

double doubling_bound_s(std::uint64_t bytes, std::uint64_t block,
                        std::size_t n, double nic_Bps) {
  if (bytes == 0 || n < 2) return 0.0;
  const std::uint64_t b = bytes < block ? bytes : block;
  const std::uint64_t k = (bytes + b - 1) / b;
  std::size_t hops = 0;
  while ((std::size_t{1} << hops) < n) ++hops;
  return static_cast<double>(k + hops - 1) * static_cast<double>(b) / nic_Bps;
}

bool meets_doubling_bound(double latency_s, double bound_s) {
  return latency_s >= bound_s * (1.0 - 1e-9);
}

bool within_line_rate(std::uint64_t bytes, double seconds, double nic_Bps) {
  return seconds > 0.0 &&
         static_cast<double>(bytes) / seconds <= nic_Bps * (1.0 + 1e-9);
}

std::vector<std::string> self_test() {
  std::vector<std::string> failed;
  auto expect = [&failed](bool ok, const char* name) {
    if (!ok) failed.emplace_back(name);
  };

  // Payload checksum: a flipped byte anywhere must change it.
  std::vector<std::byte> payload(4096 + 5);
  fill_payload(payload, 42, 7);
  const std::uint64_t sum = checksum(payload);
  expect(read_stamp(payload.data()) == 7, "payload.stamp");
  for (std::size_t pos : {std::size_t{9}, std::size_t{2048},
                          payload.size() - 1}) {
    payload[pos] ^= std::byte{0x01};
    expect(checksum(payload) != sum, "payload.flipped_byte");
    payload[pos] ^= std::byte{0x01};
  }
  expect(checksum(payload) == sum, "payload.intact");
  // Two swapped words must change it too.
  std::vector<std::byte> swapped = payload;
  std::swap_ranges(swapped.begin() + 64, swapped.begin() + 72,
                   swapped.begin() + 96);
  expect(checksum(swapped) != sum, "payload.swapped_words");

  // Order checker: swapped order and duplicates are rejected.
  {
    OrderChecker in_order;
    bool ok = true;
    for (std::uint64_t s : {0, 1, 2, 3}) ok = in_order.deliver(s) && ok;
    expect(ok && in_order.violations() == 0, "order.accepts_in_order");
  }
  {
    OrderChecker swap;
    bool ok = true;
    for (std::uint64_t s : {0, 2, 1, 3}) ok = swap.deliver(s) && ok;
    expect(!ok && swap.violations() > 0, "order.swapped");
  }
  {
    OrderChecker dup;
    bool ok = true;
    for (std::uint64_t s : {0, 1, 1, 2}) ok = dup.deliver(s) && ok;
    expect(!ok && dup.violations() > 0, "order.duplicate");
  }

  // Doubling bound: 4 blocks of 1 MB to 8 members at 1 GB/s is 6 block
  // times; a simulated time a hair below it is rejected.
  const double bound = doubling_bound_s(4 << 20, 1 << 20, 8, 1e9);
  expect(std::abs(bound - 6.0 * (1 << 20) / 1e9) < 1e-15, "bound.value");
  expect(meets_doubling_bound(bound, bound), "bound.accepts_equal");
  expect(!meets_doubling_bound(bound * 0.999, bound), "bound.below");
  expect(within_line_rate(1000, 1e-6, 1e9), "line_rate.accepts");
  expect(!within_line_rate(1001, 1e-6, 1e9), "line_rate.exceeds");
  return failed;
}

}  // namespace perfbench
