// Output checks, computed apart from the program.
//
// The benchmark never trusts the engine's own bookkeeping for correctness:
// payloads are generated here from the run's seed and checksummed here,
// every message carries a sequence stamp the receivers' order checkers
// read, and simulated latencies are held against a lower bound derived here
// from first principles. Each checker is exercised against a deliberately
// broken input by self_test() on every run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64 step; the benchmark's only random source.
std::uint64_t mix64(std::uint64_t x);

/// Fill `buf` with the payload of message `seq` under `seed`. The first
/// eight bytes are the sequence stamp; the rest is a seeded byte stream.
void fill_payload(std::span<std::byte> buf, std::uint64_t seed,
                  std::uint64_t seq);

/// The stamp fill_payload wrote (buf must hold at least eight bytes).
std::uint64_t read_stamp(const std::byte* buf);

/// Order-sensitive 64-bit checksum of a byte range.
std::uint64_t checksum(std::span<const std::byte> buf);

/// Per-receiver delivery order: message stamps must arrive as 0, 1, 2, ...
/// exactly once each (the §3 contract: in order, no duplicates, no gaps).
class OrderChecker {
 public:
  /// Returns false (and counts a violation) on a duplicate, a reordering or
  /// a gap.
  bool deliver(std::uint64_t stamp);
  std::uint64_t violations() const { return violations_; }

 private:
  std::uint64_t next_ = 0;
  std::uint64_t violations_ = 0;
};

/// Lower bound on any multicast of `bytes` in blocks of `block` bytes to
/// `n` members over NICs of `nic_Bps` bytes/s: the last of k blocks leaves
/// the root no earlier than k block times in, and reaching n members takes
/// at least ceil(log2 n) doubling hops — (k + ceil(log2 n) - 1) block times.
double doubling_bound_s(std::uint64_t bytes, std::uint64_t block,
                        std::size_t n, double nic_Bps);

/// A simulated latency passes if it is not below the doubling bound (a
/// relative slack of 1e-9 absorbs rounding in the simulator's clock).
bool meets_doubling_bound(double latency_s, double bound_s);

/// A root's goodput passes if it does not exceed its NIC line rate.
bool within_line_rate(std::uint64_t bytes, double seconds, double nic_Bps);

/// Run every checker against a broken input it must reject (and a good one
/// it must accept). Returns the names of the checkers that failed.
std::vector<std::string> self_test();

}  // namespace perfbench
