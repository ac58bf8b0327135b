// Deterministic work-sharing executor: invoke fn(i) for i in [0, count)
// on up to `jobs` threads, blocking until the range drains.
//
// This is the one thread pool in the tree, and its callers are sweeps:
// every sweep in this repo — chaos seeds, figure points, ablation cells —
// is embarrassingly parallel. Each item builds its own SimCluster (own
// Simulator, FlowNetwork, MetricsRegistry) and shares nothing with its
// neighbours. The only process-wide state a simulation touches is the
// TraceRecorder singleton, which workers redirect per item with
// obs::TraceRecorder::ThreadShard so the merged trace comes out in input
// order (see run_chaos_campaign).
//
// Scheduling is a single shared atomic cursor: workers claim the next
// unclaimed index until the range is drained, so a slow item never stalls
// the pool behind a static partition. Results must be written to
// per-index slots — the executor guarantees each index runs exactly once,
// not where or when. `jobs <= 1` runs inline on the calling thread, which
// keeps single-job runs bit-identical to a plain loop.
#pragma once

#include <cstddef>
#include <functional>

namespace rdmc::util {

/// Worker count for "one per hardware thread" requests: the hardware
/// concurrency, at least 1.
std::size_t default_jobs();

/// Invoke `fn(i)` for every i in [0, count), using up to `jobs` worker
/// threads (clamped to count). Blocks until all items finish. The first
/// exception thrown by any item is rethrown on the calling thread after
/// the pool drains.
void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace rdmc::util
