// GLOBAL-LRU: the "do nothing special" baseline — all p processors share a
// single LRU pool of k pages with no explicit partitioning.
//
// This is what a plain shared cache does in practice. It lives outside the
// box model (no compartments, no allocation decisions), so it is simulated
// directly: each processor issues its next request as soon as the previous
// one is served; a hit costs 1 tick, a miss costs s; evictions follow the
// global recency order. Requests are served in (ready time, proc) order,
// ties by processor id.
//
// Each request costs one LruSet probe (access() says hit or miss) and O(1)
// queue work:
//   * Span buffers. Each processor's cursor is read through a 16-request
//     buffer filled by next_span, one virtual call per 16 requests.
//   * Two FIFOs, not a heap. A served request re-enters its processor at
//     now + 1 (hit) or now + s (miss); each cost class has its own FIFO and
//     a pop takes the smaller head. Pops come out in nondecreasing
//     (time, proc) order, and adding the class's fixed cost keeps that
//     order, so each FIFO is sorted and the smaller head is the global
//     minimum: the order is exactly the heap's.
//   * Stream screens, the same ones BoxRunner applies on refill: a span
//     holding the reserved kInvalidPage sentinel, or a cursor whose
//     next_span returns 0 while it is not done() (a stalled stream), throws
//     PpgException(kCorruptTrace) at the request's stream offset instead of
//     polluting the shared pool or looping forever. A stream that ends
//     early (done()) just finishes its processor.
#pragma once

#include <memory>

#include "core/metrics.hpp"
#include "core/scheduler.hpp"
#include "trace/trace.hpp"
#include "trace/trace_source.hpp"
#include "util/types.hpp"

namespace ppg {

struct GlobalLruConfig {
  Height cache_size = 0;  ///< k.
  Time miss_cost = 2;     ///< s.
};

/// Streams each processor's requests from a cursor; memory is O(k + p)
/// regardless of trace length. The MultiTrace overload delegates here and
/// produces byte-identical results. Throws kCorruptTrace on a hostile or
/// stalled stream (see the file comment).
ParallelRunResult run_global_lru(const MultiTraceSource& sources,
                                 const GlobalLruConfig& config);
ParallelRunResult run_global_lru(const MultiTrace& traces,
                                 const GlobalLruConfig& config);

/// Box-model facade of the shared-pool baseline, for the robustness layer:
/// each processor holds a chained continuation box of height
/// max(1, pow2_floor(k/p)) — a power of two, so it satisfies the paper's
/// height-ladder contract and can be wrapped by ValidatingScheduler /
/// FaultInjectingScheduler (the measured GLOBAL-LRU baseline remains the
/// direct simulation above, which has no box stream to decorate).
/// name() is "GLOBAL-LRU(box)".
std::unique_ptr<BoxScheduler> make_global_lru_box_facade();

}  // namespace ppg
