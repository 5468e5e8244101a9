// Lower bounds on the offline optimum.
//
// Offline parallel paging is NP-hard, so experiments report competitive
// ratios against a certified lower-bound bracket T_LB <= T_OPT; measured
// ratios are therefore upper bounds on the true ratio and can never flatter
// an algorithm. Three bounds are combined:
//
//   1. max_i |R^i|              — every request takes at least one tick;
//   2. max_i BusyMin_k(R^i)     — a processor cannot beat having the whole
//                                 cache k to itself with Belady eviction:
//                                 n_i + (s-1) * OPT-faults;
//   3. (sum_i I_LB(R^i)) / k    — memory-impact conservation: OPT has at
//                                 most k page-ticks available per tick, and
//                                 servicing R^i under ANY compartmentalized
//                                 profile costs at least I_LB(R^i).
//
// All three come from one forward pass per processor that reads its
// source once through cursor()->next_span, lazy sources included, without
// materializing it (except for the exact DP below). Each request costs one probe into a flat
// page -> last-position table (paging/belady.hpp's NextUseBuilder), which
// yields the request's previous use, the 32-bit next-use array Belady
// needs, and the distinct-page count:
//
//   * I_LB (impact_lb_stack) — a request either misses (impact >= s, one
//     page held for s ticks) or hits inside its box, which requires the
//     box height to exceed its stack distance d (impact >= d+1 for that
//     tick). Hence I >= sum_r min(s, d_r + 1), with cold requests counting
//     as misses; valid for every compartmentalized box profile. d is the
//     number of positions in (prev, i) that are still the latest use of
//     their page: a bit count over a position bitset, counted down from i
//     and stopped at s-1, with a 64-ary summary level skipping empty words,
//     so a request's cost does not grow with the gap i - prev.
//   * BusyMin — with at most k distinct pages Belady never evicts, so it
//     faults once per page and busy_min = n + (s-1) * distinct, exactly.
//     Otherwise Belady's faults are counted from the next-use array alone
//     (belady_faults: a hierarchical bitset keyed by next use, O(log64 n)
//     word operations per request, no page ids).
//
// Memory per processor: O(n/8 + distinct) bytes for the bitset and the
// table, plus the 4n-byte next-use array, for one processor at a time, so
// the peak is set by the longest trace.
//
// green_opt_impact — the exact DP of green_opt.hpp — replaces I_LB on
// traces no longer than OptBoundsConfig::exact_impact_max_requests (tight,
// but O(n * s * k) and it needs the whole trace: only then is a lazy
// source materialized, one processor at a time).
#pragma once

#include <cstdint>
#include <vector>

#include "green/box.hpp"
#include "trace/trace.hpp"
#include "trace/trace_source.hpp"
#include "util/types.hpp"

namespace ppg {

/// n + (s-1) * Belady faults at capacity `cache`: minimal busy time of the
/// trace on a dedicated cache. The BusyMin term of the bounds pass.
Time busy_min_single(const Trace& trace, Height cache, Time miss_cost);

/// Stack-distance impact lower bound: the I_LB term of the bounds pass.
Impact impact_lb_stack(const Trace& trace, Time miss_cost);

/// The same over a cursor, which the pass drains (a stalled stream, one
/// that returns nothing before it is done, throws kCorruptTrace).
Impact impact_lb_stack(TraceCursor& cursor, Time miss_cost);

struct OptBounds {
  Time lb_max_length = 0;
  Time lb_max_single = 0;
  Time lb_impact = 0;
  /// busy_min_single of every processor at capacity k (lb_max_single is
  /// its max): the denominators of per_proc_stretch. Cells journaled by
  /// the cell codec do not carry it (a decoded OptBounds has it empty), so
  /// a bench derives its per-processor columns inside the cell.
  std::vector<Time> busy_min;

  Time lower_bound() const;
};

struct OptBoundsConfig {
  Height cache_size = 0;
  Time miss_cost = 2;
  /// Use the exact green-OPT DP for the impact term on traces no longer
  /// than this; the stack-distance estimator otherwise. 0 = always use the
  /// estimator.
  std::size_t exact_impact_max_requests = 0;
};

OptBounds compute_opt_bounds(const MultiTrace& traces,
                             const OptBoundsConfig& config);

/// Streamed instance: each source is read once, through its cursor, and
/// the bounds are identical to the MultiTrace overload (which delegates
/// here). A stalled stream throws kCorruptTrace; kInvalidPage is counted
/// as an ordinary page (rejecting it is the schedulers' screen).
OptBounds compute_opt_bounds(const MultiTraceSource& sources,
                             const OptBoundsConfig& config);

/// Per-processor stretch (slowdown): completion time divided by the
/// processor's dedicated-cache minimum busy time (OptBounds::busy_min).
/// Stretch 1 means "as fast as running alone on the whole cache"; large
/// stretches expose starvation. Empty traces report stretch 1. Compute
/// `busy_min` once per instance (compute_opt_bounds does) and reuse it for
/// every schedule.
std::vector<double> per_proc_stretch(const std::vector<Time>& busy_min,
                                     const std::vector<Time>& completion);

/// Convenience: compute_opt_bounds(traces).busy_min, then per_proc_stretch.
std::vector<double> per_proc_stretch(const MultiTrace& traces,
                                     const std::vector<Time>& completion,
                                     Height cache_size, Time miss_cost);

}  // namespace ppg
