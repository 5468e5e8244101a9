#include "opt/opt_bounds.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "green/green_opt.hpp"
#include "paging/belady.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/hier_bitset.hpp"
#include "util/math_util.hpp"

namespace ppg {

namespace {

/// What one forward pass over a processor's requests yields.
struct PassResult {
  std::uint64_t requests = 0;
  std::uint64_t distinct = 0;
  Impact impact = 0;
};

/// One forward pass per processor, reading the source once through
/// next_span. Each request takes one probe into NextUseBuilder's
/// page -> last-position table, which gives its previous use `prev`, the
/// next-use array Belady needs, and the distinct-page count.
///
/// The impact term: a warm request's stack distance d is the number of
/// distinct pages used in (prev, i), i.e. the positions in (prev, i) that
/// are still the latest use of their page. `latest_` holds exactly those
/// positions, so d is a bit count. Since min(s, d + 1) = s once
/// d >= s - 1, the count stops at s - 1, and runs of empty words are
/// skipped through the bitset's summary levels, so a request's cost does
/// not grow with how far back prev lies. Cold requests cost s.
///
/// The Belady term: with at most k distinct pages Belady never evicts, so
/// it faults once per page, exactly; otherwise belady_faults replays the
/// next-use array. compute_opt_bounds takes a fresh pass per processor:
/// reusing one would keep the longest trace's next-use array and the
/// largest page table alive together, raising peak memory.
class BoundsPass {
 public:
  PassResult run(TraceCursor& cursor, std::uint64_t size_hint,
                 Time miss_cost) {
    PPG_CHECK(miss_cost >= 1);
    const std::size_t hint = static_cast<std::size_t>(
        std::min<std::uint64_t>(size_hint, kNoNextUse));
    uses_.reset(hint);
    latest_.reset(hint);
    const std::size_t cap = static_cast<std::size_t>(miss_cost - 1);
    PassResult result;
    std::array<PageId, 1024> span;
    for (;;) {
      const std::size_t got = cursor.next_span(span.data(), span.size());
      if (got == 0) {
        if (!cursor.done()) {
          throw_error(ErrorCode::kCorruptTrace,
                      "trace stream stalled: no request and not done",
                      cursor.position());
        }
        break;
      }
      latest_.grow(uses_.size() + got);
      for (std::size_t j = 0; j < got; ++j) {
        const std::size_t i = uses_.size();
        const std::uint32_t prev = uses_.push(span[j]);
        // Set i before clearing prev: on a run of one page the word then
        // never empties, so neither update climbs the summary levels.
        latest_.set(i);
        if (prev == kNoNextUse) {
          result.impact += miss_cost;
        } else {
          result.impact += latest_.count_between(prev, i, cap) + 1;
          latest_.clear(prev);
        }
      }
    }
    result.requests = uses_.size();
    result.distinct = uses_.distinct();
    return result;
  }

  /// n + (s - 1) * Belady faults at capacity `cache` for the trace of the
  /// last run().
  Time busy_min(const PassResult& pass, Height cache, Time miss_cost) const {
    const std::uint64_t faults = pass.distinct <= cache
                                     ? pass.distinct
                                     : belady_faults(uses_.next(), cache);
    return (pass.requests - faults) + faults * miss_cost;
  }

 private:
  NextUseBuilder uses_;
  HierBitset latest_;  // bit t set while t is the latest use of its page
};

}  // namespace

Time busy_min_single(const Trace& trace, Height cache, Time miss_cost) {
  if (trace.empty()) return 0;
  BoundsPass pass;
  const auto cursor = VectorTraceSource::view(trace)->cursor();
  const PassResult r = pass.run(*cursor, trace.size(), miss_cost);
  return pass.busy_min(r, cache, miss_cost);
}

Impact impact_lb_stack(TraceCursor& cursor, Time miss_cost) {
  return BoundsPass().run(cursor, 0, miss_cost).impact;
}

Impact impact_lb_stack(const Trace& trace, Time miss_cost) {
  const auto cursor = VectorTraceSource::view(trace)->cursor();
  return BoundsPass().run(*cursor, trace.size(), miss_cost).impact;
}

Time OptBounds::lower_bound() const {
  return std::max({lb_max_length, lb_max_single, lb_impact});
}

std::vector<double> per_proc_stretch(const std::vector<Time>& busy_min,
                                     const std::vector<Time>& completion) {
  PPG_CHECK(completion.size() == busy_min.size());
  std::vector<double> stretch(busy_min.size(), 1.0);
  for (std::size_t i = 0; i < busy_min.size(); ++i) {
    if (busy_min[i] == 0) continue;
    stretch[i] = static_cast<double>(completion[i]) /
                 static_cast<double>(busy_min[i]);
  }
  return stretch;
}

std::vector<double> per_proc_stretch(const MultiTrace& traces,
                                     const std::vector<Time>& completion,
                                     Height cache_size, Time miss_cost) {
  OptBoundsConfig config;
  config.cache_size = cache_size;
  config.miss_cost = miss_cost;
  return per_proc_stretch(compute_opt_bounds(traces, config).busy_min,
                          completion);
}

OptBounds compute_opt_bounds(const MultiTraceSource& sources,
                             const OptBoundsConfig& config) {
  PPG_CHECK(config.cache_size >= 1);
  OptBounds bounds;
  bounds.busy_min.reserve(sources.num_procs());
  Impact impact_sum = 0;
  const Height h_max = std::max<Height>(
      1, static_cast<Height>(pow2_floor(config.cache_size)));
  const HeightLadder full_ladder{1, h_max};
  // Only the exact DP needs a whole trace at once; a lazy source is then
  // drained into `storage`, one processor at a time.
  const bool may_use_dp = config.exact_impact_max_requests > 0;

  for (ProcId i = 0; i < sources.num_procs(); ++i) {
    const TraceSource& source = sources.source(i);
    Trace storage;
    const Trace* trace = source.materialized();
    if (trace == nullptr && may_use_dp) {
      storage = materialize(source);
      trace = &storage;
    }
    const auto cursor = trace != nullptr
                            ? VectorTraceSource::view(*trace)->cursor()
                            : source.cursor();
    BoundsPass pass;
    const PassResult r =
        pass.run(*cursor, source.num_requests(), config.miss_cost);
    bounds.lb_max_length = std::max<Time>(bounds.lb_max_length, r.requests);
    bounds.busy_min.push_back(
        pass.busy_min(r, config.cache_size, config.miss_cost));
    bounds.lb_max_single =
        std::max(bounds.lb_max_single, bounds.busy_min.back());
    if (may_use_dp && r.requests <= config.exact_impact_max_requests)
      impact_sum += green_opt_impact(*trace, full_ladder, config.miss_cost);
    else
      impact_sum += r.impact;
  }
  bounds.lb_impact = impact_sum / config.cache_size;
  return bounds;
}

OptBounds compute_opt_bounds(const MultiTrace& traces,
                             const OptBoundsConfig& config) {
  return compute_opt_bounds(MultiTraceSource::view_of(traces), config);
}

}  // namespace ppg
