#include "opt/opt_bounds.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "green/green_opt.hpp"
#include "paging/cache_sim.hpp"
#include "trace/stack_distance.hpp"
#include "util/assert.hpp"
#include "util/lru_set.hpp"
#include "util/math_util.hpp"

namespace ppg {

Time busy_min_single(const Trace& trace, Height cache, Time miss_cost) {
  if (trace.empty()) return 0;
  const CacheSimResult r =
      simulate_policy(PolicyKind::kBelady, trace, cache, miss_cost);
  return r.time;
}

namespace {

/// The `depth` most recently used distinct pages: the top of the LRU stack,
/// which is all the impact bound can see. Each page in the window owns a
/// node (a fixed index while it stays) and a stamp (its last access; older
/// stamps are smaller). A bitset marks the live stamps, and a Fenwick tree
/// over its words' popcounts counts the pages used since a given one.
/// Stamps are renumbered densely when they run out, into at least four
/// times as many as there are pages, so memory is O(min(depth, distinct
/// pages)) and an access costs O(log depth) amortized, however many
/// distinct pages the trace has. Up to depth 16 the live stamps fit one
/// word and the tree has a single node.
class RecencyWindow {
 public:
  explicit RecencyWindow(std::uint64_t depth) : depth_(depth), index_(16) {
    PPG_CHECK(depth >= 1);
    restamp();
  }

  /// The stack distance of `page` if it is in the window (then < depth),
  /// kInfiniteDistance otherwise; then records the access.
  std::uint64_t access(PageId page) {
    if (next_ == node_at_.size()) restamp();
    std::uint64_t distance = kInfiniteDistance;
    std::uint32_t node = index_.find(page);
    if (node != kLruNilSlot) {
      const std::size_t old = stamp_of_[node];
      distance = live_after(old);
      flip(old, -1);
    } else {
      if (page_of_.size() == depth_) {
        // Full: the page with the oldest live stamp leaves; reuse its node.
        const std::size_t oldest = oldest_live();
        node = node_at_[oldest];
        index_.erase(page_of_[node]);
        flip(oldest, -1);
        page_of_[node] = page;
      } else {
        node = static_cast<std::uint32_t>(page_of_.size());
        page_of_.push_back(page);
        stamp_of_.push_back(0);
        if (page_of_.size() > index_pages_) grow_index();
      }
      index_.set(page, node);
    }
    node_at_[next_] = node;
    stamp_of_[node] = static_cast<std::uint32_t>(next_);
    flip(next_, +1);
    ++next_;
    return distance;
  }

 private:
  /// Sets (+1) or clears (-1) the live bit of `stamp`.
  void flip(std::size_t stamp, std::int32_t delta) {
    live_[stamp >> 6] ^= std::uint64_t{1} << (stamp & 63);
    for (std::size_t i = (stamp >> 6) + 1; i < tree_.size();
         i += i & (~i + 1))
      tree_[i] += static_cast<std::uint32_t>(delta);
  }

  /// Live stamps after `stamp`: those above it in its own word, plus every
  /// live stamp past that word.
  std::uint64_t live_after(std::size_t stamp) const {
    const std::size_t word = stamp >> 6;
    std::uint64_t through_word = 0;
    for (std::size_t i = word + 1; i > 0; i -= i & (~i + 1))
      through_word += tree_[i];
    const std::uint64_t above_in_word = static_cast<std::uint64_t>(
        std::popcount(live_[word] >> (stamp & 63) >> 1));
    return page_of_.size() - through_word + above_in_word;
  }

  std::size_t oldest_live() {
    while (live_[oldest_word_] == 0) ++oldest_word_;
    return oldest_word_ * 64 +
           static_cast<std::size_t>(std::countr_zero(live_[oldest_word_]));
  }

  /// Renumbers the live stamps to [0, m) in order, m = pages in the
  /// window, and makes room for max(64, 4m) stamps. The next renumbering
  /// is at least 3m accesses away, which pays for this O(m) pass.
  void restamp() {
    std::size_t m = 0;
    for (std::size_t w = oldest_word_; w < live_.size(); ++w) {
      for (std::uint64_t bits = live_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t stamp =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const std::uint32_t node = node_at_[stamp];
        node_at_[m] = node;
        stamp_of_[node] = static_cast<std::uint32_t>(m);
        ++m;
      }
    }
    PPG_CHECK(m == page_of_.size());
    const std::size_t words = std::max<std::size_t>(1, (4 * m + 63) / 64);
    PPG_CHECK_MSG(words * 64 < kLruNilSlot, "impact window too large");
    node_at_.resize(words * 64);
    live_.assign(words, 0);
    for (std::size_t t = 0; t < m; ++t)
      live_[t >> 6] |= std::uint64_t{1} << (t & 63);
    // Linear-time Fenwick build over the word popcounts.
    tree_.assign(words + 1, 0);
    for (std::size_t i = 1; i < tree_.size(); ++i) {
      tree_[i] += static_cast<std::uint32_t>(std::popcount(live_[i - 1]));
      const std::size_t parent = i + (i & (~i + 1));
      if (parent < tree_.size()) tree_[parent] += tree_[i];
    }
    oldest_word_ = 0;
    next_ = m;
  }

  /// Doubles the page -> node index (load stays <= 1/2) and refills it.
  void grow_index() {
    index_pages_ = 2 * page_of_.size();
    PPG_CHECK_MSG(index_pages_ < kLruNilSlot, "impact window too large");
    index_.on_reset(static_cast<Height>(index_pages_));
    index_.clear();
    for (std::size_t node = 0; node < page_of_.size(); ++node)
      index_.set(page_of_[node], static_cast<std::uint32_t>(node));
  }

  std::uint64_t depth_;
  LruFlatIndex index_;                   // page -> node
  std::size_t index_pages_ = 16;         // pages index_ holds at load 1/2
  std::vector<PageId> page_of_;          // node -> page; size = window size
  std::vector<std::uint32_t> stamp_of_;  // node -> latest stamp
  std::vector<std::uint32_t> node_at_;   // stamp -> node (if live)
  std::vector<std::uint64_t> live_;      // live-stamp bitset
  std::vector<std::uint32_t> tree_;      // Fenwick over live_ popcounts
  std::size_t oldest_word_ = 0;  // no live stamp below this word
  std::size_t next_ = 0;         // next stamp to hand out
};

}  // namespace

Impact impact_lb_stack(TraceCursor& cursor, Time miss_cost) {
  // min(s, d + 1) = s for every d >= s - 1, so only the s - 1 most recent
  // distinct pages can cost less than a miss. (At s <= 2 a one-page window
  // gives the same sums.)
  RecencyWindow window(std::max<Time>(2, miss_cost) - 1);
  Impact total = 0;
  std::array<PageId, 1024> span;
  while (const std::size_t got = cursor.next_span(span.data(), span.size())) {
    for (std::size_t i = 0; i < got; ++i) {
      const std::uint64_t d = window.access(span[i]);
      total += d == kInfiniteDistance ? miss_cost
                                      : std::min<Impact>(miss_cost, d + 1);
    }
  }
  return total;
}

Impact impact_lb_stack(const Trace& trace, Time miss_cost) {
  const auto cursor = VectorTraceSource::view(trace)->cursor();
  return impact_lb_stack(*cursor, miss_cost);
}

Time OptBounds::lower_bound() const {
  return std::max({lb_max_length, lb_max_single, lb_impact});
}

namespace {

/// Borrows the source's vectors when materialized; otherwise drains one
/// cursor into `storage`. The Belady term needs random access, so lazy
/// sources cost one trace of transient memory each — never the whole
/// instance at once.
const Trace& materialized_view(const TraceSource& source, Trace& storage) {
  if (const Trace* trace = source.materialized()) return *trace;
  storage = materialize(source);
  return storage;
}

}  // namespace

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

  for (ProcId i = 0; i < sources.num_procs(); ++i) {
    Trace storage;
    const Trace& t = materialized_view(sources.source(i), storage);
    bounds.lb_max_length =
        std::max<Time>(bounds.lb_max_length, t.size());
    bounds.busy_min.push_back(
        busy_min_single(t, config.cache_size, config.miss_cost));
    bounds.lb_max_single =
        std::max(bounds.lb_max_single, bounds.busy_min.back());
    if (t.size() <= config.exact_impact_max_requests)
      impact_sum += green_opt_impact(t, full_ladder, config.miss_cost);
    else
      impact_sum += impact_lb_stack(t, config.miss_cost);
  }
  bounds.lb_impact = impact_sum / config.cache_size;
  return bounds;
}

OptBounds compute_opt_bounds(const MultiTrace& traces,
                             const OptBoundsConfig& config) {
  return compute_opt_bounds(MultiTraceSource::view_of(traces), config);
}

}  // namespace ppg
