// Belady's offline optimum from next-use positions.
//
// Belady (evict the resident page whose next use is farthest away) needs
// only, for every request i, the position next[i] of the next request for
// the same page. NextUseBuilder produces that array in one forward pass,
// one probe per request into a flat page -> last-position table; the same
// probe yields each request's previous use and the trace's distinct-page
// count, which the OPT bounds pass (opt/opt_bounds.cpp) folds into its
// other terms. BeladyPolicy (paging/policies.cpp) and belady_faults both
// read the array; belady_faults never sees a page id.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace ppg {

/// next[i] of a request whose page is never requested again; also the
/// "no previous use" answer of NextUseBuilder::push.
inline constexpr std::uint32_t kNoNextUse = UINT32_MAX;

/// Builds the next-use array of a request sequence fed to it in order.
/// Positions are 32-bit, so a sequence must have fewer than 2^32 requests.
class NextUseBuilder {
 public:
  NextUseBuilder() { reset(); }

  /// Forgets the previous sequence, keeping allocations; reserves room
  /// for `size_hint` requests.
  void reset(std::size_t size_hint = 0);

  /// Records the next request: next[its previous use] becomes its position
  /// and its own next[] kNoNextUse until a later push. Returns the
  /// previous use's position, or kNoNextUse for the page's first request.
  std::uint32_t push(PageId page) {
    PPG_CHECK_MSG(next_.size() < kNoNextUse,
                  "Belady needs fewer than 2^32 requests");
    const auto position = static_cast<std::uint32_t>(next_.size());
    next_.push_back(kNoNextUse);
    const std::size_t k = slot_of(page);
    const std::uint32_t previous = table_[k].second;
    table_[k] = {page, position};
    if (previous != kNoNextUse) {
      next_[previous] = position;
    } else {
      const std::size_t load = table_.size() <= kSparseCells ? 4 : 2;
      if (load * ++distinct_ > table_.size()) grow();
    }
    return previous;
  }

  std::size_t size() const { return next_.size(); }
  std::uint64_t distinct() const { return distinct_; }
  const std::vector<std::uint32_t>& next() const { return next_; }

 private:
  std::size_t slot_of(PageId page) const {
    const std::size_t mask = table_.size() - 1;
    std::uint64_t x = page;  // splitmix64 finalizer, as in LruFlatIndex
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    std::size_t k = static_cast<std::size_t>(x) & mask;
    while (table_[k].second != kNoNextUse && table_[k].first != page)
      k = (k + 1) & mask;
    return k;
  }

  /// Doubles the table and re-inserts every page. The load stays <= 1/4
  /// up to kSparseCells cells, which halves the probe collisions (and
  /// their mispredicted probe loops) where it costs at most 64 KiB, and
  /// <= 1/2 beyond.
  void grow();

  static constexpr std::size_t kSparseCells = 4096;

  std::vector<std::uint32_t> next_;
  // page -> latest position; kNoNextUse marks an empty cell.
  std::vector<std::pair<PageId, std::uint32_t>> table_;
  std::uint64_t distinct_ = 0;
};

/// Belady's fault count at capacity `cache` (>= 1) over a sequence with
/// next-use array `next`. A resident page whose next use j is finite is
/// bit j of a hierarchical bitset, so request i hits iff bit i is set;
/// pages never used again are only counted, and are evicted first (which
/// of them goes cannot change a fault count); otherwise the highest set
/// bit is evicted. A few word operations per request, no page ids.
std::uint64_t belady_faults(const std::vector<std::uint32_t>& next,
                            Height cache);

}  // namespace ppg
