// 64-ary hierarchical bitset over [0, n): level 0 holds the bits, and each
// word of level l+1 marks the nonzero words of level l. Set, clear and
// "highest set bit" touch one word per level (about log64 n of them), and
// the summary levels let a scan skip any run of empty words in O(levels),
// however long the run.
//
// Users: Belady's resident set, keyed by next-use position (BeladyPolicy
// and belady_faults, paging/), and the OPT bounds pass's latest-use
// positions (opt/opt_bounds.cpp), which counts set bits over arbitrarily
// long gaps.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace ppg {

class HierBitset {
 public:
  static constexpr std::size_t kNone = SIZE_MAX;

  /// Empties the set and sizes it for positions [0, n).
  void reset(std::size_t n) {
    std::vector<std::uint64_t> bits =
        levels_.empty() ? std::vector<std::uint64_t>{} : std::move(levels_[0]);
    bits.assign(words_for(n), 0);
    build_summary(std::move(bits));
  }

  /// Makes room for positions [0, n), keeping every set bit.
  void grow(std::size_t n) {
    if (n <= capacity()) return;
    std::vector<std::uint64_t> bits = std::move(levels_[0]);
    bits.resize(std::max(words_for(n), 2 * bits.size()), 0);
    build_summary(std::move(bits));
  }

  /// Positions the set can hold without grow().
  std::size_t capacity() const {
    return levels_.empty() ? 0 : 64 * levels_[0].size();
  }

  bool test(std::size_t i) const {
    return (levels_[0][i >> 6] >> (i & 63)) & 1;
  }

  void set(std::size_t i) {
    for (auto& level : levels_) {
      std::uint64_t& word = level[i >> 6];
      const bool was_empty = word == 0;
      word |= std::uint64_t{1} << (i & 63);
      if (!was_empty) return;  // the levels above already mark this word
      i >>= 6;
    }
  }

  void clear(std::size_t i) {
    for (auto& level : levels_) {
      std::uint64_t& word = level[i >> 6];
      word &= ~(std::uint64_t{1} << (i & 63));
      if (word != 0) return;
      i >>= 6;
    }
  }

  /// Highest set bit, or kNone when the set is empty.
  std::size_t highest() const {
    if (levels_.empty() || levels_.back()[0] == 0) return kNone;
    std::size_t i = 0;
    for (std::size_t l = levels_.size(); l-- > 0;) i = top(i, levels_[l][i]);
    return i;
  }

  /// Set bits strictly between `lo` and `hi` (lo < hi), counted downward
  /// from `hi` and capped at `cap`. Costs one popcount per word down to
  /// the cap and O(levels) to skip each run of empty words, so it is
  /// bounded by `cap`, not by hi - lo.
  std::size_t count_between(std::size_t lo, std::size_t hi,
                            std::size_t cap) const {
    const std::vector<std::uint64_t>& bits = levels_[0];
    const std::size_t lo_word = lo >> 6;
    std::size_t w = (hi - 1) >> 6;
    const std::uint64_t above_lo = ~at_or_below(lo & 63);
    std::uint64_t word = bits[w] & at_or_below((hi - 1) & 63);
    std::size_t count = 0;
    while (w != lo_word) {
      count += bits_in(word);
      if (count >= cap) return cap;
      word = bits[--w];
      if (word == 0) {  // skip the run of empty words via the summary
        w = highest_below(1, w);
        if (w == kNone || w < lo_word) return count;
        word = bits[w];
      }
    }
    return std::min(cap, count + bits_in(word & above_lo));
  }

  /// Calls fn(i) for every set bit, visiting only nonzero words.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!levels_.empty()) walk(levels_.size() - 1, 0, fn);
  }

  /// Clears every bit, visiting only nonzero words.
  void clear_all() {
    if (!levels_.empty()) zero(levels_.size() - 1, 0);
  }

 private:
  static std::size_t words_for(std::size_t n) {
    return std::max<std::size_t>(1, (n + 63) / 64);
  }

  /// Population count, inline: without a target flag for it, std::popcount
  /// compiles to a library call, which would dominate count_between.
  static std::size_t bits_in(std::uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
  }

  /// Mask of bits 0..b of a word.
  static std::uint64_t at_or_below(std::size_t b) {
    return ~std::uint64_t{0} >> (63 - b);
  }

  /// Index, one level down, of the highest set bit of `word` (the word at
  /// `index`).
  static std::size_t top(std::size_t index, std::uint64_t word) {
    return index * 64 + 63 -
           static_cast<std::size_t>(std::countl_zero(word));
  }

  static std::size_t child(std::size_t index, std::uint64_t word) {
    return index * 64 + static_cast<std::size_t>(std::countr_zero(word));
  }

  /// Installs `bits` as level 0 and derives the summary levels from it.
  void build_summary(std::vector<std::uint64_t> bits) {
    levels_.clear();
    levels_.push_back(std::move(bits));
    while (levels_.back().size() > 1) {
      const std::vector<std::uint64_t>& below = levels_.back();
      std::vector<std::uint64_t> above((below.size() + 63) / 64, 0);
      for (std::size_t j = 0; j < below.size(); ++j)
        if (below[j] != 0) above[j >> 6] |= std::uint64_t{1} << (j & 63);
      levels_.push_back(std::move(above));
    }
  }

  /// Highest set bit below `i` on `level`, or kNone: climbs while nothing
  /// below i is set on the current level, then descends along the highest
  /// set bits.
  std::size_t highest_below(std::size_t level, std::size_t i) const {
    std::size_t l = level;
    for (;; ++l) {
      if (l == levels_.size() || i == 0) return kNone;
      const std::size_t w = (i - 1) >> 6;
      const std::uint64_t word = levels_[l][w] & at_or_below((i - 1) & 63);
      if (word != 0) {
        i = top(w, word);
        break;
      }
      i = w;
    }
    while (l-- > level) i = top(i, levels_[l][i]);
    return i;
  }

  template <typename Fn>
  void walk(std::size_t level, std::size_t index, Fn& fn) const {
    for (std::uint64_t w = levels_[level][index]; w != 0; w &= w - 1) {
      if (level == 0)
        fn(child(index, w));
      else
        walk(level - 1, child(index, w), fn);
    }
  }

  void zero(std::size_t level, std::size_t index) {
    std::uint64_t w = levels_[level][index];
    levels_[level][index] = 0;
    if (level == 0) return;
    for (; w != 0; w &= w - 1) zero(level - 1, child(index, w));
  }

  std::vector<std::vector<std::uint64_t>> levels_;  // [0] = the bits
};

}  // namespace ppg
