#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/hier_bitset.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

/// Checks every query of `set` against the plain bool vector `model`.
void expect_matches(const HierBitset& set, const std::vector<bool>& model,
                    Rng& rng) {
  const std::size_t n = model.size();
  std::size_t highest = HierBitset::kNone;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(set.test(i), model[i]) << i;
    if (model[i]) highest = i;
  }
  ASSERT_EQ(set.highest(), highest);
  for (int q = 0; q < 200; ++q) {
    std::size_t lo = rng.next_below(n);
    std::size_t hi = rng.next_below(n + 1);
    if (lo > hi) std::swap(lo, hi);
    if (lo == hi) continue;
    const std::size_t cap = rng.next_below(10);
    std::size_t want = 0;
    for (std::size_t i = lo + 1; i < hi; ++i)
      if (model[i]) ++want;
    ASSERT_EQ(set.count_between(lo, hi, cap), std::min(want, cap))
        << "lo " << lo << " hi " << hi << " cap " << cap;
  }
}

TEST(HierBitset, MatchesPlainBitsAcrossDensities) {
  // Sizes cover one word, one summary level and three levels; the sparse
  // densities leave long runs of empty words for count_between to skip.
  Rng rng(11);
  for (const std::size_t n : {std::size_t{1}, std::size_t{64},
                              std::size_t{65}, std::size_t{5000},
                              std::size_t{300000}}) {
    for (const double density : {0.5, 0.01, 0.0001}) {
      HierBitset set;
      set.reset(n);
      std::vector<bool> model(n, false);
      for (std::size_t step = 0; step < 4 * n / 3 + 8; ++step) {
        const std::size_t i = rng.next_below(n);
        if (rng.next_bool(density)) {
          set.set(i);
          model[i] = true;
        } else if (model[i]) {
          set.clear(i);
          model[i] = false;
        }
      }
      expect_matches(set, model, rng);
    }
  }
}

TEST(HierBitset, GrowKeepsEveryBit) {
  Rng rng(3);
  HierBitset set;
  set.reset(10);
  std::vector<bool> model;
  for (std::size_t n = 10; n < 200000; n = n * 3 + 1) {
    set.grow(n);
    ASSERT_GE(set.capacity(), n);
    model.resize(n, false);
    for (int k = 0; k < 40; ++k) {
      const std::size_t i = rng.next_below(n);
      set.set(i);
      model[i] = true;
    }
  }
  expect_matches(set, model, rng);
  set.clear_all();
  EXPECT_EQ(set.highest(), HierBitset::kNone);
}

}  // namespace
}  // namespace ppg
