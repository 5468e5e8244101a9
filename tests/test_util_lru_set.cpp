#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "util/lru_set.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(LruSet, StartsEmpty) {
  LruSet set(4);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.full());
  EXPECT_EQ(set.lru_page(), kInvalidPage);
}

TEST(LruSet, MissThenHit) {
  LruSet set(2);
  PageId evicted;
  EXPECT_FALSE(set.access(1, evicted));
  EXPECT_EQ(evicted, kInvalidPage);
  EXPECT_TRUE(set.access(1, evicted));
  EXPECT_EQ(set.size(), 1u);
}

TEST(LruSet, EvictsLeastRecentlyUsed) {
  LruSet set(2);
  set.access(1);
  set.access(2);
  PageId evicted;
  EXPECT_FALSE(set.access(3, evicted));
  EXPECT_EQ(evicted, 1u);  // 1 is LRU
  EXPECT_TRUE(set.contains(2));
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(1));
}

TEST(LruSet, TouchRefreshesRecency) {
  LruSet set(2);
  set.access(1);
  set.access(2);
  set.access(1);  // 1 becomes MRU; 2 is now LRU
  PageId evicted;
  set.access(3, evicted);
  EXPECT_EQ(evicted, 2u);
}

TEST(LruSet, MruOrderIsMaintained) {
  LruSet set(3);
  set.access(1);
  set.access(2);
  set.access(3);
  set.access(2);
  const std::vector<PageId> order = set.pages_mru_order();
  EXPECT_EQ(order, (std::vector<PageId>{2, 3, 1}));
  EXPECT_EQ(set.lru_page(), 1u);
}

TEST(LruSet, EraseRemovesPage) {
  LruSet set(3);
  set.access(1);
  set.access(2);
  EXPECT_TRUE(set.erase(1));
  EXPECT_FALSE(set.erase(1));
  EXPECT_FALSE(set.contains(1));
  EXPECT_EQ(set.size(), 1u);
  // Slot reuse after erase.
  set.access(3);
  set.access(4);
  EXPECT_EQ(set.size(), 3u);
}

TEST(LruSet, EraseLruUpdatesVictim) {
  LruSet set(3);
  set.access(1);
  set.access(2);
  set.access(3);
  set.erase(1);
  EXPECT_EQ(set.lru_page(), 2u);
}

TEST(LruSet, ClearEmptiesEverything) {
  // clear() only bumps the index epoch; entries stamped before it must
  // read as absent and must not resurrect when the table fills again.
  LruSet set(3);
  set.access(1);
  set.access(2);
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(1));
  EXPECT_FALSE(set.contains(2));
  set.access(5);
  EXPECT_TRUE(set.contains(5));
  EXPECT_FALSE(set.contains(1));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.pages_mru_order(), (std::vector<PageId>{5}));
}

TEST(LruSet, CapacityOneAlwaysReplaces) {
  LruSet set(1);
  PageId evicted;
  set.access(1, evicted);
  set.access(2, evicted);
  EXPECT_EQ(evicted, 1u);
  set.access(3, evicted);
  EXPECT_EQ(evicted, 2u);
  EXPECT_EQ(set.size(), 1u);
}

// Cross-check against a straightforward reference implementation on random
// access streams, for a sweep of capacities.
class LruSetReference : public ::testing::TestWithParam<Height> {};

TEST_P(LruSetReference, MatchesNaiveModel) {
  const Height capacity = GetParam();
  LruSet set(capacity);
  std::vector<PageId> model;  // MRU at front
  Rng rng(1234 + capacity);

  for (int i = 0; i < 5000; ++i) {
    const PageId page = rng.next_below(capacity * 3 + 1);
    // Model step.
    const auto it = std::find(model.begin(), model.end(), page);
    const bool model_hit = it != model.end();
    PageId model_evicted = kInvalidPage;
    if (model_hit) {
      model.erase(it);
    } else if (model.size() == capacity) {
      model_evicted = model.back();
      model.pop_back();
    }
    model.insert(model.begin(), page);
    // DUT step.
    PageId evicted;
    const bool hit = set.access(page, evicted);
    ASSERT_EQ(hit, model_hit) << "iteration " << i;
    ASSERT_EQ(evicted, model_evicted) << "iteration " << i;
    ASSERT_EQ(set.size(), model.size());
    ASSERT_EQ(set.pages_mru_order(), model);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruSetReference,
                         ::testing::Values(1, 2, 3, 4, 7, 16, 33));

TEST(LruSet, FusedPairMatchesAccess) {
  // try_touch + insert_absent must be exactly access() split in two.
  LruSet fused(3);
  LruSet plain(3);
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const PageId page = rng.next_below(10);
    PageId evicted = kInvalidPage;
    const bool hit = plain.access(page, evicted);
    if (fused.try_touch(page)) {
      ASSERT_TRUE(hit);
      ASSERT_EQ(evicted, kInvalidPage);
    } else {
      ASSERT_FALSE(hit);
      ASSERT_EQ(fused.insert_absent(page), evicted);
    }
    ASSERT_EQ(fused.pages_mru_order(), plain.pages_mru_order());
  }
}

TEST(LruSet, TryTouchMissLeavesSetUntouched) {
  LruSet set(2);
  set.access(1);
  set.access(2);
  EXPECT_FALSE(set.try_touch(9));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.pages_mru_order(), (std::vector<PageId>{2, 1}));
}

TEST(LruSet, MruPageTracksMostRecent) {
  LruSet set(3);
  EXPECT_EQ(set.mru_page(), kInvalidPage);
  set.access(1);
  set.access(2);
  EXPECT_EQ(set.mru_page(), 2u);
  set.access(1);
  EXPECT_EQ(set.mru_page(), 1u);
}

TEST(LruSet, ResetChangesCapacityAndEmpties) {
  LruSet set(2);
  set.access(1);
  set.access(2);
  set.reset(4);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.capacity(), 4u);
  for (PageId p = 10; p < 14; ++p) set.access(p);
  EXPECT_TRUE(set.full());
  EXPECT_FALSE(set.contains(1));
}

// Parity against a naive std::list LRU (MRU at the front) on a mixed
// operation stream: fused and plain accesses, erases, clears and resets
// that grow the index table mid-stream. Page ids are sparse and structured
// (proc << 48 | local, several processors), so their raw low bits collide
// under a power-of-two mask unless the index mixes them.
class LruSetParity : public ::testing::TestWithParam<Height> {};

TEST_P(LruSetParity, MatchesListOracle) {
  Height capacity = GetParam();
  const std::uint64_t universe = capacity * 3 + 1;
  LruSet set(capacity);
  std::list<PageId> oracle;
  Rng rng(987 + capacity);
  for (int i = 0; i < 5000; ++i) {
    const PageId page =
        (PageId{1 + rng.next_below(3)} << 48) | rng.next_below(universe);
    const auto it = std::find(oracle.begin(), oracle.end(), page);
    const bool present = it != oracle.end();
    if (i % 97 == 96) {
      // Erase: present or not, the answer must agree.
      ASSERT_EQ(set.erase(page), present) << "iteration " << i;
      if (present) oracle.erase(it);
    } else {
      PageId want_evicted = kInvalidPage;
      if (present) {
        oracle.erase(it);
      } else if (oracle.size() == capacity) {
        want_evicted = oracle.back();
        oracle.pop_back();
      }
      oracle.push_front(page);
      // Alternate the fused pair and access() so both entry points face
      // the oracle.
      PageId evicted = kInvalidPage;
      bool hit;
      if (i % 2 == 0) {
        hit = set.try_touch(page);
        if (!hit) evicted = set.insert_absent(page);
      } else {
        hit = set.access(page, evicted);
      }
      ASSERT_EQ(hit, present) << "iteration " << i;
      ASSERT_EQ(evicted, want_evicted) << "iteration " << i;
    }
    ASSERT_EQ(set.size(), oracle.size()) << "iteration " << i;
    ASSERT_EQ(set.pages_mru_order(),
              std::vector<PageId>(oracle.begin(), oracle.end()))
        << "iteration " << i;
    ASSERT_EQ(set.mru_page(), oracle.empty() ? kInvalidPage : oracle.front());
    ASSERT_EQ(set.lru_page(), oracle.empty() ? kInvalidPage : oracle.back());
    if (i % 701 == 700) {
      set.clear();
      oracle.clear();
    }
    if (i % 1301 == 1300) {
      // Growing resets force the index table to rebuild mid-stream.
      capacity = 1 + (capacity + static_cast<Height>(i)) % (2 * GetParam());
      set.reset(capacity);
      oracle.clear();
      ASSERT_EQ(set.capacity(), capacity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruSetParity,
                         ::testing::Values(1, 2, 5, 16, 33));

TEST(LruSet, EraseBackwardShiftKeepsProbesFindable) {
  // Insert colliding keys, erase one from the middle of the cluster, and
  // verify the displaced keys remain findable (no tombstone holes).
  LruSet set(8);
  const std::vector<PageId> pages = {11, 22, 33, 44, 55, 66, 77, 88};
  for (const PageId p : pages) set.access(p);
  ASSERT_TRUE(set.full());
  EXPECT_TRUE(set.erase(44));
  EXPECT_FALSE(set.contains(44));
  for (const PageId p : pages) {
    if (p != 44) {
      EXPECT_TRUE(set.contains(p)) << p;
    }
  }
  // Eviction churn after the erase keeps the table consistent.
  for (PageId p = 100; p < 200; ++p) set.access(p);
  EXPECT_EQ(set.size(), 8u);
}

TEST(LruSet, ResetGrowsCapacityPastInitialTable) {
  LruSet set(2);
  set.reset(64);
  for (PageId p = 0; p < 64; ++p) {
    PageId evicted = kInvalidPage;
    set.access(p, evicted);
    ASSERT_EQ(evicted, kInvalidPage) << p;
  }
  EXPECT_TRUE(set.full());
  for (PageId p = 0; p < 64; ++p) ASSERT_TRUE(set.contains(p));
}

}  // namespace
}  // namespace ppg
