#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "green/policy_box_runner.hpp"
#include "naive_belady.hpp"
#include "paging/cache_sim.hpp"
#include "paging/eviction_policy.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

using test::NaiveBelady;
using test::naive_belady_misses;

TEST(LruPolicyTest, ClassicSequence) {
  // Capacity 3, trace 1 2 3 4 1 2 5 1 2 3 4 5 — the textbook example:
  // LRU faults 10 times.
  const Trace t = test::make_trace({1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5});
  const CacheSimResult r = simulate_policy(PolicyKind::kLru, t, 3, 2);
  EXPECT_EQ(r.misses, 10u);
  EXPECT_EQ(r.hits, 2u);
}

TEST(FifoPolicyTest, BeladyAnomalyWitness) {
  // The classic Belady-anomaly trace: FIFO with capacity 3 faults 9 times,
  // with capacity 4 faults 10 times.
  const Trace t = test::make_trace({1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5});
  EXPECT_EQ(simulate_policy(PolicyKind::kFifo, t, 3, 2).misses, 9u);
  EXPECT_EQ(simulate_policy(PolicyKind::kFifo, t, 4, 2).misses, 10u);
}

TEST(BeladyPolicyTest, OptimalOnTextbookTrace) {
  // OPT on the same trace with capacity 3 faults 7 times.
  const Trace t = test::make_trace({1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5});
  EXPECT_EQ(simulate_policy(PolicyKind::kBelady, t, 3, 2).misses, 7u);
}

TEST(BeladyPolicyTest, NoFaultsWhenEverythingFits) {
  const Trace t = gen::cyclic(4, 40);
  const CacheSimResult r = simulate_policy(PolicyKind::kBelady, t, 4, 2);
  EXPECT_EQ(r.misses, 4u);  // cold only
}

TEST(ClockPolicyTest, ApproximatesLruOnSimpleTrace) {
  // With no re-references, CLOCK behaves exactly like FIFO.
  const Trace t = test::make_trace({1, 2, 3, 4, 5, 6});
  EXPECT_EQ(simulate_policy(PolicyKind::kClock, t, 3, 2).misses, 6u);
}

TEST(ClockPolicyTest, SecondChanceSavesReferencedPage) {
  // Capacity 2: access 1, 2, touch 1, then insert 3. CLOCK should give 1 a
  // second chance and evict 2.
  const Trace t = test::make_trace({1, 2, 1, 3, 1});
  const CacheSimResult r = simulate_policy(PolicyKind::kClock, t, 2, 2);
  // 1,2 miss; 1 hits (sets ref); 3 misses evicting 2; final 1 hits.
  EXPECT_EQ(r.hits, 2u);
  EXPECT_EQ(r.misses, 3u);
}

TEST(LfuPolicyTest, EvictsLeastFrequent) {
  // 1 used three times, 2 once; inserting 3 must evict 2.
  const Trace t = test::make_trace({1, 1, 1, 2, 3, 1});
  const CacheSimResult r = simulate_policy(PolicyKind::kLfu, t, 2, 2);
  // misses: 1, 2, 3; hits: 1 (x2), final 1.
  EXPECT_EQ(r.misses, 3u);
  EXPECT_EQ(r.hits, 3u);
}

TEST(RandomPolicyTest, IsDeterministicGivenSeed) {
  Rng rng(5);
  const Trace t = gen::uniform_random(30, 3000, rng);
  const CacheSimResult a = simulate_policy(PolicyKind::kRandom, t, 8, 2, 77);
  const CacheSimResult b = simulate_policy(PolicyKind::kRandom, t, 8, 2, 77);
  EXPECT_EQ(a.misses, b.misses);
}

TEST(PolicyFactory, NamesMatchKinds) {
  for (const PolicyKind kind :
       {PolicyKind::kLru, PolicyKind::kFifo, PolicyKind::kClock,
        PolicyKind::kRandom, PolicyKind::kLfu, PolicyKind::kBelady}) {
    const auto policy = make_policy(kind, 4);
    EXPECT_STREQ(policy->name(), policy_kind_name(kind));
  }
}

// Property: Belady never faults more than any online policy, on any trace.
using PolicyAndSeed = std::tuple<PolicyKind, std::uint64_t>;
class BeladyDominance : public ::testing::TestWithParam<PolicyAndSeed> {};

TEST_P(BeladyDominance, BeladyIsOptimal) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  const Trace t = gen::zipf(40, 3000, 0.8, rng);
  for (const Height capacity : {2u, 5u, 16u}) {
    const auto belady =
        simulate_policy(PolicyKind::kBelady, t, capacity, 2);
    const auto other = simulate_policy(kind, t, capacity, 2, seed);
    EXPECT_LE(belady.misses, other.misses)
        << policy_kind_name(kind) << " capacity " << capacity;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOnlinePolicies, BeladyDominance,
    ::testing::Combine(::testing::Values(PolicyKind::kLru, PolicyKind::kFifo,
                                         PolicyKind::kClock,
                                         PolicyKind::kRandom,
                                         PolicyKind::kLfu),
                       ::testing::Values(1, 2, 3)));

// Property: LRU has the stack (inclusion) property — more capacity never
// causes more faults.
class LruInclusion : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruInclusion, FaultsMonotoneInCapacity) {
  Rng rng(GetParam());
  const Trace t = gen::uniform_random(64, 4000, rng);
  std::uint64_t prev = UINT64_MAX;
  for (Height c = 1; c <= 128; c *= 2) {
    const auto r = simulate_policy(PolicyKind::kLru, t, c, 2);
    EXPECT_LE(r.misses, prev) << "capacity " << c;
    prev = r.misses;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruInclusion, ::testing::Values(11, 22, 33));

// Property: every policy serves every request exactly once.
class PolicyConservation : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyConservation, HitsPlusMissesEqualsRequests) {
  Rng rng(4);
  const Trace t = gen::sawtooth(4, 32, 200, 6, rng);
  const auto r = simulate_policy(GetParam(), t, 10, 3);
  EXPECT_EQ(r.hits + r.misses, t.size());
  EXPECT_EQ(r.time, r.hits + 3 * r.misses);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyConservation,
                         ::testing::Values(PolicyKind::kLru, PolicyKind::kFifo,
                                           PolicyKind::kClock,
                                           PolicyKind::kRandom,
                                           PolicyKind::kLfu,
                                           PolicyKind::kBelady));

/// Seeded random trace over `pages` pages (2..12 in the tests below):
/// long enough that every page repeats and, near the end, several resident
/// pages are never used again.
Trace random_small_trace(std::uint64_t pages, Rng& rng) {
  return gen::uniform_random(pages, 40 + rng.next_below(200), rng);
}

TEST(BeladyReference, CacheSimMatchesNaiveModel) {
  Rng rng(2024);
  for (int round = 0; round < 300; ++round) {
    const std::uint64_t pages = 2 + rng.next_below(11);
    const auto capacity = static_cast<Height>(1 + rng.next_below(9));
    const Trace t = random_small_trace(pages, rng);
    const std::uint64_t naive_misses = naive_belady_misses(t, capacity);
    const CacheSimResult r = simulate_policy(PolicyKind::kBelady, t,
                                             capacity, /*miss_cost=*/3);
    ASSERT_EQ(r.misses, naive_misses)
        << "round " << round << " pages " << pages << " capacity "
        << capacity;
    ASSERT_EQ(r.hits + r.misses, t.size());
  }
}

// Drives the policy directly, the way CacheSim does, and checks contains()
// against a shadow resident set built from the policy's own victims.
TEST(BeladyReference, ContainsTracksEveryInsertAndVictim) {
  Rng rng(77);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t pages = 2 + rng.next_below(11);
    const auto capacity = static_cast<Height>(1 + rng.next_below(9));
    const Trace t = random_small_trace(pages, rng);
    auto policy = make_policy(PolicyKind::kBelady, capacity);
    policy->prepare(t);
    std::vector<PageId> shadow;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      policy->advance(i);
      const bool shadow_hit =
          std::find(shadow.begin(), shadow.end(), t[i]) != shadow.end();
      ASSERT_EQ(policy->touch_if_resident(t[i]), shadow_hit) << "at " << i;
      if (shadow_hit) continue;
      ++misses;
      if (shadow.size() == capacity) {
        const PageId victim = policy->evict();
        const auto it = std::find(shadow.begin(), shadow.end(), victim);
        ASSERT_NE(it, shadow.end()) << "evicted a non-resident page";
        shadow.erase(it);
        ASSERT_FALSE(policy->contains(victim)) << "victim still resident";
      }
      policy->insert(t[i]);
      shadow.push_back(t[i]);
      for (const PageId page : shadow) ASSERT_TRUE(policy->contains(page));
      for (PageId page = 0; page < pages; ++page) {
        const bool in_shadow =
            std::find(shadow.begin(), shadow.end(), page) != shadow.end();
        ASSERT_EQ(policy->contains(page), in_shadow);
      }
    }
    ASSERT_EQ(misses, naive_belady_misses(t, capacity)) << "round " << round;
    policy->clear();
    for (PageId page = 0; page < pages; ++page)
      ASSERT_FALSE(policy->contains(page));
  }
}

TEST(BeladyReference, NeverUsedAgainPagesAreEvictedFirst) {
  // Pages 3, 4 and 5 are never requested again: each fault after the
  // cache fills must evict one of them, never 1 or 2.
  const Trace t = test::make_trace({1, 2, 3, 4, 5, 6, 1, 2, 1, 2});
  const CacheSimResult r = simulate_policy(PolicyKind::kBelady, t, 3, 2);
  EXPECT_EQ(r.misses, 6u);
  EXPECT_EQ(r.hits, 4u);

  // Several never-again pages resident at once, then finite next uses.
  const Trace u = test::make_trace({7, 8, 9, 1, 2, 1, 3, 2, 3, 1, 2, 3});
  for (Height capacity = 1; capacity <= 5; ++capacity) {
    EXPECT_EQ(simulate_policy(PolicyKind::kBelady, u, capacity, 2).misses,
              naive_belady_misses(u, capacity))
        << "capacity " << capacity;
  }
}

// PolicyBoxRunner keeps one Belady across boxes: fresh compartments
// clear() it, a height change resets it, and a miss that does not fit
// stalls and is retried at the same index by the next box.
TEST(BeladyReference, PolicyBoxRunnerMatchesNaiveBoxModel) {
  Rng rng(5);
  const Time s = 3;
  std::uint64_t retried_in_place = 0;
  std::uint64_t cleared_after_stall = 0;
  for (int round = 0; round < 150; ++round) {
    const std::uint64_t pages = 2 + rng.next_below(11);
    const Trace t = random_small_trace(pages, rng);
    PolicyBoxRunner runner(t, s, PolicyKind::kBelady);
    NaiveBelady naive(t);
    std::size_t pos = 0;
    Height capacity = 0;
    bool stalled = false;
    while (!runner.finished()) {
      const auto height = capacity != 0 && rng.next_bool(0.5)
                              ? capacity
                              : static_cast<Height>(1 + rng.next_below(9));
      const Time duration = 1 + rng.next_below(4 * s);
      const bool fresh = rng.next_bool(0.3);
      if (fresh || height != capacity) {
        naive.clear();
        if (stalled) ++cleared_after_stall;
      } else if (stalled) {
        ++retried_in_place;
      }
      capacity = height;
      BoxStepResult expect;
      Time remaining = duration;
      while (remaining > 0 && pos < t.size()) {
        if (naive.resident(t[pos])) {
          naive.access(pos, height);
          remaining -= 1;
          ++expect.hits;
        } else {
          if (s > remaining) break;
          naive.access(pos, height);
          remaining -= s;
          ++expect.misses;
        }
        ++pos;
        ++expect.requests_completed;
      }
      expect.stall_time = remaining;
      stalled = remaining > 0 && pos < t.size();

      const BoxStepResult got = runner.run_box(height, duration, fresh);
      ASSERT_EQ(got.requests_completed, expect.requests_completed)
          << "round " << round;
      ASSERT_EQ(got.hits, expect.hits) << "round " << round;
      ASSERT_EQ(got.misses, expect.misses) << "round " << round;
      ASSERT_EQ(got.stall_time, expect.stall_time) << "round " << round;
      ASSERT_EQ(runner.position(), pos);
    }
  }
  // Both ways a stalled request is retried must have happened.
  EXPECT_GT(retried_in_place, 0u);
  EXPECT_GT(cleared_after_stall, 0u);
}

}  // namespace
}  // namespace ppg
