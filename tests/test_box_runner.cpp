#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "green/box_runner.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "trace/trace_source.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(BoxRunner, ServesWithinBudget) {
  // s = 4. Box of height 2, duration 8: two cold misses consume the
  // entire budget.
  const Trace t = test::make_trace({1, 2, 3, 4});
  BoxRunner runner(t, 4);
  const BoxStepResult step = runner.run_box(2, 8);
  EXPECT_EQ(step.requests_completed, 2u);
  EXPECT_EQ(step.misses, 2u);
  EXPECT_EQ(step.busy_time, 8u);
  EXPECT_EQ(step.stall_time, 0u);
  EXPECT_FALSE(step.finished);
  EXPECT_EQ(runner.position(), 2u);
}

TEST(BoxRunner, StallsWhenRequestDoesNotFit) {
  // s = 4, duration 6: one miss (4 ticks) then the next miss doesn't fit;
  // 2 ticks stall.
  const Trace t = test::make_trace({1, 2});
  BoxRunner runner(t, 4);
  const BoxStepResult step = runner.run_box(2, 6);
  EXPECT_EQ(step.requests_completed, 1u);
  EXPECT_EQ(step.stall_time, 2u);
}

TEST(BoxRunner, HitsCostOne) {
  // Height 1, page repeats: 1 miss (s=4) + 4 hits in a duration-8 box.
  const Trace t = test::make_trace({1, 1, 1, 1, 1});
  BoxRunner runner(t, 4);
  const BoxStepResult step = runner.run_box(1, 8);
  EXPECT_EQ(step.misses, 1u);
  EXPECT_EQ(step.hits, 4u);
  EXPECT_TRUE(step.finished);
}

TEST(BoxRunner, CompartmentalizationResetsCache) {
  // Page 1 is resident after box 1; a fresh box must miss on it again.
  const Trace t = test::make_trace({1, 1});
  BoxRunner runner(t, 4);
  const BoxStepResult first = runner.run_box(2, 4);
  EXPECT_EQ(first.requests_completed, 1u);
  const BoxStepResult second = runner.run_box(2, 4, /*fresh=*/true);
  EXPECT_EQ(second.misses, 1u);  // NOT a hit: compartment starts empty
  EXPECT_EQ(second.hits, 0u);
}

TEST(BoxRunner, ContinuationKeepsCache) {
  const Trace t = test::make_trace({1, 1});
  BoxRunner runner(t, 4);
  runner.run_box(2, 4);
  const BoxStepResult second = runner.run_box(2, 4, /*fresh=*/false);
  EXPECT_EQ(second.hits, 1u);  // survived the box boundary
  EXPECT_EQ(second.misses, 0u);
}

TEST(BoxRunner, HeightChangeAlwaysResets) {
  const Trace t = test::make_trace({1, 1});
  BoxRunner runner(t, 4);
  runner.run_box(2, 4);
  // fresh=false but height changed: still a reset.
  const BoxStepResult second = runner.run_box(4, 16, /*fresh=*/false);
  EXPECT_EQ(second.misses, 1u);
}

TEST(BoxRunner, LruEvictionWithinBox) {
  // Height 2, cycle of 3 pages: every access misses.
  const Trace t = gen::cyclic(3, 6);
  BoxRunner runner(t, 2);
  const BoxStepResult step = runner.run_box(2, 100);
  EXPECT_EQ(step.misses, 6u);
  EXPECT_EQ(step.hits, 0u);
}

TEST(BoxRunner, CanonicalBoxCompletesAtLeastHeightRequests) {
  // The paper's accounting relies on a height-z canonical box finishing
  // >= z requests: duration s*z covers z misses.
  const Trace t = gen::single_use(100);
  for (Height z : {1u, 2u, 4u, 8u}) {
    BoxRunner runner(t, 7);
    const BoxStepResult step = runner.run_box(z, 7 * z);
    EXPECT_GE(step.requests_completed, z) << "height " << z;
  }
}

TEST(BoxRunner, ResetRestartsFromBeginning) {
  const Trace t = test::make_trace({1, 2, 3});
  BoxRunner runner(t, 2);
  runner.run_box(4, 100);
  EXPECT_TRUE(runner.finished());
  runner.reset();
  EXPECT_FALSE(runner.finished());
  EXPECT_EQ(runner.position(), 0u);
}

// A per-request model of the paper's box (Section 2), written for clarity
// rather than speed: LRU on `height` slots as a std::list (MRU at the
// front), a hit costs 1 tick and a miss s ticks, a request that does not
// fit stalls the processor to the box boundary, and the compartment starts
// empty on `fresh` or on a height change. reset() rewinds to the first
// request and empties the cache.
class NaiveBoxRunner {
 public:
  NaiveBoxRunner(std::vector<PageId> requests, Time miss_cost)
      : requests_(std::move(requests)), miss_cost_(miss_cost) {}

  BoxStepResult run_box(Height height, Time duration, bool fresh) {
    if (fresh || height != height_) {
      lru_.clear();
      height_ = height;
    }
    BoxStepResult step;
    Time remaining = duration;
    while (remaining > 0 && pos_ < requests_.size()) {
      const PageId page = requests_[pos_];
      const auto it = std::find(lru_.begin(), lru_.end(), page);
      const bool hit = it != lru_.end();
      const Time cost = hit ? 1 : miss_cost_;
      if (cost > remaining) break;
      if (hit) {
        lru_.erase(it);
      } else if (lru_.size() == height_) {
        lru_.pop_back();
      }
      lru_.push_front(page);
      ++(hit ? step.hits : step.misses);
      remaining -= cost;
      step.busy_time += cost;
      ++step.requests_completed;
      ++pos_;
    }
    step.stall_time = remaining;
    step.finished = pos_ >= requests_.size();
    return step;
  }

  void reset() {
    pos_ = 0;
    lru_.clear();
  }

  std::size_t position() const { return pos_; }

 private:
  std::vector<PageId> requests_;
  Time miss_cost_;
  std::size_t pos_ = 0;
  std::list<PageId> lru_;
  Height height_ = 0;
};

// Drives `runner` and the naive model through the same seeded random box
// sequence (heights 1..12, durations 0..2*h*s, mostly fresh boxes, with
// occasional continuations and reset() calls) and compares every step.
void expect_matches_naive(BoxRunner& runner,
                          const std::vector<PageId>& requests, Time miss_cost,
                          std::uint64_t seed, const std::string& label) {
  NaiveBoxRunner naive(requests, miss_cost);
  Rng rng(seed);
  int resets = 0;
  for (int box = 0; box < 20000; ++box) {
    const auto height = static_cast<Height>(1 + rng.next_below(12));
    const Time duration = rng.next_below(2 * height * miss_cost + 1);
    const bool fresh = rng.next_below(4) != 0;
    const BoxStepResult got = runner.run_box(height, duration, fresh);
    const BoxStepResult want = naive.run_box(height, duration, fresh);
    const std::string where = label + " box " + std::to_string(box);
    ASSERT_EQ(got.requests_completed, want.requests_completed) << where;
    ASSERT_EQ(got.hits, want.hits) << where;
    ASSERT_EQ(got.misses, want.misses) << where;
    ASSERT_EQ(got.busy_time, want.busy_time) << where;
    ASSERT_EQ(got.stall_time, want.stall_time) << where;
    ASSERT_EQ(got.finished, want.finished) << where;
    ASSERT_EQ(runner.position(), naive.position()) << where;
    ASSERT_EQ(runner.finished(), want.finished) << where;
    if (want.finished || rng.next_below(200) == 0) {
      if (want.finished && ++resets == 3) return;
      runner.reset();
      naive.reset();
      ASSERT_EQ(runner.position(), 0u) << where;
      ASSERT_EQ(runner.total_hits(), 0u) << where;
    }
  }
  FAIL() << label << ": the box sequence never finished the trace 3 times";
}

TEST(BoxRunnerReference, MatchesNaiveModelOverTrace) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng gen_rng(seed);
    // Structured ids: processor 5's disjoint space (5 << 48 | local).
    const Trace trace = gen::rebase_to_proc(
        seed % 2 == 0 ? gen::zipf(24, 1500, 0.9, gen_rng)
                      : gen::polluted_cycle(9, 1500, 5),
        5);
    for (const Time s : {Time{1}, Time{6}}) {
      BoxRunner runner(trace, s);
      expect_matches_naive(runner, trace.requests(), s, seed * 31 + s,
                           "trace seed " + std::to_string(seed) + " s " +
                               std::to_string(s));
    }
  }
}

TEST(BoxRunnerReference, MatchesNaiveModelOverGeneratorSource) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng gen_rng(seed);
    // A lazy source, rebased into processor 3's id space: never
    // materialized for the runner.
    const auto source =
        rebase_source(gen::zipf_source(40, 1700, 0.8, gen_rng), 3);
    ASSERT_EQ(source->materialized(), nullptr);
    const Trace expected = materialize(*source);
    ASSERT_EQ(expected[0] >> 48, 3u);
    BoxRunner runner(*source, 4);
    expect_matches_naive(runner, expected.requests(), 4, seed * 17,
                         "source seed " + std::to_string(seed));
  }
}

TEST(RunProfile, AccountsImpactExactly) {
  const Trace t = gen::cyclic(2, 10);
  // s = 3. Box 1 (height 4, duration 12): misses pages 0,1 (6 ticks) then 6
  // hits -> 8 requests, fully consumed. Box 2: fresh compartment re-misses
  // both pages (6 busy ticks) and finishes; its tail is clipped.
  const BoxProfile profile({canonical_box(4, 3), canonical_box(4, 3)});
  const ProfileRunResult r = run_profile(t, profile, 3);
  EXPECT_EQ(r.boxes_used, 2u);
  EXPECT_EQ(r.misses, 4u);
  EXPECT_EQ(r.hits, 6u);
  EXPECT_EQ(r.time, 12u + 6u);
  EXPECT_EQ(r.impact, 4u * 12u + 4u * 6u);
}

TEST(RunProfile, ChecksCompletion) {
  const Trace t = gen::single_use(100);
  const BoxProfile profile({canonical_box(1, 2)});  // serves ~1 request
  EXPECT_DEATH(run_profile(t, profile, 2), "profile too short");
}

TEST(RunProfile, FinalBoxClipped) {
  const Trace t = test::make_trace({1});
  const BoxProfile profile({canonical_box(4, 5)});  // duration 20
  const ProfileRunResult r = run_profile(t, profile, 5);
  EXPECT_EQ(r.time, 5u);          // one miss: 5 ticks, tail not charged
  EXPECT_EQ(r.impact, 4u * 5u);   // height * busy
}

}  // namespace
}  // namespace ppg
