#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/parallel_engine.hpp"
#include "core/rand_par.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "trace/workload.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

MultiTrace mixed_workload(ProcId p, Height k, std::size_t len,
                          std::uint64_t seed = 1) {
  WorkloadParams params;
  params.num_procs = p;
  params.cache_size = k;
  params.requests_per_proc = len;
  params.seed = seed;
  return make_workload(WorkloadKind::kHeterogeneousMix, params);
}

EngineConfig config_for(Height k, Time s) {
  EngineConfig c;
  c.cache_size = k;
  c.miss_cost = s;
  return c;
}

TEST(RandPar, CompletesAllSequences) {
  const MultiTrace mt = mixed_workload(8, 32, 2000);
  auto scheduler = make_rand_par();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(32, 4));
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
  for (Time c : r.completion) EXPECT_GT(c, 0u);
}

TEST(RandPar, DeterministicGivenSeed) {
  const MultiTrace mt = mixed_workload(8, 32, 1500);
  RandParConfig config;
  config.seed = 99;
  auto s1 = make_rand_par(config);
  auto s2 = make_rand_par(config);
  const ParallelRunResult a = run_parallel(mt, *s1, config_for(32, 4));
  const ParallelRunResult b = run_parallel(mt, *s2, config_for(32, 4));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completion, b.completion);
}

TEST(RandPar, DifferentSeedsSampleDifferentHeights) {
  // The secondary-part heights are the randomized ingredient: two seeds
  // must produce different box-height sequences (makespan itself can
  // coincide when a height-insensitive straggler dominates).
  const MultiTrace mt = mixed_workload(8, 32, 1500);
  auto collect = [&](std::uint64_t seed) {
    RandParConfig config;
    config.seed = seed;
    auto scheduler = make_rand_par(config);
    EngineConfig c = config_for(32, 4);
    std::vector<Height> heights;
    c.on_box = [&](ProcId proc, const BoxAssignment& box) {
      if (proc == 0) heights.push_back(box.height);
    };
    run_parallel(mt, *scheduler, c);
    return heights;
  };
  EXPECT_NE(collect(1), collect(2));
}

TEST(RandPar, RespectsConstantAugmentation) {
  const MultiTrace mt = mixed_workload(16, 64, 2000);
  auto scheduler = make_rand_par();
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(64, 4));
  // Primary: <= k across processors. Secondary: waves of floor(k/j) boxes
  // of height j (<= k) plus fillers (<= k). Constant augmentation overall.
  EXPECT_LE(r.effective_augmentation, 4.0);
}

TEST(RandPar, BoxHeightsLieOnLadder) {
  const MultiTrace mt = mixed_workload(8, 32, 800);
  auto scheduler = make_rand_par();
  EngineConfig c = config_for(32, 4);
  bool all_on_ladder = true;
  c.on_box = [&](ProcId, const BoxAssignment& box) {
    // Heights are powers of two between 1 and k (fillers use the chunk's
    // minimal height which is itself a ladder rung).
    if (!is_pow2(box.height) || box.height > 32) all_on_ladder = false;
  };
  run_parallel(mt, *scheduler, c);
  EXPECT_TRUE(all_on_ladder);
}

TEST(RandPar, StallModeAlsoCompletes) {
  RandParConfig config;
  config.stall_between_waves = true;
  const MultiTrace mt = mixed_workload(8, 32, 1000);
  auto scheduler = make_rand_par(config);
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(32, 4));
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
  EXPECT_GT(r.total_stall, 0u);
}

TEST(RandPar, UsesLargeBoxesOccasionally) {
  const MultiTrace mt = mixed_workload(8, 64, 4000);
  auto scheduler = make_rand_par();
  EngineConfig c = config_for(64, 4);
  Height max_seen = 0;
  c.on_box = [&](ProcId, const BoxAssignment& box) {
    max_seen = std::max(max_seen, box.height);
  };
  run_parallel(mt, *scheduler, c);
  // With thousands of chunks, some secondary draw must exceed the minimum
  // height 64/8 = 8.
  EXPECT_GT(max_seen, 8u);
}

TEST(RandPar, PrimaryMultiplierScalesChunks) {
  // Sanity of the ablation knob: a larger primary multiplier still
  // completes and changes the schedule.
  RandParConfig config;
  config.primary_multiplier = 4;
  const MultiTrace mt = mixed_workload(8, 32, 1000);
  auto scheduler = make_rand_par(config);
  const ParallelRunResult r = run_parallel(mt, *scheduler, config_for(32, 4));
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
}

// The golden hashes pin RAND-PAR's schedule box for box; they were
// captured from the hash-map rank index the dense one replaced.
constexpr std::uint64_t kGoldenBatchHash = 18224969762877940696u;
constexpr std::uint64_t kGoldenDirectHash = 13500630882795468967u;

TEST(RandParGolden, BatchBoxSequence) {
  const MultiTrace mt = mixed_workload(24, 64, 800, 5);
  auto scheduler = make_rand_par();
  EngineConfig c = config_for(64, 4);
  test::BoxSequenceHash hash;
  c.on_box = [&](ProcId proc, const BoxAssignment& box) {
    hash.add(proc, box);
  };
  const ParallelRunResult r = run_parallel(mt, *scheduler, c);
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
  EXPECT_EQ(hash.value(), kGoldenBatchHash);
}

TEST(RandParGolden, ProcessorUnrankedAtChunkStartGetsFillerBoxes) {
  // Driven directly, without an engine, so processors 4 and 5 can keep
  // asking for boxes after the view stops reporting them active: every
  // chunk that starts after that leaves them unranked, and their
  // secondary-part requests take the filler path.
  const ProcId p = 6;
  test::FakeView view(p);
  auto scheduler = make_rand_par();
  scheduler->start(SchedulerContext{p, 32, 4}, view);
  test::BoxSequenceHash hash;
  std::vector<Time> free_at(p, 0);
  for (int round = 0; round < 600; ++round) {
    if (round == 100) {
      view.finish(4);
      view.finish(5);
    }
    // The processor whose box ends first asks next (lowest id on ties).
    const auto proc = static_cast<ProcId>(
        std::min_element(free_at.begin(), free_at.end()) - free_at.begin());
    const BoxAssignment box = scheduler->next_box(proc, free_at[proc], view);
    ASSERT_GT(box.end, box.start);
    hash.add(proc, box);
    free_at[proc] = box.end;
  }
  EXPECT_EQ(hash.value(), kGoldenDirectHash);
}

}  // namespace
}  // namespace ppg
