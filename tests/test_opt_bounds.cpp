#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "opt/opt_bounds.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "trace/stack_distance.hpp"
#include "trace/trace_source.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(BusyMinSingle, MatchesBeladyTiming) {
  const Trace t = test::make_trace({1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5});
  // Belady at capacity 3 faults 7 times: time = 5 hits + 7 * s.
  EXPECT_EQ(busy_min_single(t, 3, 10), 5u + 7u * 10);
}

TEST(BusyMinSingle, EmptyTraceIsZero) {
  EXPECT_EQ(busy_min_single(Trace{}, 4, 10), 0u);
}

TEST(ImpactLbStack, SingleUseStreamCountsMisses) {
  // Every request is cold: impact >= s each.
  const Trace t = gen::single_use(100);
  EXPECT_EQ(impact_lb_stack(t, 7), 700u);
}

TEST(ImpactLbStack, TightCycleCountsWorkingSet) {
  // Cycle over m pages, m < s: warm requests have distance m-1, so each
  // contributes m; cold ones contribute s.
  const Trace t = gen::cyclic(4, 100);
  const Impact expect = 4 * 8 + (100 - 4) * 4;
  EXPECT_EQ(impact_lb_stack(t, 8), expect);
}

TEST(ImpactLbStack, CapsAtMissCost) {
  // Distances larger than s-1 are capped at s (missing is always an
  // option).
  const Trace t = gen::cyclic(100, 300);
  EXPECT_EQ(impact_lb_stack(t, 5), 300u * 5);
}

Impact naive_impact_lb(const Trace& trace, Time s) {
  Impact total = 0;
  for (const std::uint64_t d : stack_distances_naive(trace))
    total += d == kInfiniteDistance ? s : std::min<Impact>(s, d + 1);
  return total;
}

TEST(ImpactLbStack, MatchesNaiveStackDistances) {
  // Each (source, s) pair checks both overloads against sum min(s, d + 1)
  // over the reference stack distances; the cyclic sources sit on either
  // side of the window depth s - 1 and the large ones overflow it.
  for (const Time s : {1u, 2u, 3u, 8u, 64u, 4096u}) {
    Rng rng(s);
    std::vector<std::shared_ptr<const TraceSource>> sources = {
        gen::zipf_source(40, 3000, 0.9, rng),
        gen::zipf_source(6000, 12000, 0.6, rng),
        gen::single_use_source(5000),
        gen::cyclic_source(3, 200),
    };
    for (const Time m : {s - 1, s, s + 1})
      if (m >= 1) sources.push_back(gen::cyclic_source(m, 3 * m + 17));
    for (const auto& source : sources) {
      const Trace t = materialize(*source);
      const Impact expect = naive_impact_lb(t, s);
      EXPECT_EQ(impact_lb_stack(t, s), expect)
          << "s=" << s << " n=" << t.size();
      const auto cursor = source->cursor();
      EXPECT_EQ(impact_lb_stack(*cursor, s), expect)
          << "cursor, s=" << s << " n=" << t.size();
    }
  }
}

TEST(OptBounds, LowerBoundIsMaxOfTerms) {
  OptBounds b;
  b.lb_max_length = 10;
  b.lb_max_single = 30;
  b.lb_impact = 20;
  EXPECT_EQ(b.lower_bound(), 30u);
}

TEST(OptBounds, ComputedOnWorkload) {
  WorkloadParams params;
  params.num_procs = 4;
  params.cache_size = 16;
  params.requests_per_proc = 500;
  const MultiTrace mt =
      make_workload(WorkloadKind::kHomogeneousCyclic, params);
  OptBoundsConfig config;
  config.cache_size = 16;
  config.miss_cost = 4;
  const OptBounds b = compute_opt_bounds(mt, config);
  EXPECT_EQ(b.lb_max_length, 500u);
  EXPECT_GE(b.lb_max_single, 500u);
  EXPECT_GT(b.lb_impact, 0u);
}

TEST(OptBounds, KeepsEveryProcessorsBusyMinimum) {
  // busy_min[i] is processor i's dedicated-cache Belady time at k, and
  // lb_max_single its max; a processor with no requests reads 0.
  WorkloadParams params;
  params.num_procs = 5;
  params.cache_size = 16;
  params.requests_per_proc = 700;
  params.seed = 4;
  MultiTrace mt = make_workload(WorkloadKind::kSkewedLengths, params);
  mt.add(Trace{});
  OptBoundsConfig config;
  config.cache_size = 16;
  config.miss_cost = 6;
  const OptBounds b = compute_opt_bounds(mt, config);
  ASSERT_EQ(b.busy_min.size(), mt.num_procs());
  for (ProcId i = 0; i < mt.num_procs(); ++i)
    EXPECT_EQ(b.busy_min[i], busy_min_single(mt.trace(i), 16, 6)) << i;
  EXPECT_EQ(b.busy_min.back(), 0u);
  EXPECT_EQ(b.lb_max_single,
            *std::max_element(b.busy_min.begin(), b.busy_min.end()));
}

TEST(OptBounds, ExactImpactAtLeastStackEstimate) {
  // The DP impact bound dominates the stack-distance estimate (both are
  // valid lower bounds; the DP is tight).
  MultiTrace mt;
  mt.add(gen::cyclic(12, 400));
  OptBoundsConfig fast;
  fast.cache_size = 16;
  fast.miss_cost = 6;
  OptBoundsConfig exact = fast;
  exact.exact_impact_max_requests = 100000;
  const OptBounds fb = compute_opt_bounds(mt, fast);
  const OptBounds eb = compute_opt_bounds(mt, exact);
  EXPECT_GE(eb.lb_impact, fb.lb_impact);
}

// The load-bearing property of the whole benchmark harness: the bound must
// never exceed what any real scheduler achieves.
class LowerBoundValidity : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(LowerBoundValidity, BoundBelowEveryScheduler) {
  WorkloadParams params;
  params.num_procs = 8;
  params.cache_size = 32;
  params.requests_per_proc = 1200;
  params.seed = 9;
  for (const WorkloadKind kind :
       {WorkloadKind::kHeterogeneousMix, WorkloadKind::kPollutedCycles,
        WorkloadKind::kSkewedLengths}) {
    const MultiTrace mt = make_workload(kind, params);
    OptBoundsConfig oc;
    oc.cache_size = 32;
    oc.miss_cost = 4;
    const OptBounds bounds = compute_opt_bounds(mt, oc);

    auto scheduler = make_scheduler(GetParam(), 3);
    EngineConfig ec;
    ec.cache_size = 32;
    ec.miss_cost = 4;
    const ParallelRunResult r = run_parallel(mt, *scheduler, ec);
    EXPECT_LE(bounds.lower_bound(), r.makespan)
        << scheduler_kind_name(GetParam()) << " on " << workload_kind_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, LowerBoundValidity,
                         ::testing::ValuesIn(all_scheduler_kinds()));

TEST(Stretch, DedicatedRunHasUnitStretch) {
  // One processor under STATIC owns the whole cache with no resets: its
  // completion equals its dedicated LRU time; with a working set that fits,
  // LRU == Belady, so stretch is exactly 1.
  MultiTrace mt;
  mt.add(gen::cyclic(6, 500));
  EngineConfig ec;
  ec.cache_size = 8;
  ec.miss_cost = 5;
  auto scheduler = make_scheduler(SchedulerKind::kStatic);
  const ParallelRunResult r = run_parallel(mt, *scheduler, ec);
  const auto stretch = per_proc_stretch(mt, r.completion, 8, 5);
  ASSERT_EQ(stretch.size(), 1u);
  EXPECT_DOUBLE_EQ(stretch[0], 1.0);
}

TEST(Stretch, AlwaysAtLeastOne) {
  WorkloadParams wp;
  wp.num_procs = 6;
  wp.cache_size = 32;
  wp.requests_per_proc = 800;
  const MultiTrace mt = make_workload(WorkloadKind::kSkewedLengths, wp);
  EngineConfig ec;
  ec.cache_size = 32;
  ec.miss_cost = 4;
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    auto scheduler = make_scheduler(kind, 3);
    const ParallelRunResult r = run_parallel(mt, *scheduler, ec);
    for (double v : per_proc_stretch(mt, r.completion, 32, 4))
      EXPECT_GE(v, 1.0 - 1e-9) << scheduler_kind_name(kind);
  }
}

TEST(Stretch, EmptyTraceReportsOne) {
  MultiTrace mt;
  mt.add(Trace{});
  const auto stretch = per_proc_stretch(mt, {0}, 8, 4);
  EXPECT_DOUBLE_EQ(stretch[0], 1.0);
}

}  // namespace
}  // namespace ppg
