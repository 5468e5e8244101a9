#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "naive_belady.hpp"
#include "opt/opt_bounds.hpp"
#include "test_helpers.hpp"
#include "trace/fault_source.hpp"
#include "trace/generators.hpp"
#include "trace/stack_distance.hpp"
#include "trace/trace_source.hpp"
#include "trace/workload.hpp"
#include "util/error.hpp"
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
  for (ProcId i = 0; i < mt.num_procs(); ++i) {
    // Independent of the bounds pass: the naive O(n * k) Belady.
    const Trace& t = mt.trace(i);
    const std::uint64_t faults = test::naive_belady_misses(t, 16);
    EXPECT_EQ(b.busy_min[i], t.size() + 5 * faults) << i;
  }
  EXPECT_EQ(b.busy_min.back(), 0u);
  EXPECT_EQ(b.lb_max_single,
            *std::max_element(b.busy_min.begin(), b.busy_min.end()));
}

/// What compute_opt_bounds must report, from the naive models alone: the
/// O(n * k) Belady and the naive stack distances.
OptBounds naive_bounds(const MultiTrace& mt, Height k, Time s) {
  OptBounds b;
  Impact impact = 0;
  for (ProcId i = 0; i < mt.num_procs(); ++i) {
    const Trace& t = mt.trace(i);
    const std::uint64_t faults = test::naive_belady_misses(t, k);
    b.busy_min.push_back((t.size() - faults) + faults * s);
    b.lb_max_length = std::max<Time>(b.lb_max_length, t.size());
    b.lb_max_single = std::max(b.lb_max_single, b.busy_min.back());
    impact += naive_impact_lb(t, s);
  }
  b.lb_impact = impact / k;
  return b;
}

void expect_same_bounds(const OptBounds& got, const OptBounds& want,
                        const std::string& what) {
  EXPECT_EQ(got.lb_max_length, want.lb_max_length) << what;
  EXPECT_EQ(got.lb_max_single, want.lb_max_single) << what;
  EXPECT_EQ(got.lb_impact, want.lb_impact) << what;
  EXPECT_EQ(got.busy_min, want.busy_min) << what;
}

TEST(OptBoundsReference, MatchesNaiveBeladyAndStackDistances) {
  // One instance per s: uniform traces over k-1 and k distinct pages (the
  // pass's no-eviction case), k+1 and 8k (Belady from the next-use array),
  // a zipf stream, an empty and a one-request trace. The generator sources
  // are streamed; their materialized copies must give the same bounds.
  const Height k = 8;
  for (const Time s : {1u, 2u, 8u, 64u}) {
    MultiTraceSource streamed;
    const std::vector<std::uint64_t> distinct = {k - 1, k, k + 1, 8 * k};
    for (const std::uint64_t m : distinct) {
      const std::size_t n = m == 8 * k ? 1500 : 40 * m;
      streamed.add(gen::uniform_random_source(m, n, Rng(100 * s + m)));
    }
    streamed.add(gen::zipf_source(6 * k, 2000, 0.8, Rng(s)));
    streamed.add(gen::single_use_source(0));
    streamed.add(gen::single_use_source(1));
    const MultiTrace mt = streamed.materialize();
    for (std::size_t i = 0; i < distinct.size(); ++i)
      ASSERT_EQ(mt.trace(static_cast<ProcId>(i)).distinct_pages(),
                distinct[i]);

    OptBoundsConfig config;
    config.cache_size = k;
    config.miss_cost = s;
    const OptBounds want = naive_bounds(mt, k, s);
    const std::string at = "s=" + std::to_string(s);
    expect_same_bounds(compute_opt_bounds(mt, config), want,
                       "materialized, " + at);
    expect_same_bounds(compute_opt_bounds(streamed, config), want,
                       "streamed, " + at);
  }
}

TEST(OptBoundsReference, LongGapTrace) {
  // A, then B 10^5 times, then A, three times over, then A: each A's stack
  // distance is 1, found 10^5 positions back across empty bitset words.
  std::vector<PageId> requests;
  for (int round = 0; round < 3; ++round) {
    requests.push_back(0);
    requests.insert(requests.end(), 100000, 1);
  }
  requests.push_back(0);
  MultiTrace mt;
  mt.add(Trace(std::move(requests)));
  for (const Height k : {1u, 2u}) {
    for (const Time s : {1u, 2u, 8u, 64u}) {
      OptBoundsConfig config;
      config.cache_size = k;
      config.miss_cost = s;
      expect_same_bounds(compute_opt_bounds(mt, config), naive_bounds(mt, k, s),
                         "k=" + std::to_string(k) + " s=" + std::to_string(s));
    }
  }
}

TEST(OptBounds, StalledStreamIsCorruptTrace) {
  // A stream that stops producing without reporting done() must fail the
  // pass, on the cursor path and on the exact-DP path that materializes it.
  for (const std::size_t exact : {std::size_t{0}, std::size_t{100000}}) {
    MultiTraceSource sources;
    sources.add(gen::cyclic_source(5, 60));
    TraceFaultSpec spec;
    spec.fault = TraceFaultClass::kStall;
    spec.at = 21;
    sources.add(make_fault_injecting_source(gen::cyclic_source(5, 60), spec));
    OptBoundsConfig config;
    config.cache_size = 8;
    config.miss_cost = 4;
    config.exact_impact_max_requests = exact;
    try {
      (void)compute_opt_bounds(sources, config);
      ADD_FAILURE() << "stalled stream accepted, exact=" << exact;
    } catch (const PpgException& e) {
      EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace) << exact;
      EXPECT_EQ(e.error().byte_offset, 21u) << exact;
    }
  }
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
