#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "core/global_lru.hpp"
#include "test_helpers.hpp"
#include "trace/fault_source.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

GlobalLruConfig config_for(Height k, Time s) {
  GlobalLruConfig c;
  c.cache_size = k;
  c.miss_cost = s;
  return c;
}

TEST(GlobalLru, SingleProcessorMatchesCacheSim) {
  MultiTrace mt;
  mt.add(gen::cyclic(6, 100));
  const ParallelRunResult r = run_global_lru(mt, config_for(8, 5));
  EXPECT_EQ(r.misses, 6u);
  EXPECT_EQ(r.makespan, 6u * 5 + 94u);
}

TEST(GlobalLru, HandComputedTwoProcs) {
  // k = 2, s = 3. Proc 0: a a. Proc 1: b b. Both pages fit: each proc
  // misses once then hits: completion = 3 + 1 = 4 for both.
  MultiTrace mt;
  mt.add(test::make_trace({1, 1}));
  MultiTrace tmp;
  Trace t2(std::vector<PageId>{make_page(1, 0), make_page(1, 0)});
  mt.add(t2);
  const ParallelRunResult r = run_global_lru(mt, config_for(2, 3));
  EXPECT_EQ(r.completion[0], 4u);
  EXPECT_EQ(r.completion[1], 4u);
  EXPECT_EQ(r.hits, 2u);
  EXPECT_EQ(r.misses, 2u);
}

TEST(GlobalLru, InterferenceEvictsOtherProcessorsPages) {
  // k = 2: proc 1 streams fresh pages, evicting proc 0's working set.
  // Proc 0 cycles two pages and would hit forever alone; with the
  // polluting neighbor it keeps missing.
  MultiTrace mt;
  mt.add(gen::rebase_to_proc(gen::cyclic(2, 50), 0));
  mt.add(gen::rebase_to_proc(gen::single_use(50), 1));
  const ParallelRunResult shared = run_global_lru(mt, config_for(2, 4));

  MultiTrace alone;
  alone.add(mt.trace(0));
  const ParallelRunResult solo = run_global_lru(alone, config_for(2, 4));
  EXPECT_GT(shared.misses, solo.misses + 25);
}

TEST(GlobalLru, CompletesEverything) {
  MultiTrace mt;
  for (ProcId i = 0; i < 6; ++i)
    mt.add(gen::rebase_to_proc(gen::cyclic(8, 500), i));
  const ParallelRunResult r = run_global_lru(mt, config_for(16, 4));
  EXPECT_EQ(r.hits + r.misses, mt.total_requests());
  EXPECT_LE(r.mean_completion, static_cast<double>(r.makespan));
}

TEST(GlobalLru, Deterministic) {
  MultiTrace mt;
  for (ProcId i = 0; i < 4; ++i)
    mt.add(gen::rebase_to_proc(gen::cyclic(10, 300), i));
  const ParallelRunResult a = run_global_lru(mt, config_for(8, 3));
  const ParallelRunResult b = run_global_lru(mt, config_for(8, 3));
  EXPECT_EQ(a.completion, b.completion);
}

TEST(GlobalLru, EmptyTraceCompletesImmediately) {
  MultiTrace mt;
  mt.add(Trace{});
  mt.add(test::make_trace({1}));
  const ParallelRunResult r = run_global_lru(mt, config_for(4, 2));
  EXPECT_EQ(r.completion[0], 0u);
  EXPECT_EQ(r.completion[1], 2u);
}

// --- Independent reference model -------------------------------------------

/// GLOBAL-LRU one request at a time, sharing no code with run_global_lru:
/// a std::list recency order (front = MRU) and a linear scan for the live
/// processor with the smallest (ready time, proc).
ParallelRunResult reference_global_lru(const MultiTrace& traces, Height k,
                                       Time s) {
  const ProcId p = traces.num_procs();
  ParallelRunResult r;
  r.completion.assign(p, 0);
  std::list<PageId> lru;
  std::vector<std::size_t> next(p, 0);
  std::vector<Time> ready(p, 0);
  for (;;) {
    ProcId best = p;
    for (ProcId i = 0; i < p; ++i) {
      if (next[i] == traces.trace(i).size()) continue;
      if (best == p || ready[i] < ready[best]) best = i;
    }
    if (best == p) break;
    const PageId page = traces.trace(best)[next[best]++];
    const auto it = std::find(lru.begin(), lru.end(), page);
    const bool hit = it != lru.end();
    if (hit)
      lru.erase(it);
    else if (lru.size() == k)
      lru.pop_back();
    lru.push_front(page);
    ready[best] += hit ? 1 : s;
    ++(hit ? r.hits : r.misses);
    if (next[best] == traces.trace(best).size())
      r.completion[best] = ready[best];
  }
  for (const Time t : r.completion) r.makespan = std::max(r.makespan, t);
  return r;
}

/// A seeded instance on p processors. Lengths cycle through values around
/// the 16-request span (0 among them: processors with no requests), most
/// processors draw from one shared page universe, and every fourth is
/// rebased into its own id space.
MultiTraceSource make_lazy_instance(ProcId p, std::uint64_t seed) {
  static constexpr std::size_t kLengths[] = {0,  15, 16, 17, 1,
                                             31, 32, 33, 49};
  MultiTraceSource sources;
  for (ProcId i = 0; i < p; ++i) {
    const std::size_t n = kLengths[(i + seed) % std::size(kLengths)];
    const Rng rng(seed * 1000 + i);
    std::shared_ptr<const TraceSource> source =
        i % 3 == 0 ? gen::zipf_source(2 * p + 4, n, 0.8, rng)
                   : gen::uniform_random_source(p + 3, n, rng);
    if (i % 4 == 3) source = rebase_source(std::move(source), i);
    sources.add(std::move(source));
  }
  return sources;
}

void expect_matches(const ParallelRunResult& got,
                    const ParallelRunResult& want, const std::string& what) {
  EXPECT_EQ(got.completion, want.completion) << what;
  EXPECT_EQ(got.hits, want.hits) << what;
  EXPECT_EQ(got.misses, want.misses) << what;
  EXPECT_EQ(got.makespan, want.makespan) << what;
}

TEST(GlobalLruReference, MatchesNaiveModel) {
  for (const ProcId p : {1u, 2u, 3u, 16u, 70u}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const MultiTraceSource lazy = make_lazy_instance(p, seed);
      const MultiTrace materialized = lazy.materialize();
      const Height wide = static_cast<Height>(8 * p);
      for (const Height k : {Height{1}, Height{2}, wide}) {
        for (const Time s : {Time{1}, Time{2}, Time{8}}) {
          const std::string what = "p " + std::to_string(p) + " seed " +
                                   std::to_string(seed) + " k " +
                                   std::to_string(k) + " s " +
                                   std::to_string(s);
          const ParallelRunResult want =
              reference_global_lru(materialized, k, s);
          expect_matches(run_global_lru(materialized, config_for(k, s)),
                         want, what + " materialized");
          expect_matches(run_global_lru(lazy, config_for(k, s)), want,
                         what + " generator");
        }
      }
    }
  }
}

// --- Stream screens ----------------------------------------------------------

/// Three clean processors plus one faulty one (proc 2).
MultiTraceSource with_fault(TraceFaultClass fault, std::uint64_t at) {
  MultiTraceSource sources;
  for (ProcId i = 0; i < 4; ++i) {
    std::shared_ptr<const TraceSource> source =
        rebase_source(gen::cyclic_source(5, 60), i);
    if (i == 2) {
      TraceFaultSpec spec;
      spec.fault = fault;
      spec.at = at;
      source = make_fault_injecting_source(std::move(source), spec);
    }
    sources.add(std::move(source));
  }
  return sources;
}

void expect_corrupt_trace_at(const MultiTraceSource& sources,
                             std::uint64_t offset) {
  try {
    run_global_lru(sources, config_for(8, 4));
    FAIL() << "run_global_lru must reject the stream";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
    EXPECT_EQ(e.error().byte_offset, offset);
  }
}

TEST(GlobalLruFaults, StallIsCorruptTraceNotALivelock) {
  // next_span returns 0 while done() stays false.
  expect_corrupt_trace_at(with_fault(TraceFaultClass::kStall, 21), 21);
  expect_corrupt_trace_at(with_fault(TraceFaultClass::kStall, 0), 0);
}

TEST(GlobalLruFaults, HostilePageIsRejectedBeforeTheCache) {
  expect_corrupt_trace_at(with_fault(TraceFaultClass::kHostilePage, 7), 7);
  expect_corrupt_trace_at(with_fault(TraceFaultClass::kHostilePage, 16), 16);
}

TEST(GlobalLruFaults, CursorFailurePropagates) {
  expect_corrupt_trace_at(with_fault(TraceFaultClass::kFail, 10), 10);
}

TEST(GlobalLruFaults, TornSpanServesWhatTheStreamDelivers) {
  // The stream ends at 30 while declaring 60: GLOBAL-LRU serves the 30
  // delivered requests, exactly as on the truncated trace.
  const MultiTraceSource torn = with_fault(TraceFaultClass::kTornSpan, 30);
  const MultiTrace delivered = torn.materialize();
  ASSERT_EQ(delivered.trace(2).size(), 30u);
  const ParallelRunResult r = run_global_lru(torn, config_for(8, 4));
  expect_matches(r, reference_global_lru(delivered, 8, 4), "torn");
  EXPECT_EQ(r.hits + r.misses, delivered.total_requests());
}

TEST(GlobalLruFaults, RunInstanceFailsOnlyTheGlobalLruRow) {
  const MultiTraceSource sources =
      with_fault(TraceFaultClass::kHostilePage, 7);
  ExperimentConfig config;
  config.cache_size = 8;
  config.miss_cost = 4;
  const std::vector<SchedulerKind> kinds = {SchedulerKind::kDetPar,
                                            SchedulerKind::kRandPar};
  const InstanceOutcome with_lru = run_instance(sources, kinds, config);
  config.include_global_lru = false;
  const InstanceOutcome without = run_instance(sources, kinds, config);

  ASSERT_EQ(with_lru.outcomes.size(), 3u);
  ASSERT_EQ(without.outcomes.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const SchedulerOutcome& a = with_lru.outcomes[i];
    const SchedulerOutcome& b = without.outcomes[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.status.error.code, b.status.error.code) << a.name;
    EXPECT_EQ(a.result.completion, b.result.completion) << a.name;
    EXPECT_EQ(a.result.makespan, b.result.makespan) << a.name;
  }
  const SchedulerOutcome& lru = with_lru.outcomes[2];
  EXPECT_EQ(lru.name, "GLOBAL-LRU");
  EXPECT_EQ(lru.status.error.code, ErrorCode::kCorruptTrace);
  EXPECT_EQ(lru.status.error.byte_offset, 7u);
}

}  // namespace
}  // namespace ppg
