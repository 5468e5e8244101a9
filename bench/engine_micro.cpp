// E10 — Microbenchmarks of the simulation substrates (google-benchmark).
//
// Throughput of the structures every experiment leans on: the LRU set, the
// box runner, the sequential cache simulator, the stack-distance profiler,
// the green-OPT DP, DET-PAR's per-box decision, the OPT lower bounds'
// single pass, the GLOBAL-LRU baseline, and the full parallel engine.
// These keep the harness honest about simulator cost and catch
// performance regressions —
// scripts/bench_perf.sh snapshots them into BENCH_PERF.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/det_par.hpp"
#include "core/global_lru.hpp"
#include "core/parallel_engine.hpp"
#include "core/scheduler_factory.hpp"
#include "green/box_runner.hpp"
#include "green/green_opt.hpp"
#include "opt/opt_bounds.hpp"
#include "paging/cache_sim.hpp"
#include "trace/generators.hpp"
#include "trace/stack_distance.hpp"
#include "trace/trace_source.hpp"
#include "trace/workload.hpp"
#include "util/thread_pool.hpp"
#include "util/lru_set.hpp"
#include "util/rng.hpp"

namespace {

using namespace ppg;

void BM_LruSetAccess(benchmark::State& state) {
  const auto capacity = static_cast<Height>(state.range(0));
  Rng rng(1);
  const Trace trace = gen::zipf(capacity * 4, 1 << 14, 0.9, rng);
  LruSet set(capacity);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.access(trace[i]));
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LruSetAccess)->Arg(16)->Arg(256)->Arg(4096);

// Sequential simulator throughput via the policy fast path
// (touch_if_resident — one lookup per hit).
void BM_CacheSimLru(benchmark::State& state) {
  const auto capacity = static_cast<Height>(state.range(0));
  Rng rng(7);
  const Trace trace = gen::zipf(capacity * 4, 1 << 14, 0.9, rng);
  for (auto _ : state) {
    CacheSim sim(capacity, make_policy(PolicyKind::kLru, capacity), 8);
    benchmark::DoNotOptimize(sim.run(trace).misses);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_CacheSimLru)->Arg(256);

void BM_BoxRunnerCanonicalBoxes(benchmark::State& state) {
  const auto height = static_cast<Height>(state.range(0));
  const Time s = 8;
  Rng rng(2);
  const Trace trace = gen::zipf(512, 1 << 15, 0.9, rng);
  for (auto _ : state) {
    BoxRunner runner(trace, s);
    while (!runner.finished())
      runner.run_box(height, s * static_cast<Time>(height));
    benchmark::DoNotOptimize(runner.total_misses());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_BoxRunnerCanonicalBoxes)->Arg(8)->Arg(64)->Arg(512);

void BM_StackDistances(benchmark::State& state) {
  Rng rng(3);
  const Trace trace =
      gen::zipf(1024, static_cast<std::size_t>(state.range(0)), 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack_distances(trace));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_StackDistances)->Arg(1 << 12)->Arg(1 << 15);

void BM_GreenOptDp(benchmark::State& state) {
  Rng rng(4);
  const Trace trace =
      gen::zipf(128, static_cast<std::size_t>(state.range(0)), 0.9, rng);
  const HeightLadder ladder{4, 64};
  for (auto _ : state) {
    benchmark::DoNotOptimize(green_opt_impact(trace, ladder, 8));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_GreenOptDp)->Arg(1 << 10)->Arg(1 << 12);

/// An EngineView on which all p processors stay active.
class AllActiveView final : public EngineView {
 public:
  explicit AllActiveView(ProcId p) : p_(p) {}
  ProcId num_procs() const override { return p_; }
  ProcId active_count() const override { return p_; }
  bool is_active(ProcId) const override { return true; }

 private:
  ProcId p_;
};

/// DET-PAR's next_box alone, as a function of p: a stub view, k = 8p, no
/// trace work. Processors ask in turn, each at the end of its previous box,
/// all inside the one phase start() opens. Items are boxes. k = 8p pins the
/// base height at 16, so the strips grow only with log p (6 at p=64, 12 at
/// p=4096); scripts/bench_perf.sh checks that ns/box grows no faster.
void BM_DetParNextBox(benchmark::State& state) {
  const auto p = static_cast<ProcId>(state.range(0));
  const AllActiveView view(p);
  const auto scheduler = make_det_par();
  scheduler->start(SchedulerContext{p, 8 * p, 8}, view);
  std::vector<Time> free_at(p, 0);
  ProcId proc = 0;
  for (auto _ : state) {
    const BoxAssignment box = scheduler->next_box(proc, free_at[proc], view);
    free_at[proc] = box.end;
    proc = proc + 1 == p ? 0 : proc + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DetParNextBox)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

/// The OPT-bounds rung: one processor's trace of the deep-mat cell shape
/// (hetero-mix, p = 16, k = 128, s = 8; processor 1, a zipf stream over
/// 32 pages), `n` requests long. Items are requests.
Trace opt_bounds_trace(std::size_t n) {
  WorkloadParams params;
  params.num_procs = 16;
  params.cache_size = 128;
  params.miss_cost = 8;
  params.requests_per_proc = n;
  params.seed = 1;
  return materialize(
      make_workload_source(WorkloadKind::kHeterogeneousMix, params)
          .source(1));
}

/// The BusyMin term of T_LB through the bounds pass (busy_min_single runs
/// the whole pass). The trace's 32 pages fit in k = 128, so Belady is
/// settled from the distinct count; this times the pass itself.
void BM_BeladyBusyMin(benchmark::State& state) {
  const Trace trace =
      opt_bounds_trace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(busy_min_single(trace, 128, 8));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_BeladyBusyMin)->Arg(1 << 16)->Arg(1 << 20);

/// The I_LB term of T_LB (the sum_i I_LB / k term) through the same pass.
void BM_ImpactLbStack(benchmark::State& state) {
  const Trace trace =
      opt_bounds_trace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(impact_lb_stack(trace, 8));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_ImpactLbStack)->Arg(1 << 16)->Arg(1 << 20);

/// The same I_LB pass on a long-gap trace: page A, then page B 10^5
/// times, then A again, repeated to `n` requests. Every A finds its stack
/// distance 10^5 positions back, across empty bitset words that the
/// summary level must skip; a scan that walked the gap would cost ~1500
/// words per A. scripts/bench_perf.sh gates its ns/request against the
/// hetero-mix BM_ImpactLbStack at the same n.
void BM_ImpactLbStackLongGap(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<PageId> requests;
  requests.reserve(n);
  while (requests.size() < n) {
    requests.push_back(0);
    requests.insert(requests.end(),
                    std::min<std::size_t>(100000, n - requests.size()), 1);
  }
  const Trace trace(std::move(requests));
  for (auto _ : state) {
    benchmark::DoNotOptimize(impact_lb_stack(trace, 8));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_ImpactLbStackLongGap)->Arg(1 << 20);

/// The GLOBAL-LRU baseline of every sweep cell: p streamed hetero-mix
/// processors (k = 8p, s = 8, 2000 requests each) sharing one LRU pool.
/// Items are requests, so p = 16 vs p = 1024 shows how the per-request
/// cost (one LRU probe, span-fed cursors, the ready queue) scales with p;
/// scripts/bench_perf.sh gates that ratio. MinTime(0.5) holds under the
/// --quick gate too: a p = 1024 iteration takes ~0.1 s, so a 0.05 s run
/// would time a single iteration.
void BM_GlobalLru(benchmark::State& state) {
  const auto p = static_cast<ProcId>(state.range(0));
  WorkloadParams wp;
  wp.num_procs = p;
  wp.cache_size = 8 * p;
  wp.requests_per_proc = 2000;
  const MultiTraceSource sources =
      make_workload_source(WorkloadKind::kHeterogeneousMix, wp);
  GlobalLruConfig config;
  config.cache_size = wp.cache_size;
  config.miss_cost = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_global_lru(sources, config).makespan);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(sources.total_requests()));
}
BENCHMARK(BM_GlobalLru)->Arg(16)->Arg(1024)->MinTime(0.5);

void BM_ParallelEngine(benchmark::State& state) {
  const auto p = static_cast<ProcId>(state.range(0));
  WorkloadParams wp;
  wp.num_procs = p;
  wp.cache_size = 8 * p;
  wp.requests_per_proc = 2000;
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);
  EngineConfig ec;
  ec.cache_size = wp.cache_size;
  ec.miss_cost = 8;
  ec.track_memory_timeline = false;
  for (auto _ : state) {
    auto scheduler = make_scheduler(SchedulerKind::kDetPar);
    benchmark::DoNotOptimize(run_parallel(mt, *scheduler, ec).makespan);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(mt.total_requests()));
}
BENCHMARK(BM_ParallelEngine)->Arg(8)->Arg(32)->Arg(128);

/// Same instance pulled lazily from generator sources: measures on-demand
/// generation against the vector cursor spans of the materialized run above.
void BM_ParallelEngineStreamed(benchmark::State& state) {
  const auto p = static_cast<ProcId>(state.range(0));
  WorkloadParams wp;
  wp.num_procs = p;
  wp.cache_size = 8 * p;
  wp.requests_per_proc = 2000;
  const MultiTraceSource sources =
      make_workload_source(WorkloadKind::kHeterogeneousMix, wp);
  EngineConfig ec;
  ec.cache_size = wp.cache_size;
  ec.miss_cost = 8;
  ec.track_memory_timeline = false;
  for (auto _ : state) {
    auto scheduler = make_scheduler(SchedulerKind::kDetPar);
    benchmark::DoNotOptimize(run_parallel(sources, *scheduler, ec).makespan);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(sources.total_requests()));
}
BENCHMARK(BM_ParallelEngineStreamed)->Arg(8)->Arg(32)->Arg(128);

/// BM_ParallelEngine with intra-run threading: the same instance, every
/// same-time box batch fanned out across all hardware threads
/// (EngineConfig::engine_threads). Metrics are byte-identical to the
/// serial runs above; only the wall clock should move. The acceptance
/// target is >= 2x BM_ParallelEngine/128 on a multi-core host; on a
/// single-core machine this degenerates to the serial path plus pool
/// overhead. Wall-clock timed (UseRealTime): the pool's work runs on other
/// threads, so the main thread's CPU time would overstate the throughput.
/// MinTime(0.5) holds even under --benchmark_min_time=0.05 (the --quick
/// gate): over ~10 iterations the wall clock read 30-50% low and bimodal on
/// a 4-core host, so a short run cannot be compared with the snapshot.
void BM_ParallelEngineThreaded(benchmark::State& state) {
  const auto p = static_cast<ProcId>(state.range(0));
  WorkloadParams wp;
  wp.num_procs = p;
  wp.cache_size = 8 * p;
  wp.requests_per_proc = 2000;
  const MultiTrace mt = make_workload(WorkloadKind::kHeterogeneousMix, wp);
  EngineConfig ec;
  ec.cache_size = wp.cache_size;
  ec.miss_cost = 8;
  ec.track_memory_timeline = false;
  ec.engine_threads = ThreadPool::hardware_jobs();
  for (auto _ : state) {
    auto scheduler = make_scheduler(SchedulerKind::kDetPar);
    benchmark::DoNotOptimize(run_parallel(mt, *scheduler, ec).makespan);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(mt.total_requests()));
}
BENCHMARK(BM_ParallelEngineThreaded)->Arg(8)->Arg(32)->Arg(128)
    ->UseRealTime()
    ->MinTime(0.5);

/// Threaded + streamed: the combination the makespan sweeps run at scale —
/// lazy generator sources, span-buffered box runners, and the per-step box
/// fan-out all at once. Timed like the bench above.
void BM_ParallelEngineThreadedStreamed(benchmark::State& state) {
  const auto p = static_cast<ProcId>(state.range(0));
  WorkloadParams wp;
  wp.num_procs = p;
  wp.cache_size = 8 * p;
  wp.requests_per_proc = 2000;
  const MultiTraceSource sources =
      make_workload_source(WorkloadKind::kHeterogeneousMix, wp);
  EngineConfig ec;
  ec.cache_size = wp.cache_size;
  ec.miss_cost = 8;
  ec.track_memory_timeline = false;
  ec.engine_threads = ThreadPool::hardware_jobs();
  for (auto _ : state) {
    auto scheduler = make_scheduler(SchedulerKind::kDetPar);
    benchmark::DoNotOptimize(run_parallel(sources, *scheduler, ec).makespan);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(sources.total_requests()));
}
BENCHMARK(BM_ParallelEngineThreadedStreamed)
    ->Arg(128)
    ->UseRealTime()
    ->MinTime(0.5);

}  // namespace

BENCHMARK_MAIN();
