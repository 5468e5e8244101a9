#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/global_lru.hpp"
#include "core/parallel_engine.hpp"
#include "trace/generators.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ppg;

const char* workload_name(WorkloadId id) {
  switch (id) {
    case WorkloadId::kDeepMat: return "deep-mat";
    case WorkloadId::kWideStream: return "wide-stream";
    case WorkloadId::kServicePoisson: return "service-poisson";
  }
  return "unknown";
}

std::optional<WorkloadId> parse_workload(const std::string& name) {
  for (const WorkloadId id : all_workloads())
    if (name == workload_name(id)) return id;
  return std::nullopt;
}

std::vector<WorkloadId> all_workloads() {
  return {WorkloadId::kDeepMat, WorkloadId::kWideStream,
          WorkloadId::kServicePoisson};
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void DurationHistogram::add(double seconds) {
  const double octaves = std::log2(std::max(seconds, 1e-9) / 1e-9);
  const auto bucket = static_cast<std::size_t>(octaves * kPerOctave);
  ++buckets_[std::min(bucket, kBuckets - 1)];
  ++count_;
}

void DurationHistogram::merge(const DurationHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double DurationHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  std::size_t b = 0;
  for (; b + 1 < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) break;
  }
  return 1e-9 * std::exp2((static_cast<double>(b) + 0.5) / kPerOctave);
}

void Digest::add(std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (8 * byte)) & 0xffU;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::add(const std::string& text) {
  add(static_cast<std::uint64_t>(text.size()));
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;
  }
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

std::uint32_t SpanLog::begin(const char* name, std::uint32_t parent) {
  spans_.push_back({name, parent, now_s(), 0.0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::end(std::uint32_t id) { spans_[id].end_s = now_s(); }

void SpanLog::add(const char* name, std::uint32_t parent, double start_s,
                  double end_s) {
  spans_.push_back({name, parent, start_s, end_s});
}

namespace {

/// Adds the wall time of its scope to `sink`.
class ScopedTimer {
 public:
  explicit ScopedTimer(double& sink) : sink_(sink), start_(now_s()) {}
  ~ScopedTimer() { sink_ += now_s() - start_; }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double& sink_;
  double start_;
};

/// Adds the wall time of its scope to `sink` and records it as a span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint32_t parent,
             double& sink)
      : log_(log), sink_(sink), id_(log.begin(name, parent)) {}
  ~ScopedSpan() {
    log_.end(id_);
    const SpanLog::Span& span = log_.spans()[id_];
    sink_ += span.end_s - span.start_s;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  double& sink_;
  std::uint32_t id_;
};

/// position() and done() are forwarded untimed: they are plain getters
/// behind the virtual call, cheaper than the clock read that would time
/// them, and the consumers call them once per request.
class TimedCursor final : public TraceCursor {
 public:
  TimedCursor(std::unique_ptr<TraceCursor> inner, TraceTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  std::uint64_t position() const override { return inner_->position(); }
  bool done() const override { return inner_->done(); }

  PageId peek() override {
    const ScopedTimer timer(times_.busy_s);
    return inner_->peek();
  }

  void advance() override {
    ++times_.pages;
    const ScopedTimer timer(times_.busy_s);
    inner_->advance();
  }

  CursorCheckpoint checkpoint() const override {
    const ScopedTimer timer(times_.busy_s);
    return inner_->checkpoint();
  }

  void rewind(const CursorCheckpoint& cp) override {
    const ScopedTimer timer(times_.busy_s);
    inner_->rewind(cp);
  }

  std::size_t next_span(PageId* out, std::size_t max) override {
    ++times_.spans;
    const ScopedTimer timer(times_.busy_s);
    const std::size_t n = inner_->next_span(out, max);
    times_.pages += n;
    return n;
  }

 private:
  std::unique_ptr<TraceCursor> inner_;
  TraceTimes& times_;
};

class TimedSource final : public TraceSource {
 public:
  TimedSource(std::shared_ptr<const TraceSource> inner, TraceTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  std::uint64_t num_requests() const override {
    return inner_->num_requests();
  }

  std::unique_ptr<TraceCursor> cursor() const override {
    std::unique_ptr<TraceCursor> inner;
    {
      const ScopedTimer timer(times_.busy_s);
      inner = inner_->cursor();
    }
    return std::make_unique<TimedCursor>(std::move(inner), times_);
  }

 private:
  std::shared_ptr<const TraceSource> inner_;
  TraceTimes& times_;
};

}  // namespace

TimedScheduler::TimedScheduler(std::unique_ptr<BoxScheduler> inner,
                               SchedulerTimes& times)
    : inner_(std::move(inner)), times_(times) {}

void TimedScheduler::start(const SchedulerContext& ctx,
                           const EngineView& view) {
  const ScopedTimer timer(times_.start_s);
  inner_->start(ctx, view);
}

BoxAssignment TimedScheduler::next_box(ProcId proc, Time now,
                                       const EngineView& view) {
  ++times_.next_box_calls;
  const ScopedTimer timer(times_.next_box_s);
  return inner_->next_box(proc, now, view);
}

void TimedScheduler::notify_finished(ProcId proc, Time now,
                                     const EngineView& view) {
  ++times_.notify_calls;
  const ScopedTimer timer(times_.notify_s);
  inner_->notify_finished(proc, now, view);
}

void TimedScheduler::notify_arrived(ProcId proc, Time now,
                                    const EngineView& view) {
  ++times_.notify_calls;
  const ScopedTimer timer(times_.notify_s);
  inner_->notify_arrived(proc, now, view);
}

void TimedScheduler::notify_departed(ProcId proc, Time now,
                                     const EngineView& view) {
  ++times_.notify_calls;
  ++times_.depart_calls;
  const ScopedTimer timer(times_.notify_s);
  inner_->notify_departed(proc, now, view);
}

double timer_cost_s() {
  constexpr int kBatches = 9;
  constexpr int kScopes = 20000;
  std::vector<double> per_scope;
  for (int b = 0; b < kBatches; ++b) {
    double sink = 0.0;
    const double t0 = now_s();
    for (int i = 0; i < kScopes; ++i) {
      const ScopedTimer timer(sink);
    }
    per_scope.push_back((now_s() - t0) / kScopes);
  }
  std::nth_element(per_scope.begin(), per_scope.begin() + kBatches / 2,
                   per_scope.end());
  return per_scope[kBatches / 2];
}

std::shared_ptr<const TraceSource> timed_source(
    std::shared_ptr<const TraceSource> inner, TraceTimes& times) {
  return std::make_shared<const TimedSource>(std::move(inner), times);
}

// ---------------------------------------------------------------------------
// Batch workloads.
// ---------------------------------------------------------------------------

BatchSpec batch_spec(WorkloadId id) {
  BatchSpec spec;
  spec.miss_cost = 8;
  if (id == WorkloadId::kDeepMat) {
    spec.procs = 16;
    spec.cache_size = 128;
    spec.requests_per_proc = 1000000;
    spec.streamed = false;
  } else {
    spec.procs = 1024;
    spec.cache_size = 8192;
    spec.requests_per_proc = 2048;
    spec.streamed = true;
  }
  return spec;
}

std::unique_ptr<BatchInstance> make_batch_instance(const BatchSpec& spec,
                                                   std::uint64_t seed) {
  WorkloadParams params;
  params.num_procs = spec.procs;
  params.cache_size = spec.cache_size;
  params.requests_per_proc = spec.requests_per_proc;
  params.seed = seed;
  params.miss_cost = spec.miss_cost;
  auto instance = std::make_unique<BatchInstance>();
  instance->spec = spec;
  if (spec.streamed) {
    instance->sources =
        make_workload_source(WorkloadKind::kHeterogeneousMix, params);
  } else {
    instance->traces = make_workload(WorkloadKind::kHeterogeneousMix, params);
    instance->sources = MultiTraceSource::view_of(instance->traces);
  }
  instance->total_requests = instance->sources.total_requests();
  return instance;
}

ExperimentConfig batch_config(const BatchSpec& spec, std::uint64_t seed) {
  ExperimentConfig config;
  config.cache_size = spec.cache_size;
  config.miss_cost = spec.miss_cost;
  config.seed = seed;
  return config;
}

std::vector<SchedulerKind> batch_kinds() {
  return {SchedulerKind::kDetPar, SchedulerKind::kRandPar};
}

InstanceOutcome run_batch_cell(const BatchInstance& instance,
                               const ExperimentConfig& config) {
  return run_instance(instance.sources, batch_kinds(), config);
}

InstanceOutcome run_batch_cell_traced(const BatchInstance& instance,
                                      const ExperimentConfig& config,
                                      BatchLayers& layers) {
  // Streamed inputs get fresh timed wrappers per call so each layer's
  // cursor time lands in its own counter; materialized ones stay as they
  // are (wrapping would hide materialized() and leave the dense path).
  const auto sources_for = [&](TraceTimes& times) {
    if (!instance.spec.streamed) return instance.sources;
    MultiTraceSource wrapped;
    for (ProcId i = 0; i < instance.sources.num_procs(); ++i)
      wrapped.add(timed_source(instance.sources.source_ptr(i), times));
    return wrapped;
  };

  const std::uint32_t cell = layers.spans.begin("cell");
  InstanceOutcome out;
  OptBoundsConfig ob;
  ob.cache_size = config.cache_size;
  ob.miss_cost = config.miss_cost;
  ob.exact_impact_max_requests = config.exact_impact_max_requests;
  {
    const MultiTraceSource sources = sources_for(layers.trace_opt);
    const ScopedSpan span(layers.spans, "opt_bounds", cell, layers.opt_s);
    out.bounds = compute_opt_bounds(sources, ob);
  }
  const double lb =
      static_cast<double>(std::max<Time>(1, out.bounds.lower_bound()));

  EngineConfig ec;
  ec.cache_size = config.cache_size;
  ec.miss_cost = config.miss_cost;
  ec.max_time = config.max_time;
  ec.max_events = config.cell_event_budget;
  ec.seed = config.seed;
  ec.trace_spec = config.trace_spec;
  ec.engine_threads = config.engine_threads;

  const std::vector<SchedulerKind> kinds = batch_kinds();
  for (std::size_t idx = 0; idx < kinds.size(); ++idx) {
    auto inner = std::make_unique<TimedScheduler>(
        make_scheduler(kinds[idx], config.seed), layers.inner[idx]);
    TimedScheduler outer(make_validating(std::move(inner), config.validator),
                         layers.outer[idx]);
    SchedulerOutcome so;
    so.name = scheduler_kind_name(kinds[idx]);
    ec.scheduler_spec = so.name;
    const MultiTraceSource sources = sources_for(layers.trace_run[idx]);
    CheckedRun run;
    {
      const ScopedSpan span(layers.spans, scheduler_kind_name(kinds[idx]),
                            cell, layers.run_s[idx]);
      run = run_parallel_checked(sources, outer, ec);
    }
    layers.events[idx] = run.events_consumed;
    so.status = std::move(run.status);
    so.result = std::move(run.result);
    if (so.status.ok()) {
      so.makespan_ratio = static_cast<double>(so.result.makespan) / lb;
      so.mean_ct_ratio = so.result.mean_completion / lb;
    }
    out.outcomes.push_back(std::move(so));
  }

  if (config.include_global_lru) {
    GlobalLruConfig gc;
    gc.cache_size = config.cache_size;
    gc.miss_cost = config.miss_cost;
    SchedulerOutcome so;
    so.name = "GLOBAL-LRU";
    const MultiTraceSource sources = sources_for(layers.trace_lru);
    try {
      const ScopedSpan span(layers.spans, "GLOBAL-LRU", cell, layers.lru_s);
      so.result = run_global_lru(sources, gc);
      so.makespan_ratio = static_cast<double>(so.result.makespan) / lb;
      so.mean_ct_ratio = so.result.mean_completion / lb;
    } catch (const PpgException& e) {
      so.status = RunStatus::failure(e.error());
    }
    out.outcomes.push_back(std::move(so));
  }
  layers.spans.end(cell);
  return out;
}

std::uint64_t batch_digest(const InstanceOutcome& outcome) {
  Digest d;
  d.add(outcome.bounds.lb_max_length);
  d.add(outcome.bounds.lb_max_single);
  d.add(outcome.bounds.lb_impact);
  for (const SchedulerOutcome& so : outcome.outcomes) {
    const ParallelRunResult& r = so.result;
    d.add(so.name);
    d.add(static_cast<std::uint64_t>(so.status.error.code));
    d.add(r.makespan);
    d.add(static_cast<std::uint64_t>(r.completion.size()));
    for (const Time t : r.completion) d.add(t);
    d.add(r.hits);
    d.add(r.misses);
    d.add(r.num_boxes);
    d.add(r.total_stall);
    d.add(r.total_impact);
    d.add(r.peak_concurrent_height);
  }
  return d.value();
}

std::vector<std::string> check_batch(const InstanceOutcome& outcome,
                                     std::uint64_t total_requests,
                                     ProcId procs, Height cache_size) {
  std::vector<std::string> failures;
  if (procs >= cache_size)
    failures.push_back("out of model: p=" + std::to_string(procs) +
                       " >= k=" + std::to_string(cache_size));
  if (outcome.outcomes.size() != batch_kinds().size() + 1)
    failures.push_back("expected " + std::to_string(batch_kinds().size() + 1) +
                       " policy outcomes, got " +
                       std::to_string(outcome.outcomes.size()));
  const Time lb = outcome.bounds.lower_bound();
  for (const SchedulerOutcome& so : outcome.outcomes) {
    if (!so.status.ok()) {
      failures.push_back(so.name + ": run failed: " +
                         so.status.error.message);
      continue;
    }
    const std::uint64_t served = so.result.hits + so.result.misses;
    if (served != total_requests)
      failures.push_back(so.name + ": hits + misses = " +
                         std::to_string(served) + " != " +
                         std::to_string(total_requests) + " requests");
    if (so.result.makespan < lb)
      failures.push_back(so.name + ": makespan " +
                         std::to_string(so.result.makespan) +
                         " below the certified lower bound " +
                         std::to_string(lb));
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Service workload.
// ---------------------------------------------------------------------------

std::vector<TenantInput> make_tenants(const ServiceSpec& spec,
                                      std::uint64_t seed) {
  std::vector<TenantInput> tenants;
  tenants.reserve(spec.tenants);
  const std::size_t n = spec.requests_per_tenant;
  Rng arrival_rng(seed);
  Time arrival = 0;
  for (std::uint64_t i = 0; i < spec.tenants; ++i) {
    const Rng rng(seed * 1000003 + i);
    TenantInput t;
    switch (i % 4) {
      case 0: t.source = gen::cyclic_source(/*num_pages=*/17, n); break;
      case 1:
        t.source = gen::zipf_source(/*num_pages=*/64, n, /*theta=*/0.9, rng);
        break;
      case 2:
        t.source = gen::sawtooth_source(
            /*hot=*/4, /*cold=*/32,
            /*burst_len=*/std::max<std::size_t>(1, n / 4),
            /*num_bursts=*/4, rng);
        break;
      default: t.source = gen::single_use_source(n); break;
    }
    t.arrival = arrival;
    tenants.push_back(std::move(t));
    arrival += static_cast<Time>(std::llround(
        -std::log(1.0 - arrival_rng.next_double()) * spec.mean_gap));
  }
  return tenants;
}

ServiceRun drive_service(const ServiceSpec& spec,
                         const std::vector<TenantInput>& tenants,
                         std::uint64_t seed, ServiceLayers* layers) {
  std::unique_ptr<BoxScheduler> scheduler =
      make_scheduler(SchedulerKind::kDetPar, seed);
  if (layers != nullptr)
    scheduler =
        std::make_unique<TimedScheduler>(std::move(scheduler), layers->sched);

  ServiceConfig sc;
  sc.cache_size = spec.cache_size;
  sc.miss_cost = spec.miss_cost;
  sc.admission_queue_limit = spec.queue_limit;
  sc.admission_policy = AdmissionPolicy::kFifoReject;

  ServiceRun run;
  const double drive_start = now_s();
  const std::uint32_t drive =
      layers != nullptr ? layers->spans.begin("drive") : SpanLog::kNoParent;
  PagingService service(*scheduler, sc);
  service.on_completion(
      [&run](const TenantOutcome& o) { run.outcomes.push_back(o); });
  run.outcomes.reserve(tenants.size());

  const auto step = [&] {
    const double t0 = now_s();
    const bool progressed = service.step();
    const double dt = now_s() - t0;
    run.step_times.add(dt);
    ++run.steps;
    run.active_max = std::max<std::uint64_t>(run.active_max,
                                             service.stepper().active_count());
    if (layers != nullptr) {
      layers->spans.add("step", drive, t0, t0 + dt);
      layers->step_s += dt;
      layers->queue_max =
          std::max(layers->queue_max, service.metrics().queued);
    }
    return progressed;
  };

  const auto submit = [&](const TenantInput& t) -> std::optional<TenantId> {
    if (layers == nullptr) return service.submit(t.source, t.arrival);
    const auto source = timed_source(t.source, layers->trace);
    ++layers->submit_calls;
    const ScopedTimer timer(layers->submit_s);
    return service.submit(source, t.arrival);
  };

  // A refused submission drains the service with a doubling number of
  // steps (1 -> 256) before the next attempt, so every tenant is admitted
  // eventually; a refusal against an idle service is permanent.
  const auto submit_with_retry =
      [&](const TenantInput& t) -> std::optional<TenantId> {
    std::uint64_t steps = 1;
    for (;;) {
      if (const auto id = submit(t)) return id;
      ++run.rejects;
      bool progressed = false;
      for (std::uint64_t i = 0; i < steps && service.status().ok(); ++i)
        progressed = step() || progressed;
      if (!progressed) return std::nullopt;
      steps = std::min<std::uint64_t>(steps * 2, 256);
    }
  };

  // Departures pick the latest tenant whose arrival time the service has
  // reached. step() admits every queued tenant due by the time it steps
  // to, so that tenant is running, and departing it exercises the mid-run
  // cancel (EngineStepper::depart, the scheduler's notify_departed
  // re-phasing). Tenants submitted ahead of their arrival still wait in
  // the queue, which departs them without the engine seeing them. Before
  // the first step the only candidates are such queued t = 0 tenants.
  std::vector<std::optional<TenantId>> ids(tenants.size());
  std::size_t departed_upto = 0;  // Candidates below this were departed.
  const auto depart_latest_arrived = [&](std::size_t submitted) {
    const auto end = tenants.begin() + static_cast<std::ptrdiff_t>(submitted);
    const auto arrived = static_cast<std::size_t>(
        std::upper_bound(tenants.begin(), end, service.now(),
                         [](Time now, const TenantInput& t) {
                           return now < t.arrival;
                         }) -
        tenants.begin());
    if (arrived <= departed_upto) return;
    departed_upto = arrived;
    if (ids[arrived - 1]) service.depart(*ids[arrived - 1]);
  };

  std::size_t submitted = 0;
  while (submitted < tenants.size() || !service.idle()) {
    while (submitted < tenants.size()) {
      ids[submitted] = submit_with_retry(tenants[submitted]);
      if (!ids[submitted]) ++run.refused;
      ++submitted;
      if (spec.depart_every > 0 && submitted % spec.depart_every == 0)
        depart_latest_arrived(submitted);
    }
    if (!step() && !service.status().ok()) break;
  }
  run.drive_s = now_s() - drive_start;
  if (layers != nullptr) layers->spans.end(drive);
  run.status = service.status();
  run.metrics = service.metrics();
  for (const TenantOutcome& o : run.outcomes)
    run.requests_served += o.hits + o.misses;
  return run;
}

std::uint64_t service_digest(const ServiceRun& run) {
  Digest d;
  for (const TenantOutcome& o : run.outcomes) {
    d.add(o.tenant);
    d.add(o.arrival);
    d.add(o.admitted);
    d.add(o.completed);
    d.add(o.hits);
    d.add(o.misses);
    d.add(static_cast<std::uint64_t>(o.terminal));
    d.add(static_cast<std::uint64_t>(o.error.code));
  }
  const ServiceMetrics& m = run.metrics;
  for (const std::uint64_t v :
       {m.submitted, m.rejected, m.admitted, m.completed, m.departed,
        m.quarantined, m.shed, m.events_consumed, m.max_faults, run.steps,
        run.rejects, run.refused})
    d.add(v);
  d.add(m.now);
  d.add(static_cast<std::uint64_t>(run.status.error.code));
  return d.value();
}

std::vector<std::string> check_service(const ServiceRun& run,
                                       const ServiceSpec& spec,
                                       const std::vector<TenantInput>& tenants) {
  std::vector<std::string> failures;
  const ServiceMetrics& m = run.metrics;
  if (!run.status.ok())
    failures.push_back("service failed: " + run.status.error.message);
  if (run.refused != 0)
    failures.push_back(std::to_string(run.refused) +
                       " tenants were never admitted");
  if (m.submitted != tenants.size())
    failures.push_back("submitted " + std::to_string(m.submitted) + " of " +
                       std::to_string(tenants.size()) + " tenants");
  if (m.completed + m.departed + m.quarantined != m.submitted)
    failures.push_back(
        "completed + departed + quarantined = " +
        std::to_string(m.completed + m.departed + m.quarantined) +
        " != submitted " + std::to_string(m.submitted));
  if (run.outcomes.size() != m.submitted)
    failures.push_back(std::to_string(run.outcomes.size()) +
                       " tenant outcomes for " + std::to_string(m.submitted) +
                       " submitted tenants");
  if (m.quarantined != 0)
    failures.push_back(std::to_string(m.quarantined) +
                       " tenants quarantined");
  // Tenant ids are submission indices, since no submission was refused.
  for (const TenantOutcome& o : run.outcomes) {
    const std::string tenant = "tenant " + std::to_string(o.tenant);
    if (o.tenant >= tenants.size()) {
      failures.push_back(tenant + " was never submitted");
      break;
    }
    if (o.terminal == TenantTerminal::kQuarantined || !o.error.ok()) {
      failures.push_back(tenant + " did not end ok: " + o.error.message);
      break;
    }
    const std::uint64_t length = tenants[o.tenant].source->num_requests();
    if (o.terminal == TenantTerminal::kCompleted &&
        o.hits + o.misses != length) {
      failures.push_back(tenant + ": hits + misses = " +
                         std::to_string(o.hits + o.misses) + " != " +
                         std::to_string(length));
      break;
    }
  }
  if (run.active_max >= spec.cache_size)
    failures.push_back("out of model: " + std::to_string(run.active_max) +
                       " active tenants >= k=" +
                       std::to_string(spec.cache_size));
  return failures;
}

}  // namespace perfbench
