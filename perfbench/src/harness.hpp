// End-to-end benchmark harness for the parallel-paging library.
//
// Three workloads drive the library through its public entry points only:
//
//   deep-mat         one sweep cell (run_instance: DET-PAR, RAND-PAR and
//                    GLOBAL-LRU with contract validation) on a long,
//                    materialized hetero-mix instance with few processors;
//   wide-stream      the same cell on a wide, short, streamed instance;
//   service-poisson  PagingService under DET-PAR with Poisson tenant
//                    arrivals, bounded fifo-reject admission with retry, and
//                    periodic departures.
//
// Every input is a pure function of one seed. Each workload has an untraced
// path (exactly what a user runs) and a traced path that wraps the
// scheduler and the streamed trace sources in forwarding timers and times
// each library call the untraced path makes. Both paths produce the same
// simulated statistics, summarized by a digest (batch_digest /
// service_digest); the output checks (check_batch / check_service) return
// one message per violated invariant.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "core/scheduler.hpp"
#include "service/paging_service.hpp"
#include "trace/trace_source.hpp"

namespace perfbench {

using ppg::Height;
using ppg::ProcId;
using ppg::Time;

enum class WorkloadId { kDeepMat, kWideStream, kServicePoisson };

const char* workload_name(WorkloadId id);
std::optional<WorkloadId> parse_workload(const std::string& name);
std::vector<WorkloadId> all_workloads();

/// Monotonic wall clock, in seconds.
double now_s();

/// Host durations in log-spaced buckets (64 per octave, from 1 ns), so a
/// run keeps a fixed-size record however many calls it times.
class DurationHistogram {
 public:
  void add(double seconds);
  void merge(const DurationHistogram& other);
  std::uint64_t count() const { return count_; }
  /// Nearest-rank q-quantile (0 <= q <= 1), in seconds: the geometric
  /// centre of its bucket, so within 0.6% of the sample. 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kPerOctave = 64;
  static constexpr std::size_t kBuckets = 64 * 40;  // 1 ns to ~18 min.
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// 64-bit FNV-1a accumulator for the simulation digests.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(const std::string& text);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

// ---------------------------------------------------------------------------
// Tracing (traced runs only).
// ---------------------------------------------------------------------------

/// Spans at the coarse boundaries of a traced repetition (cell -> opt /
/// scheduler run / GLOBAL-LRU; service drive -> step), kept in memory and
/// written out when the run ends. Per-call boundaries are summed counters
/// in the *Times structs instead.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  struct Span {
    const char* name = "";
    std::uint32_t parent = kNoParent;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  /// Opens a span starting now; returns its id for end() and children.
  std::uint32_t begin(const char* name, std::uint32_t parent = kNoParent);
  void end(std::uint32_t id);
  /// Records a span whose times the caller already took.
  void add(const char* name, std::uint32_t parent, double start_s,
           double end_s);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Time a TimedScheduler spent inside its inner scheduler, by call kind.
struct SchedulerTimes {
  std::uint64_t next_box_calls = 0;
  double next_box_s = 0.0;
  std::uint64_t notify_calls = 0;  ///< notify_finished/arrived/departed.
  std::uint64_t depart_calls = 0;  ///< notify_departed alone.
  double notify_s = 0.0;
  double start_s = 0.0;

  double total_s() const { return next_box_s + notify_s + start_s; }
  /// Timed calls (start() aside).
  std::uint64_t calls() const { return next_box_calls + notify_calls; }
};

/// Wall time one timed call adds around the call it times (two clock
/// reads and the bookkeeping), measured on this host: the median over
/// several batches of empty timed scopes.
double timer_cost_s();

/// Forwarding BoxScheduler that adds the wall time of every call it
/// forwards to `times`. Transparent: the inner scheduler sees the same
/// calls in the same order with the same arguments.
class TimedScheduler final : public ppg::BoxScheduler {
 public:
  TimedScheduler(std::unique_ptr<ppg::BoxScheduler> inner,
                 SchedulerTimes& times);

  void start(const ppg::SchedulerContext& ctx,
             const ppg::EngineView& view) override;
  ppg::BoxAssignment next_box(ProcId proc, Time now,
                              const ppg::EngineView& view) override;
  void notify_finished(ProcId proc, Time now,
                       const ppg::EngineView& view) override;
  void notify_arrived(ProcId proc, Time now,
                      const ppg::EngineView& view) override;
  void notify_departed(ProcId proc, Time now,
                       const ppg::EngineView& view) override;
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<ppg::BoxScheduler> inner_;
  SchedulerTimes& times_;
};

/// Cursor activity seen through timed sources.
struct TraceTimes {
  std::uint64_t spans = 0;  ///< next_span calls.
  std::uint64_t pages = 0;  ///< Requests consumed (spans + advances).
  double busy_s = 0.0;
};

/// Forwarding TraceSource whose cursors time every call into `times`. Only
/// for streamed sources: the wrapper reports materialized() == nullptr, so
/// wrapping a materialized source would change the engine's path.
std::shared_ptr<const ppg::TraceSource> timed_source(
    std::shared_ptr<const ppg::TraceSource> inner, TraceTimes& times);

// ---------------------------------------------------------------------------
// Batch workloads (deep-mat, wide-stream).
// ---------------------------------------------------------------------------

struct BatchSpec {
  ProcId procs = 0;
  Height cache_size = 0;
  Time miss_cost = 8;
  std::size_t requests_per_proc = 0;
  bool streamed = false;  ///< Generator sources instead of a MultiTrace.
};

BatchSpec batch_spec(WorkloadId id);

struct BatchInstance {
  BatchSpec spec;
  ppg::MultiTrace traces;         ///< Empty when streamed.
  ppg::MultiTraceSource sources;  ///< Views of `traces` when materialized.
  std::uint64_t total_requests = 0;
};

/// hetero-mix instance of `spec` from `seed`. Materialized instances are
/// built with make_workload, streamed ones with make_workload_source.
std::unique_ptr<BatchInstance> make_batch_instance(const BatchSpec& spec,
                                                   std::uint64_t seed);

/// The cell's configuration: library defaults plus k, s and the seed.
ppg::ExperimentConfig batch_config(const BatchSpec& spec, std::uint64_t seed);

/// The cell's box schedulers, in run order (GLOBAL-LRU follows them).
std::vector<ppg::SchedulerKind> batch_kinds();

/// Untraced cell: exactly run_instance.
ppg::InstanceOutcome run_batch_cell(const BatchInstance& instance,
                                    const ppg::ExperimentConfig& config);

/// Per-layer times of one traced cell.
struct BatchLayers {
  SchedulerTimes outer[2];  ///< Around the validator, per box scheduler.
  SchedulerTimes inner[2];  ///< Inside the validator (scheduler proper).
  std::uint64_t events[2] = {0, 0};
  double run_s[2] = {0.0, 0.0};  ///< run_parallel_checked wall time.
  TraceTimes trace_run[2];       ///< Cursor time inside each engine run.
  double opt_s = 0.0;            ///< compute_opt_bounds wall time.
  TraceTimes trace_opt;
  double lru_s = 0.0;  ///< run_global_lru wall time.
  TraceTimes trace_lru;
  SpanLog spans;
};

/// Traced cell: the calls run_instance makes, in the same order with the
/// same configs, each one timed, with both scheduler decorators in place
/// and (on streamed instances) timed sources.
ppg::InstanceOutcome run_batch_cell_traced(const BatchInstance& instance,
                                           const ppg::ExperimentConfig& config,
                                           BatchLayers& layers);

/// Hash of every simulated statistic of the cell: the OPT bounds and, per
/// policy, status, makespan, per-processor completion times, hits, misses,
/// boxes, stall, impact and peak height.
std::uint64_t batch_digest(const ppg::InstanceOutcome& outcome);

/// Output checks; empty when every one holds.
std::vector<std::string> check_batch(const ppg::InstanceOutcome& outcome,
                                     std::uint64_t total_requests,
                                     ProcId procs, Height cache_size);

// ---------------------------------------------------------------------------
// Service workload (service-poisson).
// ---------------------------------------------------------------------------

struct ServiceSpec {
  Height cache_size = 1024;
  Time miss_cost = 8;
  std::uint64_t tenants = 20000;
  std::size_t requests_per_tenant = 256;
  double mean_gap = 4.0;  ///< Mean Poisson inter-arrival gap, in ticks.
  std::size_t queue_limit = 256;
  std::uint64_t depart_every = 50;  ///< Every n-th submission departs one.
};

struct TenantInput {
  std::shared_ptr<const ppg::TraceSource> source;
  Time arrival = 0;
};

/// Tenant sources (rotating cyclic / zipf / sawtooth / single-use) and
/// Poisson arrival times, all from `seed`.
std::vector<TenantInput> make_tenants(const ServiceSpec& spec,
                                      std::uint64_t seed);

/// Per-layer times of one traced drive.
struct ServiceLayers {
  SchedulerTimes sched;
  TraceTimes trace;
  std::uint64_t submit_calls = 0;  ///< Including refused attempts.
  double submit_s = 0.0;
  double step_s = 0.0;          ///< Total time inside step().
  std::uint64_t queue_max = 0;  ///< Admission queue depth after each step.
  SpanLog spans;
};

struct ServiceRun {
  ppg::RunStatus status;
  ppg::ServiceMetrics metrics;
  std::vector<ppg::TenantOutcome> outcomes;  ///< In completion order.
  DurationHistogram step_times;              ///< Host time per step().
  std::uint64_t steps = 0;
  std::uint64_t rejects = 0;  ///< Refused submit attempts (then retried).
  std::uint64_t refused = 0;  ///< Tenants never admitted.
  std::uint64_t active_max = 0;
  std::uint64_t requests_served = 0;  ///< hits + misses over all tenants.
  double drive_s = 0.0;
};

/// Submits every tenant (retrying refusals after draining steps; at every
/// depart_every-th submission, departing the latest tenant that has
/// arrived by the service's current time, which is then running) and
/// steps the service until idle. `layers` non-null turns on the timing
/// decorators.
ServiceRun drive_service(const ServiceSpec& spec,
                         const std::vector<TenantInput>& tenants,
                         std::uint64_t seed, ServiceLayers* layers);

/// Hash of the per-tenant outcomes (in completion order) and the service
/// counters.
std::uint64_t service_digest(const ServiceRun& run);

/// Output checks against the drive's inputs; empty when every one holds.
std::vector<std::string> check_service(const ServiceRun& run,
                                       const ServiceSpec& spec,
                                       const std::vector<TenantInput>& tenants);

}  // namespace perfbench
