// ppg_perfbench: one run of one benchmark workload.
//
// Usage: ppg_perfbench --workload deep-mat|wide-stream|service-poisson
//                      --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Sets the workload up several times (reporting the median set-up time),
// then repeats the measured unit — one sweep cell, or one full service
// drive — until S seconds have passed. With --trace 0 every repetition is
// untraced and the end-to-end metrics are reported; with --trace 1
// untraced and traced repetitions alternate and the per-layer metrics are
// reported, together with the tracing overhead and the unattributed share
// of wall time, and --spans names the file the traced repetitions' spans
// are written to. Every repetition's outputs are checked and hashed; the
// digests must agree across repetitions (and between traced and untraced
// ones).
//
// Prints one "metric" line per value (name, value, unit, sample count), a
// "sim_digest" line, and, last, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// A failed check prints the failures to stderr, reports no metrics, and
// exits 1. Bad arguments, and a sanitizer or unoptimised build, exit 2.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <optional>
#include <utility>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;
using namespace ppg;

struct Options {
  WorkloadId workload = WorkloadId::kDeepMat;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< Where a traced run writes its spans.
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "ppg_perfbench: %s\nusage: ppg_perfbench --workload "
               "deep-mat|wide-stream|service-poisson --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 18)
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  return std::stoull(text);
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      const auto id = parse_workload(value);
      if (!id) usage("unknown workload '" + value + "'");
      options.workload = *id;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_uint(flag, value);
      if (s < 1 || s > 600) usage("--seconds must be in [1, 600]");
      options.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

#ifndef __has_feature
#define __has_feature(x) 0
#endif

/// The sanitizer this binary was compiled with, however it was requested
/// (a build option or -fsanitize in CMAKE_CXX_FLAGS); "none" without one.
/// GCC has no macro for UBSan, so only Clang reports "undefined".
const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
  return "address";
#elif defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(memory_sanitizer)
  return "memory";
#elif __has_feature(undefined_behavior_sanitizer)
  return "undefined";
#else
  return "none";
#endif
}

/// Refuses builds whose timings would not describe the library as shipped.
void check_build() {
  const std::string sanitize = sanitizer();
  if (sanitize != "none")
    usage("refusing to report from a sanitizer build (" + sanitize + ")");
#ifndef __OPTIMIZE__
  usage(std::string("refusing to report from an unoptimised build "
                    "(CMAKE_BUILD_TYPE=") +
        PERFBENCH_BUILD_TYPE + ")");
#endif
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Collected results of one run: metric lines plus the check verdict.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples) {
    std::printf("metric %-28s = %.9g %s (n=%zu)\n", name.c_str(), value,
                unit.c_str(), samples);
    metrics_[name] = {value, unit};
  }

  void fail(const std::vector<std::string>& failures) {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
      failures_.push_back(f);
    }
  }

  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }
  double fail_frac() const {
    return static_cast<double>(failed_) / static_cast<double>(attempted_);
  }

  /// Prints the final JSON line; no metrics when a check failed.
  void finish() const {
    std::string json = std::string("{\"correct\": ") +
                       (correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) +
                       ", \"metrics\": {";
    if (correct()) {
      bool first = true;
      for (const auto& [name, m] : metrics_) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        json += std::string(first ? "" : ", ") + "\"" + name +
                "\": {\"value\": " + value + ", \"unit\": \"" + m.unit +
                "\"}";
        first = false;
      }
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Checks that every repetition reproduced the first one's digest.
class DigestTracker {
 public:
  void add(std::uint64_t digest, const char* what, Report& report) {
    if (!first_) {
      first_ = digest;
    } else if (digest != *first_) {
      char text[128];
      std::snprintf(text, sizeof text,
                    "%s repetition digest %016llx differs from %016llx", what,
                    static_cast<unsigned long long>(digest),
                    static_cast<unsigned long long>(*first_));
      report.fail({text});
    }
  }
  std::uint64_t value() const { return first_.value_or(0); }

 private:
  std::optional<std::uint64_t> first_;
};

/// Writes the spans of every traced repetition as tab-separated lines
/// (repetition, id, parent or -1, name, start and end in microseconds since
/// `origin`). Returns false when the file cannot be written.
template <typename Layers>
bool write_spans(const std::string& path, const std::vector<Layers>& reps,
                 double origin) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "rep\tid\tparent\tname\tstart_us\tend_us\n");
  std::size_t count = 0;
  for (std::size_t rep = 0; rep < reps.size(); ++rep) {
    const auto& spans = reps[rep].spans.spans();
    for (std::size_t id = 0; id < spans.size(); ++id) {
      const SpanLog::Span& s = spans[id];
      const long long parent =
          s.parent == SpanLog::kNoParent ? -1 : static_cast<long long>(s.parent);
      std::fprintf(out, "%zu\t%zu\t%lld\t%s\t%.3f\t%.3f\n", rep, id, parent,
                   s.name, (s.start_s - origin) * 1e6, (s.end_s - origin) * 1e6);
    }
    count += spans.size();
  }
  const bool ok = std::fclose(out) == 0;
  if (ok) std::printf("spans %s (%zu spans)\n", path.c_str(), count);
  return ok;
}

template <typename Fn>
double timed(Fn&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

// A round of set-ups runs before every measured repetition, so the set-up
// samples are spread over the whole run like the measured ones (host speed
// drifts on a scale of seconds). One setup_s sample is a round's mean set-up
// time; the cheap set-ups run many times per round so that a sample spans
// milliseconds rather than one sub-millisecond allocation burst.
constexpr int kBatchMatSetups = 1;
constexpr int kBatchStreamSetups = 48;
constexpr int kServiceSetups = 10;

/// Nanoseconds per unit of work; 0 when there was none.
double ns_per(double seconds, double count) {
  return count > 0 ? seconds * 1e9 / count : 0.0;
}

/// The traced run's own costs: how much slower a traced repetition ran than
/// an untraced one, and the share of traced wall time outside every timed
/// library call (`attributed_s` sums the timed calls).
void report_tracing(Report& report, const std::vector<double>& traced_s,
                    const std::vector<double>& untraced_s,
                    double attributed_s) {
  const double traced_total =
      std::accumulate(traced_s.begin(), traced_s.end(), 0.0);
  report.metric("tracing.overhead_frac",
                median(traced_s) / median(untraced_s) - 1.0, "ratio",
                traced_s.size());
  report.metric("unattributed_frac", 1.0 - attributed_s / traced_total,
                "ratio", traced_s.size());
}

/// `rss_mb` is read by the caller before it builds any aggregate, so the
/// figure reflects the simulator, not the number of repetitions.
void report_common(Report& report, const std::vector<double>& setup,
                   double req_per_s, std::size_t req_samples, double rss_mb) {
  report.metric("setup_s", median(setup), "s", setup.size());
  report.metric("sim_req_per_s", req_per_s, "1/s", req_samples);
  report.metric("peak_rss_mb", rss_mb, "MiB", 1);
}

// ---------------------------------------------------------------------------
// Batch workloads.
// ---------------------------------------------------------------------------

void batch_end_to_end(Report& report, const BatchInstance& instance,
                      const InstanceOutcome& first,
                      const std::vector<double>& setup,
                      const std::vector<double>& cell_s) {
  const double rss_mb = peak_rss_mb();
  const double policies = static_cast<double>(first.outcomes.size());
  std::vector<double> req_per_s;
  for (const double s : cell_s)
    req_per_s.push_back(static_cast<double>(instance.total_requests) *
                        policies / s);
  report_common(report, setup, median(req_per_s), req_per_s.size(), rss_mb);

  // Every processor of a batch arrives at t = 0, so its latency is its
  // completion time; DET-PAR is the policy every workload shares.
  const ParallelRunResult& det = first.outcomes[0].result;
  std::vector<double> latency(det.completion.begin(), det.completion.end());
  report.metric("latency_p50_ticks", quantile(latency, 0.5), "ticks",
                latency.size());
  report.metric("latency_p99_ticks", quantile(latency, 0.99), "ticks",
                latency.size());
  report.metric("latency_mean_ticks", det.mean_completion, "ticks",
                latency.size());
  const char* keys[] = {"det_par", "rand_par", "global_lru"};
  for (std::size_t i = 0; i < first.outcomes.size(); ++i)
    report.metric(std::string("makespan_over_lb.") + keys[i],
                  first.outcomes[i].makespan_ratio, "ratio", 1);
  for (std::size_t i = 0; i + 1 < first.outcomes.size(); ++i)
    report.metric(std::string("augmentation.") + keys[i],
                  first.outcomes[i].result.effective_augmentation, "ratio", 1);
}

void batch_per_layer(Report& report, const BatchInstance& instance,
                     const InstanceOutcome& outcome,
                     const std::vector<BatchLayers>& cells,
                     const std::vector<double>& traced_s,
                     const std::vector<double>& untraced_s) {
  const double n = static_cast<double>(cells.size());
  const double requests = static_cast<double>(instance.total_requests);
  double contract = 0, notify_s = 0, engine = 0, trace = 0, opt = 0, lru = 0;
  double notify_calls = 0, spans = 0, pages = 0, events = 0;
  double inner_s[2] = {0, 0}, inner_calls[2] = {0, 0}, attributed = 0;
  // The outer scheduler timer also covers the inner one's own cost; take
  // that out of the validator's figure.
  const double timer_s = timer_cost_s();
  for (const BatchLayers& l : cells) {
    for (int i = 0; i < 2; ++i) {
      inner_s[i] += l.inner[i].next_box_s;
      inner_calls[i] += static_cast<double>(l.inner[i].next_box_calls);
      contract += std::max(
          0.0, l.outer[i].total_s() - l.inner[i].total_s() -
                   timer_s * static_cast<double>(l.inner[i].calls()));
      notify_s += l.outer[i].notify_s;
      notify_calls += static_cast<double>(l.outer[i].notify_calls);
      engine += l.run_s[i] - l.outer[i].total_s() - l.trace_run[i].busy_s;
      trace += l.trace_run[i].busy_s;
      spans += static_cast<double>(l.trace_run[i].spans);
      pages += static_cast<double>(l.trace_run[i].pages);
      events += static_cast<double>(l.events[i]);
      attributed += l.run_s[i];
    }
    for (const TraceTimes* t : {&l.trace_opt, &l.trace_lru}) {
      trace += t->busy_s;
      spans += static_cast<double>(t->spans);
      pages += static_cast<double>(t->pages);
    }
    opt += l.opt_s - l.trace_opt.busy_s;
    lru += l.lru_s - l.trace_lru.busy_s;
    attributed += l.opt_s + l.lru_s;
  }
  const std::size_t samples = cells.size();
  report.metric("core.det_par.calls", inner_calls[0] / n, "count", samples);
  report.metric("core.det_par.ns_per_box", ns_per(inner_s[0], inner_calls[0]),
                "ns", samples);
  report.metric("core.rand_par.calls", inner_calls[1] / n, "count", samples);
  report.metric("core.rand_par.ns_per_box",
                ns_per(inner_s[1], inner_calls[1]), "ns", samples);
  report.metric("core.contract.busy_s", contract / n, "s", samples);
  report.metric("core.sched.notify_calls", notify_calls / n, "count", samples);
  report.metric("core.sched.depart_calls", 0.0, "count", samples);
  report.metric("core.sched.notify_s", notify_s / n, "s", samples);
  report.metric("core.engine.self_s", engine / n, "s", samples);
  report.metric("core.engine.ns_per_req", ns_per(engine, 2 * requests * n),
                "ns", samples);

  std::uint64_t boxes = 0, hits = 0, misses = 0;
  Time stall = 0;
  for (std::size_t i = 0; i + 1 < outcome.outcomes.size(); ++i) {
    const ParallelRunResult& r = outcome.outcomes[i].result;
    boxes += r.num_boxes;
    hits += r.hits;
    misses += r.misses;
    stall += r.total_stall;
  }
  const double busy = static_cast<double>(hits) +
                      static_cast<double>(instance.spec.miss_cost) *
                          static_cast<double>(misses);
  report.metric("core.engine.boxes", static_cast<double>(boxes), "count", 1);
  report.metric("core.engine.events", events / n, "count", samples);
  report.metric("green.hit_ratio",
                static_cast<double>(hits) / static_cast<double>(hits + misses),
                "ratio", 1);
  report.metric("green.stall_frac",
                static_cast<double>(stall) /
                    (busy + static_cast<double>(stall)),
                "ratio", 1);
  report.metric("trace.busy_s", trace / n, "s", samples);
  report.metric("trace.spans", spans / n, "count", samples);
  report.metric("trace.ns_per_req", ns_per(trace, pages), "ns", samples);
  report.metric("opt.bounds_s", opt / n, "s", samples);
  report.metric("opt.ns_per_req", ns_per(opt, requests * n), "ns", samples);
  report.metric("paging.global_lru_s", lru / n, "s", samples);
  report.metric("paging.ns_per_req", ns_per(lru, requests * n), "ns", samples);
  // The service layer does not run in a batch cell.
  const std::pair<const char*, const char*> absent[] = {
      {"service.submit_calls", "count"}, {"service.submit_ns", "ns"},
      {"service.rejects", "count"},      {"service.step_calls", "count"},
      {"service.step_self_s", "s"},      {"service.active_max", "count"},
      {"service.queue_max", "count"},
      {"service.admit_wait_ticks_p99", "ticks"}};
  for (const auto& [name, unit] : absent) report.metric(name, 0.0, unit, 0);

  report_tracing(report, traced_s, untraced_s, attributed);
}

int run_batch(const Options& options, Report& report) {
  const BatchSpec spec = batch_spec(options.workload);
  const ExperimentConfig config = batch_config(spec, options.seed);
  const int setups = spec.streamed ? kBatchStreamSetups : kBatchMatSetups;

  std::vector<double> setup;
  std::unique_ptr<BatchInstance> instance;
  const auto set_up = [&] {
    double round_s = 0.0;
    for (int i = 0; i < setups; ++i) {
      instance.reset();
      round_s += timed(
          [&] { instance = make_batch_instance(spec, options.seed); });
    }
    setup.push_back(round_s / setups);
  };
  set_up();
  std::printf("instance hetero-mix p=%u k=%u s=%llu n/proc=%zu %s "
              "requests=%llu\n",
              spec.procs, spec.cache_size,
              static_cast<unsigned long long>(spec.miss_cost),
              spec.requests_per_proc,
              spec.streamed ? "streamed" : "materialized",
              static_cast<unsigned long long>(instance->total_requests));

  DigestTracker digest;
  std::optional<InstanceOutcome> first;
  std::vector<double> untraced_s, traced_s;
  std::vector<BatchLayers> layers;
  const auto account = [&](const InstanceOutcome& out) {
    report.fail(check_batch(out, instance->total_requests, spec.procs,
                            spec.cache_size));
    report.count(out.outcomes.size(), out.num_failed());
    digest.add(batch_digest(out), "batch cell", report);
    if (!first) first = out;
  };
  const double start = now_s();
  do {
    if (!untraced_s.empty()) set_up();
    InstanceOutcome out;
    untraced_s.push_back(
        timed([&] { out = run_batch_cell(*instance, config); }));
    account(out);
    if (options.trace) {
      BatchLayers l;
      traced_s.push_back(timed(
          [&] { out = run_batch_cell_traced(*instance, config, l); }));
      account(out);
      layers.push_back(std::move(l));
    }
  } while (now_s() - start < options.seconds && report.correct());

  std::printf("sim_digest %s %016llx\n", workload_name(options.workload),
              static_cast<unsigned long long>(digest.value()));
  if (!report.correct()) return 1;
  if (options.trace) {
    batch_per_layer(report, *instance, *first, layers, traced_s, untraced_s);
    if (!options.spans_path.empty() &&
        !write_spans(options.spans_path, layers, start))
      report.fail({"cannot write spans to " + options.spans_path});
  } else {
    batch_end_to_end(report, *instance, *first, setup, untraced_s);
  }
  report.metric("fail_frac", report.fail_frac(), "ratio", 1);
  return 0;
}

// ---------------------------------------------------------------------------
// Service workload.
// ---------------------------------------------------------------------------

void service_end_to_end(Report& report, const ServiceRun& first,
                        const std::vector<double>& setup,
                        const std::vector<double>& req_per_s,
                        const DurationHistogram& steps, double rss_mb) {
  report_common(report, setup, median(req_per_s), req_per_s.size(), rss_mb);
  report.metric("step_us_p50", steps.quantile(0.5) * 1e6, "us", steps.count());
  report.metric("step_us_p99", steps.quantile(0.99) * 1e6, "us",
                steps.count());

  // Departed tenants are excluded from the latency sample (and counted);
  // the checks have already refused any quarantined or unfinished tenant.
  std::vector<double> latency;
  std::size_t departed = 0;
  for (const TenantOutcome& o : first.outcomes) {
    if (o.terminal == TenantTerminal::kCompleted)
      latency.push_back(static_cast<double>(o.completed - o.arrival));
    else
      ++departed;
  }
  report.metric("latency_p50_ticks", quantile(latency, 0.5), "ticks",
                latency.size());
  report.metric("latency_p99_ticks", quantile(latency, 0.99), "ticks",
                latency.size());
  report.metric("latency_mean_ticks",
                std::accumulate(latency.begin(), latency.end(), 0.0) /
                    static_cast<double>(latency.size()),
                "ticks", latency.size());
  report.metric("departed_tenants", static_cast<double>(departed), "count", 1);
  report.metric("max_faults", static_cast<double>(first.metrics.max_faults),
                "count", first.outcomes.size());
}

void service_per_layer(Report& report, const ServiceSpec& spec,
                       const ServiceRun& first,
                       const std::vector<ServiceLayers>& drives,
                       const std::vector<double>& traced_s,
                       const std::vector<double>& untraced_s) {
  const double n = static_cast<double>(drives.size());
  const std::size_t samples = drives.size();
  const double requests = static_cast<double>(first.requests_served);
  double next_box_s = 0, calls = 0, notify_s = 0, notify_calls = 0;
  double depart_calls = 0;
  double trace = 0, spans = 0, pages = 0, submit_s = 0, submit_calls = 0;
  double step_self = 0, attributed = 0, queue_max = 0;
  for (const ServiceLayers& l : drives) {
    next_box_s += l.sched.next_box_s;
    calls += static_cast<double>(l.sched.next_box_calls);
    notify_s += l.sched.notify_s;
    notify_calls += static_cast<double>(l.sched.notify_calls);
    depart_calls += static_cast<double>(l.sched.depart_calls);
    trace += l.trace.busy_s;
    spans += static_cast<double>(l.trace.spans);
    pages += static_cast<double>(l.trace.pages);
    submit_s += l.submit_s;
    submit_calls += static_cast<double>(l.submit_calls);
    step_self += l.step_s - l.sched.total_s() - l.trace.busy_s;
    attributed += l.step_s + l.submit_s;
    queue_max = std::max(queue_max, static_cast<double>(l.queue_max));
  }
  report.metric("core.det_par.calls", calls / n, "count", samples);
  report.metric("core.det_par.ns_per_box", ns_per(next_box_s, calls), "ns",
                samples);
  report.metric("core.rand_par.calls", 0.0, "count", 0);
  report.metric("core.rand_par.ns_per_box", 0.0, "ns", 0);
  report.metric("core.contract.busy_s", 0.0, "s", 0);
  report.metric("core.sched.notify_calls", notify_calls / n, "count", samples);
  report.metric("core.sched.depart_calls", depart_calls / n, "count", samples);
  report.metric("core.sched.notify_s", notify_s / n, "s", samples);
  // Without in-program tracing the engine cannot be told apart from the
  // service bookkeeping around it, so both carry the step self time.
  report.metric("core.engine.self_s", step_self / n, "s", samples);
  report.metric("core.engine.ns_per_req", ns_per(step_self, requests * n),
                "ns", samples);
  report.metric("core.engine.boxes", calls / n, "count", samples);
  report.metric("core.engine.events",
                static_cast<double>(first.metrics.events_consumed), "count",
                1);

  // Stall and admission wait are taken over completed tenants: a tenant
  // departed from the queue was never admitted.
  double hits = 0, misses = 0, busy = 0, sojourn = 0;
  std::vector<double> wait;
  const auto miss_cost = static_cast<double>(spec.miss_cost);
  for (const TenantOutcome& o : first.outcomes) {
    hits += static_cast<double>(o.hits);
    misses += static_cast<double>(o.misses);
    if (o.terminal != TenantTerminal::kCompleted) continue;
    busy += static_cast<double>(o.hits) +
            miss_cost * static_cast<double>(o.misses);
    sojourn += static_cast<double>(o.completed - o.admitted);
    wait.push_back(static_cast<double>(o.admitted - o.arrival));
  }
  report.metric("green.hit_ratio", hits / (hits + misses), "ratio", 1);
  report.metric("green.stall_frac", (sojourn - busy) / sojourn, "ratio", 1);
  report.metric("trace.busy_s", trace / n, "s", samples);
  report.metric("trace.spans", spans / n, "count", samples);
  report.metric("trace.ns_per_req", ns_per(trace, pages), "ns", samples);
  for (const char* name : {"opt.bounds_s", "paging.global_lru_s"})
    report.metric(name, 0.0, "s", 0);
  for (const char* name : {"opt.ns_per_req", "paging.ns_per_req"})
    report.metric(name, 0.0, "ns", 0);
  report.metric("service.submit_calls", submit_calls / n, "count", samples);
  report.metric("service.submit_ns", ns_per(submit_s, submit_calls), "ns",
                samples);
  report.metric("service.rejects", static_cast<double>(first.rejects),
                "count", 1);
  report.metric("service.step_calls", static_cast<double>(first.steps),
                "count", 1);
  report.metric("service.step_self_s", step_self / n, "s", samples);
  report.metric("service.active_max", static_cast<double>(first.active_max),
                "count", 1);
  report.metric("service.queue_max", queue_max, "count", samples);
  report.metric("service.admit_wait_ticks_p99", quantile(wait, 0.99), "ticks",
                wait.size());

  report_tracing(report, traced_s, untraced_s, attributed);
}

int run_service(const Options& options, Report& report) {
  const ServiceSpec spec;
  std::vector<double> setup;
  std::vector<TenantInput> tenants;
  const auto set_up = [&] {
    double round_s = 0.0;
    for (int i = 0; i < kServiceSetups; ++i) {
      tenants.clear();
      tenants.shrink_to_fit();
      round_s += timed([&] { tenants = make_tenants(spec, options.seed); });
    }
    setup.push_back(round_s / kServiceSetups);
  };
  set_up();
  std::printf("service DET-PAR k=%u s=%llu tenants=%llu n/tenant=%zu "
              "mean_gap=%g queue=%zu depart_every=%llu\n",
              spec.cache_size, static_cast<unsigned long long>(spec.miss_cost),
              static_cast<unsigned long long>(spec.tenants),
              spec.requests_per_tenant, spec.mean_gap, spec.queue_limit,
              static_cast<unsigned long long>(spec.depart_every));

  DigestTracker digest;
  // Only the first drive's outcomes are read below; later drives keep
  // their wall time and rate, and fold their step times into `steps`.
  std::optional<ServiceRun> first;
  std::vector<double> untraced_s, req_per_s, traced_s;
  DurationHistogram steps;
  std::vector<ServiceLayers> layers;
  const auto account = [&](const ServiceRun& run) {
    report.fail(check_service(run, spec, tenants));
    // A tenant that neither completed nor departed (quarantined or never
    // finished) failed; so did one refused for good.
    const ServiceMetrics& m = run.metrics;
    report.count(m.submitted + run.refused,
                 m.submitted - std::min(m.submitted, m.completed + m.departed) +
                     run.refused);
    digest.add(service_digest(run), "service drive", report);
  };
  const double start = now_s();
  do {
    if (first) set_up();
    ServiceRun run = drive_service(spec, tenants, options.seed, nullptr);
    account(run);
    untraced_s.push_back(run.drive_s);
    req_per_s.push_back(static_cast<double>(run.requests_served) /
                        run.drive_s);
    steps.merge(run.step_times);
    if (!first) first = std::move(run);
    if (options.trace) {
      ServiceLayers l;
      const ServiceRun traced = drive_service(spec, tenants, options.seed, &l);
      account(traced);
      traced_s.push_back(traced.drive_s);
      layers.push_back(std::move(l));
    }
  } while (now_s() - start < options.seconds && report.correct());

  std::printf("sim_digest %s %016llx\n", workload_name(options.workload),
              static_cast<unsigned long long>(digest.value()));
  if (!report.correct()) return 1;
  if (options.trace) {
    service_per_layer(report, spec, *first, layers, traced_s, untraced_s);
    if (!options.spans_path.empty() &&
        !write_spans(options.spans_path, layers, start))
      report.fail({"cannot write spans to " + options.spans_path});
  } else {
    service_end_to_end(report, *first, setup, req_per_s, steps,
                       peak_rss_mb());
  }
  report.metric("fail_frac", report.fail_frac(), "ratio", 1);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  check_build();
  std::printf("context workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
              "compiler=\"%s\" build_type=%s sanitize=\"%s\" "
              "engine_threads=0\n",
              workload_name(options.workload),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, sanitizer());
  Report report;
  int code = 1;
  try {
    code = options.workload == WorkloadId::kServicePoisson
               ? run_service(options, report)
               : run_batch(options, report);
  } catch (const std::exception& e) {
    report.fail({std::string("exception: ") + e.what()});
  }
  report.finish();
  return report.correct() ? code : 1;
}
