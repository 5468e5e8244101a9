// Tests for the benchmark's own code, on workloads small enough to run in a
// second: the timing decorators are transparent, digests follow the seed,
// and every output check fires on a deliberately broken result.
//
// Run with `python3 perfbench/run.py --self-test` (ctest in the benchmark's
// build directory). Exits nonzero if any expectation fails.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;
using namespace ppg;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// True when some message in `failures` contains `needle`.
bool fired(const std::vector<std::string>& failures, const std::string& needle) {
  for (const std::string& f : failures)
    if (f.find(needle) != std::string::npos) return true;
  return false;
}

Error error(ErrorCode code, const char* message) {
  Error e;
  e.code = code;
  e.message = message;
  return e;
}

BatchSpec small_batch(bool streamed) {
  BatchSpec spec;
  spec.procs = 16;
  spec.cache_size = 128;
  spec.miss_cost = 8;
  spec.requests_per_proc = 2000;
  spec.streamed = streamed;
  return spec;
}

ServiceSpec small_service() {
  ServiceSpec spec;
  spec.cache_size = 128;
  spec.tenants = 300;
  spec.requests_per_tenant = 64;
  spec.queue_limit = 16;
  spec.depart_every = 10;
  return spec;
}

std::uint64_t batch_digest_for(const BatchSpec& spec, std::uint64_t seed,
                               bool traced) {
  const auto instance = make_batch_instance(spec, seed);
  const ExperimentConfig config = batch_config(spec, seed);
  if (!traced) return batch_digest(run_batch_cell(*instance, config));
  BatchLayers layers;
  return batch_digest(run_batch_cell_traced(*instance, config, layers));
}

std::uint64_t service_digest_for(const ServiceSpec& spec, std::uint64_t seed,
                                 bool traced) {
  ServiceLayers layers;
  return service_digest(drive_service(spec, make_tenants(spec, seed), seed,
                                      traced ? &layers : nullptr));
}

void test_decorators_transparent() {
  for (const bool streamed : {false, true}) {
    const BatchSpec spec = small_batch(streamed);
    const std::string kind = streamed ? "streamed" : "materialized";
    expect(batch_digest_for(spec, 7, false) == batch_digest_for(spec, 7, true),
           "traced " + kind + " cell has the untraced digest");
  }
  expect(service_digest_for(small_service(), 7, false) ==
             service_digest_for(small_service(), 7, true),
         "traced service drive has the untraced digest");

  // The decorators did see the work they claim to time.
  const BatchSpec spec = small_batch(true);
  const auto instance = make_batch_instance(spec, 7);
  BatchLayers layers;
  run_batch_cell_traced(*instance, batch_config(spec, 7), layers);
  expect(layers.inner[0].next_box_calls > 0 &&
             layers.inner[0].next_box_calls == layers.outer[0].next_box_calls,
         "both DET-PAR decorators count the same next_box calls");
  expect(layers.trace_run[0].pages == instance->total_requests,
         "timed sources count every request of an engine run");
  ServiceLayers service;
  const ServiceSpec sspec = small_service();
  const ServiceRun run =
      drive_service(sspec, make_tenants(sspec, 7), 7, &service);
  expect(service.submit_calls == run.metrics.submitted + run.rejects,
         "service submit calls = accepted + refused attempts");
  expect(service.sched.depart_calls > 0,
         "departures reach running tenants (scheduler notify_departed)");
}

void test_digest_follows_seed() {
  for (const bool streamed : {false, true}) {
    const BatchSpec spec = small_batch(streamed);
    const std::string kind = streamed ? "streamed" : "materialized";
    const std::uint64_t a = batch_digest_for(spec, 11, false);
    expect(a == batch_digest_for(spec, 11, false),
           kind + " cell: same seed, same digest");
    expect(a != batch_digest_for(spec, 12, false),
           kind + " cell: other seed, other digest");
  }
  const std::uint64_t a = service_digest_for(small_service(), 11, false);
  expect(a == service_digest_for(small_service(), 11, false),
         "service: same seed, same digest");
  expect(a != service_digest_for(small_service(), 12, false),
         "service: other seed, other digest");
}

void test_batch_checks_fire() {
  const BatchSpec spec = small_batch(true);
  const auto instance = make_batch_instance(spec, 3);
  const InstanceOutcome good =
      run_batch_cell(*instance, batch_config(spec, 3));
  const std::uint64_t n = instance->total_requests;
  expect(check_batch(good, n, spec.procs, spec.cache_size).empty(),
         "batch checks pass on a good cell");

  InstanceOutcome bad = good;
  bad.bounds.lb_max_length = good.outcomes[0].result.makespan + 1;
  expect(fired(check_batch(bad, n, spec.procs, spec.cache_size),
               "below the certified lower bound"),
         "lower bound above the makespan fires");

  expect(fired(check_batch(good, n + 1, spec.procs, spec.cache_size),
               "hits + misses"),
         "hits + misses != requests fires");

  bad = good;
  bad.outcomes[1].status =
      RunStatus::failure(error(ErrorCode::kContractViolation, "broken"));
  expect(fired(check_batch(bad, n, spec.procs, spec.cache_size), "run failed"),
         "a failed scheduler run fires");

  bad = good;
  bad.outcomes.pop_back();
  expect(fired(check_batch(bad, n, spec.procs, spec.cache_size),
               "policy outcomes"),
         "a missing policy outcome fires");

  expect(fired(check_batch(good, n, spec.cache_size, spec.cache_size),
               "out of model"),
         "p >= k fires");
}

void test_service_checks_fire() {
  const ServiceSpec spec = small_service();
  const std::vector<TenantInput> tenants = make_tenants(spec, 3);
  const ServiceRun good = drive_service(spec, tenants, 3, nullptr);
  expect(check_service(good, spec, tenants).empty(),
         "service checks pass on a good drive");
  expect(good.metrics.departed > 0, "the small drive departs tenants");

  ServiceRun bad = good;
  bad.metrics.completed -= 1;
  expect(fired(check_service(bad, spec, tenants), "completed + departed + quarantined"),
         "tenant counts that do not reconcile fire");

  bad = good;
  bad.outcomes.back().terminal = TenantTerminal::kQuarantined;
  bad.outcomes.back().error = error(ErrorCode::kCorruptTrace, "bad trace");
  expect(fired(check_service(bad, spec, tenants), "did not end ok"),
         "a quarantined tenant fires");

  bad = good;
  bad.outcomes.pop_back();
  expect(fired(check_service(bad, spec, tenants), "tenant outcomes"),
         "a missing tenant outcome fires");

  bad = good;
  bad.active_max = spec.cache_size;
  expect(fired(check_service(bad, spec, tenants), "out of model"),
         "active tenants >= k fires");

  bad = good;
  bad.outcomes.back().tenant = static_cast<TenantId>(tenants.size());
  expect(fired(check_service(bad, spec, tenants), "never submitted"),
         "an outcome for an unknown tenant fires");

  bad = good;
  bad.refused = 1;
  expect(fired(check_service(bad, spec, tenants), "never admitted"),
         "a refused tenant fires");

  bad = good;
  for (TenantOutcome& o : bad.outcomes)
    if (o.terminal == TenantTerminal::kCompleted) {
      o.misses += 1;
      break;
    }
  expect(fired(check_service(bad, spec, tenants), "hits + misses"),
         "a completed tenant with a wrong request count fires");
}

}  // namespace

int main() {
  test_decorators_transparent();
  test_digest_follows_seed();
  test_batch_checks_fire();
  test_service_checks_fire();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
