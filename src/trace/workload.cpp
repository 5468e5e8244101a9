#include "trace/workload.hpp"

#include <algorithm>
#include <string>

#include "trace/generators.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/math_util.hpp"

namespace ppg {

const char* workload_kind_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kHomogeneousCyclic: return "homog-cyclic";
    case WorkloadKind::kHeterogeneousMix: return "hetero-mix";
    case WorkloadKind::kCacheHungry: return "cache-hungry";
    case WorkloadKind::kPollutedCycles: return "polluted-cycles";
    case WorkloadKind::kZipf: return "zipf";
    case WorkloadKind::kSkewedLengths: return "skewed-lengths";
  }
  return "unknown";
}

std::optional<WorkloadKind> parse_workload_kind(const std::string& name) {
  for (const WorkloadKind kind : all_workload_kinds())
    if (name == workload_kind_name(kind)) return kind;
  return std::nullopt;
}

std::vector<WorkloadKind> all_workload_kinds() {
  return {WorkloadKind::kHomogeneousCyclic, WorkloadKind::kHeterogeneousMix,
          WorkloadKind::kCacheHungry, WorkloadKind::kPollutedCycles,
          WorkloadKind::kZipf, WorkloadKind::kSkewedLengths};
}

namespace {

/// Working set for the height-sensitive kinds: processor i cycles over
/// (k/p) * 2^(i mod 4) pages (capped at k/2), so the population spans four
/// ladder rungs and the allocation policy — not the workload — decides who
/// thrashes.
std::uint64_t rung_spread_ws(const WorkloadParams& params, ProcId proc) {
  const std::uint64_t k = params.cache_size;
  const std::uint64_t p = std::max<std::uint64_t>(1, params.num_procs);
  const std::uint64_t base = std::max<std::uint64_t>(2, k / p);
  return std::min<std::uint64_t>(std::max<std::uint64_t>(2, k / 2),
                                 base << (proc % 4));
}

std::shared_ptr<const TraceSource> make_one_source(WorkloadKind kind,
                                                   const WorkloadParams& params,
                                                   ProcId proc, const Rng& rng,
                                                   std::size_t length) {
  const std::uint64_t k = params.cache_size;
  const std::uint64_t p = std::max<std::uint64_t>(1, params.num_procs);
  const std::uint64_t fair_share = std::max<std::uint64_t>(2, k / p);
  switch (kind) {
    case WorkloadKind::kHomogeneousCyclic:
      return gen::cyclic_source(2 * fair_share, length);
    case WorkloadKind::kHeterogeneousMix:
      switch (proc % 4) {
        case 0:
          return gen::cyclic_source(rung_spread_ws(params, proc), length);
        case 1: return gen::zipf_source(4 * fair_share, length, 0.9, rng);
        case 2:
          return gen::sawtooth_source(
              std::max<std::uint64_t>(2, fair_share / 2),
              std::min<std::uint64_t>(k, 4 * fair_share),
              std::max<std::size_t>(64, length / 16),
              /*num_bursts=*/16, rng);
        default:
          // Height-insensitive stream, length-normalized by s so its
          // all-miss completion does not trivially pin the makespan.
          return gen::single_use_source(std::max<std::size_t>(
              16, length / std::max<Time>(2, params.miss_cost)));
      }
    case WorkloadKind::kCacheHungry: {
      // ~log p "hungry" processors with geometrically decreasing working
      // sets k/4, k/8, ... (one per ladder rung, summing to < k/2), the
      // rest on modest sets that fit an equal share. OPT can hit-serve
      // everyone concurrently; an equal partition forces every hungry
      // processor to thrash — the height-sensitive regime where the
      // paper's round-robin of tall boxes earns its O(log p).
      const std::uint64_t small = std::max<std::uint64_t>(2, k / (2 * p));
      std::uint64_t w = small;
      if (proc < 30) {
        const std::uint64_t hungry = k >> (2 + proc);
        if (hungry > 2 * small) w = hungry;
      }
      return gen::cyclic_source(w, length);
    }
    case WorkloadKind::kPollutedCycles: {
      // Rung-spread working sets with pollution levels that also vary, so
      // the "wanted" height both differs across processors and shifts the
      // hit/miss tradeoff the way the paper's prefixes do.
      const std::uint64_t interval =
          std::max<std::uint64_t>(2, p >> (proc % 3));
      return gen::polluted_cycle_source(rung_spread_ws(params, proc), length,
                                        interval);
    }
    case WorkloadKind::kZipf:
      return gen::zipf_source(std::max<std::uint64_t>(4, 2 * k), length, 1.1,
                              rng);
    case WorkloadKind::kSkewedLengths:
      // Lengths handled by caller; content is a mix.
      return make_one_source(WorkloadKind::kHeterogeneousMix, params, proc,
                             rng, length);
  }
  PPG_CHECK_MSG(false, "unreachable workload kind");
  return nullptr;
}

}  // namespace

MultiTraceSource make_workload_source(WorkloadKind kind,
                                      const WorkloadParams& params) {
  // Outside the model (the paper assumes k >= p): a structured input
  // error, so a CLI reports it instead of aborting.
  if (params.num_procs < 1 || params.cache_size < params.num_procs) {
    throw_error(ErrorCode::kBadInput,
                "workload requires 1 <= p <= k (p=" +
                    std::to_string(params.num_procs) +
                    ", k=" + std::to_string(params.cache_size) + ")");
  }
  Rng root(params.seed);
  MultiTraceSource sources;
  for (ProcId proc = 0; proc < params.num_procs; ++proc) {
    // One fork per processor, exactly as the materialized builder always
    // did; the per-processor generator takes the forked state by value.
    const Rng rng = root.fork();
    std::size_t length = params.requests_per_proc;
    if (kind == WorkloadKind::kSkewedLengths) {
      // Geometric spread: processor i gets length / 2^(i mod 4), so
      // completion times differ by up to 8x — stresses mean completion.
      length = std::max<std::size_t>(16, length >> (proc % 4));
    }
    sources.add(rebase_source(
        make_one_source(kind, params, proc, rng, length), proc));
  }
  return sources;
}

MultiTrace make_workload(WorkloadKind kind, const WorkloadParams& params) {
  MultiTrace mt = make_workload_source(kind, params).materialize();
  PPG_DCHECK(mt.validate_disjoint());
  return mt;
}

}  // namespace ppg
