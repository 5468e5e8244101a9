// Parallel sweep executor for the benchmark harness.
//
// Every experiment in the index is a sweep over independent cells —
// (instance x scheduler x seed) — with no shared mutable state between
// cells. This layer enumerates cells up front, runs them concurrently on a
// fixed-size thread pool (util/thread_pool.hpp), and reassembles outcomes
// in deterministic enumeration order.
//
// Determinism contract (tested by tests/test_parallel_sweep.cpp, raced
// under TSan by scripts/tier1.sh):
//  - cell i's work may depend only on its enumeration index and on
//    read-only inputs — never on execution order or thread identity;
//  - per-cell randomness derives from cell_seed(base, i);
//  - results are written to slot i and emitted sequentially afterwards.
// Under this contract `--jobs N` output is byte-identical to `--jobs 1`
// (which runs the plain serial loop) for every N.
//
// SIGINT/SIGTERM cooperate (util/interrupt): workers finish in-flight
// cells and stop claiming new ones, and the sweep raises kInterrupted so
// the bench exits 130.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/arg_parse.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace ppg {

/// Resolves the shared `--jobs` flag: a positive thread count, or
/// "max" / "0" for one thread per hardware core. Default 1.
std::size_t jobs_from_args(const ArgParser& args);

/// Resolves the `--engine-threads` flag of single large runs (intra-run
/// parallelism, EngineConfig::engine_threads): a positive thread count, or
/// "max" for one thread per hardware core. Default 1 (serial). The engine
/// is byte-identical at every thread count.
std::size_t engine_threads_from_args(const ArgParser& args);

/// RNG seed for sweep cell `index`: a splitmix64 mix of the sweep base
/// seed and the enumeration index, so it is independent of execution
/// order and uncorrelated across neighbouring cells.
std::uint64_t cell_seed(std::uint64_t base, std::size_t index);

/// Raises PpgException(kInterrupted) describing a sweep stopped after
/// `completed` of `total` cells.
[[noreturn]] void throw_sweep_interrupted(std::size_t completed,
                                          std::size_t total);

/// Interruptible sweep: runs fn(i) for every cell on `jobs` threads and
/// returns the results in enumeration order. If an interrupt stops the
/// sweep early, kInterrupted is thrown once the in-flight cells drain.
template <typename Fn>
auto sweep_cells(std::size_t jobs, std::size_t num_cells, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<R> out PPG_SHARDED_BY(cell index i)(num_cells);
  // Per-slot completion marks (plain bytes: each slot is touched by
  // exactly one worker, and wait_all() orders them before the scan).
  std::vector<unsigned char> filled PPG_SHARDED_BY(cell index i)(num_cells, 0);
  parallel_for_index(jobs, num_cells, [&](std::size_t i) {
    out[i] = fn(i);
    filled[i] = 1;
  });
  std::size_t completed = 0;
  for (const unsigned char f : filled) completed += f;
  if (completed != num_cells) throw_sweep_interrupted(completed, num_cells);
  return out;
}

}  // namespace ppg
