#include "bench_support/parallel_sweep.hpp"

#include <string>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ppg {

std::size_t jobs_from_args(const ArgParser& args) {
  const std::string value = args.get_string("jobs", "1");
  if (value == "max") return ThreadPool::hardware_jobs();
  std::size_t pos = 0;
  long long parsed = -1;
  try {
    parsed = std::stoll(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || parsed < 0) {
    throw_error(ErrorCode::kBadInput,
                "--jobs expects a non-negative integer or 'max', got '" +
                    value + "'");
  }
  return parsed == 0 ? ThreadPool::hardware_jobs()
                     : static_cast<std::size_t>(parsed);
}

std::size_t engine_threads_from_args(const ArgParser& args) {
  const std::string value = args.get_string("engine-threads", "1");
  if (value == "max") return ThreadPool::hardware_jobs();
  std::size_t pos = 0;
  long long parsed = -1;
  try {
    parsed = std::stoll(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || parsed < 1) {
    throw_error(
        ErrorCode::kBadInput,
        "--engine-threads expects a positive integer or 'max', got '" +
            value + "'");
  }
  return static_cast<std::size_t>(parsed);
}

std::uint64_t cell_seed(std::uint64_t base, std::size_t index) {
  // Two splitmix64 steps decorrelate (base, index) pairs; the golden-ratio
  // increment inside splitmix64 separates neighbouring indices.
  std::uint64_t state = base ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  (void)splitmix64(state);
  return splitmix64(state);
}

void throw_sweep_interrupted(std::size_t completed, std::size_t total) {
  Error error;
  error.code = ErrorCode::kInterrupted;
  error.message = "sweep interrupted: " + std::to_string(completed) + "/" +
                  std::to_string(total) + " cells finished";
  throw PpgException(std::move(error));
}

}  // namespace ppg
