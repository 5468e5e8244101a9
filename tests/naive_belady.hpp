// Naive reference model of Belady's offline optimum, shared by the tests
// that check BeladyPolicy and the OPT bounds pass against it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace/trace.hpp"
#include "util/types.hpp"

namespace ppg::test {

// Reference Belady: an explicit resident list, and on a fault the resident
// page whose next use (scanned forward from the current request) is
// farthest, never-used-again counting as infinitely far. O(n * k) per
// fault; used only to check BeladyPolicy and the OPT bounds.
class NaiveBelady {
 public:
  explicit NaiveBelady(const Trace& trace) : trace_(trace) {}

  void clear() { resident_.clear(); }

  bool resident(PageId page) const {
    return std::find(resident_.begin(), resident_.end(), page) !=
           resident_.end();
  }

  /// Serves request `i` from a compartment of `capacity` pages; returns
  /// true on a hit.
  bool access(std::size_t i, Height capacity) {
    const PageId page = trace_[i];
    if (resident(page)) return true;
    if (resident_.size() == capacity) {
      std::size_t victim = 0;
      std::size_t farthest = 0;
      for (std::size_t r = 0; r < resident_.size(); ++r) {
        std::size_t next = i + 1;
        while (next < trace_.size() && trace_[next] != resident_[r]) ++next;
        if (next >= farthest) {
          farthest = next;
          victim = r;
        }
      }
      resident_.erase(resident_.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    }
    resident_.push_back(page);
    return false;
  }

 private:
  const Trace& trace_;
  std::vector<PageId> resident_;
};

inline std::uint64_t naive_belady_misses(const Trace& trace,
                                         Height capacity) {
  NaiveBelady naive(trace);
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < trace.size(); ++i)
    if (!naive.access(i, capacity)) ++misses;
  return misses;
}

}  // namespace ppg::test
