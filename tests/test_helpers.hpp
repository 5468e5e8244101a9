// Shared fixtures and fakes for the test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "trace/trace.hpp"

namespace ppg::test {

/// An EngineView with a directly settable active set, for driving
/// schedulers without an engine.
class FakeView final : public EngineView {
 public:
  explicit FakeView(ProcId p) : active_(p, true), count_(p) {}

  ProcId num_procs() const override {
    return static_cast<ProcId>(active_.size());
  }
  ProcId active_count() const override { return count_; }
  bool is_active(ProcId proc) const override { return active_[proc]; }

  void finish(ProcId proc) {
    if (active_[proc]) {
      active_[proc] = false;
      --count_;
    }
  }

 private:
  std::vector<bool> active_;
  ProcId count_;
};

/// FNV-1a over (proc, height, start, end) of every box a scheduler
/// grants, in grant order: a golden value pins a schedule box for box.
class BoxSequenceHash {
 public:
  void add(ProcId proc, const BoxAssignment& box) {
    mix(proc);
    mix(box.height);
    mix(box.start);
    mix(box.end);
    ++boxes_;
  }
  std::uint64_t value() const { return hash_; }
  std::uint64_t boxes() const { return boxes_; }

 private:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211u;
    }
  }
  std::uint64_t hash_ = 14695981039346656037u;
  std::uint64_t boxes_ = 0;
};

/// A scratch path under testing::TempDir() that no concurrently running
/// test can share: gtest_discover_tests runs every TEST in its own process,
/// so `ctest -j` runs them side by side, and a fixed file name lets one
/// test truncate another's journal. The path is keyed on the running
/// test's full name and the pid; `name` tells one test's files apart.
inline std::string unique_temp_path(const std::string& name) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  for (char& ch : test)
    if (ch == '/') ch = '_';  // parameterized suite and test names
  const std::string dir = testing::TempDir();
  return dir + "ppg_" + test + "_" + std::to_string(::getpid()) + "_" + name;
}

/// Builds a Trace from an initializer-list of small ints (test shorthand).
inline Trace make_trace(std::initializer_list<int> pages) {
  std::vector<PageId> reqs;
  for (int p : pages) reqs.push_back(static_cast<PageId>(p));
  return Trace(std::move(reqs));
}

}  // namespace ppg::test
