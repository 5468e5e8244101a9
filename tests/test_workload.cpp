#include <gtest/gtest.h>

#include "trace/trace_spec.hpp"
#include "trace/workload.hpp"
#include "util/error.hpp"

namespace ppg {
namespace {

WorkloadParams small() {
  WorkloadParams p;
  p.num_procs = 8;
  p.cache_size = 32;
  p.requests_per_proc = 1000;
  p.seed = 7;
  return p;
}

class AllWorkloads : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(AllWorkloads, ShapeAndDisjointness) {
  const MultiTrace mt = make_workload(GetParam(), small());
  EXPECT_EQ(mt.num_procs(), 8u);
  EXPECT_TRUE(mt.validate_disjoint());
  for (ProcId i = 0; i < mt.num_procs(); ++i)
    EXPECT_FALSE(mt.trace(i).empty()) << "proc " << i;
}

TEST_P(AllWorkloads, DeterministicGivenSeed) {
  const MultiTrace a = make_workload(GetParam(), small());
  const MultiTrace b = make_workload(GetParam(), small());
  for (ProcId i = 0; i < a.num_procs(); ++i)
    EXPECT_EQ(a.trace(i).requests(), b.trace(i).requests());
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllWorkloads,
                         ::testing::ValuesIn(all_workload_kinds()));

TEST(Workload, SkewedLengthsVary) {
  const MultiTrace mt = make_workload(WorkloadKind::kSkewedLengths, small());
  std::size_t min_len = SIZE_MAX;
  std::size_t max_len = 0;
  for (ProcId i = 0; i < mt.num_procs(); ++i) {
    min_len = std::min(min_len, mt.trace(i).size());
    max_len = std::max(max_len, mt.trace(i).size());
  }
  EXPECT_GE(max_len, 4 * min_len);
}

TEST(Workload, UniformLengthsOtherwise) {
  const MultiTrace mt =
      make_workload(WorkloadKind::kHomogeneousCyclic, small());
  for (ProcId i = 0; i < mt.num_procs(); ++i)
    EXPECT_EQ(mt.trace(i).size(), 1000u);
}

TEST(Workload, OffModelParamsAreBadInput) {
  // The paper's model needs 1 <= p <= k; outside it the builders throw a
  // structured kBadInput (a CLI prints it and exits 1) instead of aborting.
  WorkloadParams too_few_pages = small();
  too_few_pages.num_procs = 128;
  too_few_pages.cache_size = 64;
  WorkloadParams no_procs = small();
  no_procs.num_procs = 0;
  for (const WorkloadParams& params : {too_few_pages, no_procs}) {
    for (const WorkloadKind kind : all_workload_kinds()) {
      try {
        make_workload_source(kind, params);
        FAIL() << "accepted p=" << params.num_procs
               << " k=" << params.cache_size;
      } catch (const PpgException& e) {
        EXPECT_EQ(e.error().code, ErrorCode::kBadInput);
      }
      EXPECT_THROW(make_workload(kind, params), PpgException);
    }
  }
  // The trace-spec registry builds through the same function.
  try {
    make_source_from_trace_spec(
        "workload(kind=zipf,p=8,k=4,n=100,seed=1,s=4)");
    FAIL() << "the spec path accepted p > k";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kBadInput);
  }
  // The boundary p == k stays in the model.
  WorkloadParams tight = small();
  tight.cache_size = tight.num_procs;
  EXPECT_EQ(make_workload_source(WorkloadKind::kZipf, tight).num_procs(),
            tight.num_procs);
}

TEST(Workload, KindNamesAreUnique) {
  std::vector<std::string> names;
  for (WorkloadKind kind : all_workload_kinds())
    names.emplace_back(workload_kind_name(kind));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace ppg
