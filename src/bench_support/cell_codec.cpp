#include "bench_support/cell_codec.hpp"

#include "bench_support/experiment.hpp"

namespace ppg {

void encode_f64_vec(CellWriter& w, const std::vector<double>& v) {
  w.u64(v.size());
  for (const double x : v) w.f64(x);
}

std::vector<double> decode_f64_vec(CellReader& r) {
  const std::size_t n = r.vec_count(r.u64(), 8);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(r.f64());
  return v;
}

void encode_time_vec(CellWriter& w, const std::vector<Time>& v) {
  w.u64(v.size());
  for (const Time t : v) w.u64(t);
}

std::vector<Time> decode_time_vec(CellReader& r) {
  const std::size_t n = r.vec_count(r.u64(), 8);
  std::vector<Time> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(r.u64());
  return v;
}

void encode_summary(CellWriter& w, const Summary& s) {
  w.u64(s.count());
  w.f64(s.mean());
  w.f64(s.m2());
  w.f64(s.min());
  w.f64(s.max());
  w.f64(s.sum());
}

Summary decode_summary(CellReader& r) {
  const std::uint64_t count = r.u64();
  const double mean = r.f64();
  const double m2 = r.f64();
  const double min = r.f64();
  const double max = r.f64();
  const double sum = r.f64();
  return Summary::from_state(static_cast<std::size_t>(count), mean, m2, min,
                             max, sum);
}

void encode_error(CellWriter& w, const Error& e) {
  w.u8(static_cast<std::uint8_t>(e.code));
  w.str(e.message);
  w.u32(e.proc);
  w.u64(e.time);
  w.u64(e.byte_offset);
  w.str(e.path);
}

Error decode_error(CellReader& r) {
  Error e;
  e.code = static_cast<ErrorCode>(r.u8());
  e.message = r.str();
  e.proc = r.u32();
  e.time = r.u64();
  e.byte_offset = r.u64();
  e.path = r.str();
  return e;
}

void encode_run_status(CellWriter& w, const RunStatus& s) {
  encode_error(w, s.error);
  w.str(s.replay_dump_path);
}

RunStatus decode_run_status(CellReader& r) {
  RunStatus s;
  s.error = decode_error(r);
  s.replay_dump_path = r.str();
  return s;
}

void encode_run_result(CellWriter& w, const ParallelRunResult& res) {
  w.u64(res.makespan);
  encode_time_vec(w, res.completion);
  w.f64(res.mean_completion);
  w.u64(res.hits);
  w.u64(res.misses);
  w.u64(res.num_boxes);
  w.u64(res.total_stall);
  w.u64(res.total_impact);
  w.u32(res.peak_concurrent_height);
  w.f64(res.effective_augmentation);
}

ParallelRunResult decode_run_result(CellReader& r) {
  ParallelRunResult res;
  res.makespan = r.u64();
  res.completion = decode_time_vec(r);
  res.mean_completion = r.f64();
  res.hits = r.u64();
  res.misses = r.u64();
  res.num_boxes = r.u64();
  res.total_stall = r.u64();
  res.total_impact = r.u64();
  res.peak_concurrent_height = r.u32();
  res.effective_augmentation = r.f64();
  return res;
}

// OptBounds::busy_min is not encoded: it is O(p), and the one bench that
// reads it (mean_completion) derives its stretch column inside the cell,
// before encoding. A decoded OptBounds has it empty.
void encode_opt_bounds(CellWriter& w, const OptBounds& b) {
  w.u64(b.lb_max_length);
  w.u64(b.lb_max_single);
  w.u64(b.lb_impact);
}

OptBounds decode_opt_bounds(CellReader& r) {
  OptBounds b;
  b.lb_max_length = r.u64();
  b.lb_max_single = r.u64();
  b.lb_impact = r.u64();
  return b;
}

void encode_scheduler_outcome(CellWriter& w, const SchedulerOutcome& o) {
  w.str(o.name);
  encode_run_status(w, o.status);
  encode_run_result(w, o.result);
  w.f64(o.makespan_ratio);
  w.f64(o.mean_ct_ratio);
}

SchedulerOutcome decode_scheduler_outcome(CellReader& r) {
  SchedulerOutcome o;
  o.name = r.str();
  o.status = decode_run_status(r);
  o.result = decode_run_result(r);
  o.makespan_ratio = r.f64();
  o.mean_ct_ratio = r.f64();
  return o;
}

void encode_instance_outcome(CellWriter& w, const InstanceOutcome& o) {
  encode_opt_bounds(w, o.bounds);
  w.u64(o.outcomes.size());
  for (const SchedulerOutcome& s : o.outcomes) encode_scheduler_outcome(w, s);
}

InstanceOutcome decode_instance_outcome(CellReader& r) {
  InstanceOutcome o;
  o.bounds = decode_opt_bounds(r);
  // A SchedulerOutcome encodes to well over 100 bytes; 1 is a safe floor
  // for the impossible-length check.
  const std::size_t n = r.vec_count(r.u64(), 1);
  o.outcomes.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    o.outcomes.push_back(decode_scheduler_outcome(r));
  return o;
}

}  // namespace ppg
