#include "core/det_par.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "green/box.hpp"
#include "util/assert.hpp"
#include "util/math_util.hpp"

namespace ppg {

namespace {

// Lemma 6 construction. Within a phase that starts with r0 active
// processors, let b = smallest ladder height >= 2k/r0 (so b equals k/p_Q at
// the phase's end when half have finished) and let the rungs be
// z = b, 2b, 4b, ..., up to k. For each rung z the scheduler maintains a
// "z-strip": C_z = max(1, k / (z * L)) concurrent height-z slots (L = number
// of rungs), each slot lasting s*z ticks; slot q of slot-cycle c serves the
// processor at position (c*C_z + q + strip offset) mod r0 of the
// phase-start active list. That gives every processor a height-z box every
// ~ s*z^2*L/b ticks — the well-rounded property — while the strips use
// O(k) memory in total. Processors hold base boxes of height b whenever no
// strip box is assigned to them.
//
// The schedule is a pure function of (phase start, phase-start active
// list), so the demand-driven engine can query it lazily: DET-PAR is fully
// deterministic and oblivious.
class DetPar final : public BoxScheduler {
 public:
  explicit DetPar(const DetParConfig& config) : config_(config) {}

  void start(const SchedulerContext& ctx, const EngineView& view) override {
    ctx_ = ctx;
    start_phase(0, view);
  }

  void notify_arrived(ProcId proc, Time now, const EngineView& view) override {
    (void)proc;
    (void)now;
    (void)view;
    // An arrival invalidates the phase-start active list (the newcomer has
    // no strip position); re-phase lazily at the next box request so
    // same-batch arrivals fold into one new phase.
    rephase_ = true;
  }

  BoxAssignment next_box(ProcId proc, Time now,
                         const EngineView& view) override {
    if (rephase_ ||
        static_cast<double>(view.active_count()) <=
            config_.phase_halving * static_cast<double>(phase_r0_)) {
      start_phase(now, view);
    }

    // A processor always appears in the phase-start list: phases start
    // before any box is issued, processors never re-activate, and an
    // online arrival forces a re-phase (rephase_) before its first box.
    PPG_CHECK_MSG(proc < index_.size() && index_[proc].phase == phase_,
                  "processor missing from phase list");
    const std::size_t idx = index_[proc].pos;

    // Per strip, in O(1): (a) does the cycle containing `now` assign a box
    // window to this processor — take the tallest — and (b) the earliest
    // upcoming window. Strips number O(log p), and so does the call.
    Height current_height = 0;
    Time current_end = 0;
    Time next_start = kTimeInfinity;
    for (const Strip& strip : strips_) {
      const Time cycle_len = ctx_.miss_cost * static_cast<Time>(strip.height);
      const Time c_now = (now - phase_start_) / cycle_len;
      if (strip.rotation.serves(c_now, idx) &&
          strip.height > current_height) {
        current_height = strip.height;
        current_end = phase_start_ + (c_now + 1) * cycle_len;
      }
      const Time c_next = strip.rotation.next_serving(c_now + 1, idx);
      next_start = std::min(next_start, phase_start_ + c_next * cycle_len);
    }

    if (current_height > base_height_)
      return BoxAssignment{current_height, now, current_end};

    // Base box of height b until the next strip window (capped at s*b so
    // phase transitions are re-examined regularly).
    const Time base_len = ctx_.miss_cost * static_cast<Time>(base_height_);
    Time end = now + base_len;
    if (next_start > now && next_start < end) end = next_start;
    return BoxAssignment{base_height_, now, end};
  }

  const char* name() const override { return "DET-PAR"; }

 private:
  struct Strip {
    Height height;           // z
    StripRotation rotation;  // C_z slots, staggered by the strip index
  };

  /// A processor's position in the current phase-start list; valid only
  /// while `phase` equals the current phase_.
  struct PhaseSlot {
    std::uint64_t phase = 0;
    std::size_t pos = 0;
  };

  void start_phase(Time t0, const EngineView& view) {
    rephase_ = false;
    phase_start_ = t0;
    ++phase_;
    if (index_.size() < view.num_procs()) index_.resize(view.num_procs());
    std::size_t num_active = 0;
    view.for_each_active(
        [&](ProcId p) { index_[p] = PhaseSlot{phase_, num_active++}; });
    phase_r0_ = std::max<std::size_t>(1, num_active);

    const Height h_max =
        std::max<Height>(1, static_cast<Height>(pow2_floor(ctx_.cache_size)));
    base_height_ = static_cast<Height>(std::min<std::uint64_t>(
        h_max, pow2_ceil(ceil_div(2 * ctx_.cache_size, phase_r0_))));
    const HeightLadder ladder{base_height_, h_max};
    PPG_CHECK(ladder.valid());
    const std::uint32_t rungs = ladder.num_heights();

    strips_.clear();
    strips_.reserve(rungs);
    for (std::uint32_t m = 0; m < rungs; ++m) {
      const Height z = ladder.height(m);
      const auto slots = std::max<std::size_t>(
          1, ctx_.cache_size / (static_cast<std::size_t>(z) * rungs));
      strips_.push_back(Strip{z, StripRotation{phase_r0_, slots, m}});
    }
  }

  DetParConfig config_;
  SchedulerContext ctx_;

  Time phase_start_ = 0;
  bool rephase_ = false;
  std::size_t phase_r0_ = 1;
  Height base_height_ = 1;
  std::vector<Strip> strips_;
  std::uint64_t phase_ = 0;
  std::vector<PhaseSlot> index_;  // by ProcId, grown to num_procs()
};

}  // namespace

std::unique_ptr<BoxScheduler> make_det_par(const DetParConfig& config) {
  return std::make_unique<DetPar>(config);
}

}  // namespace ppg
