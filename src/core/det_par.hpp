// DET-PAR (paper Section 3.3): the deterministic well-rounded
// O(log p)-competitive parallel-paging scheduler.
#pragma once

#include <cstddef>
#include <memory>

#include "core/scheduler.hpp"
#include "util/types.hpp"

namespace ppg {

struct DetParConfig {
  /// Phase transition threshold: a new phase starts when the active count
  /// drops to (phase-start count) * 1/2 (paper value). Exposed for tests.
  double phase_halving = 0.5;
};

std::unique_ptr<BoxScheduler> make_det_par(const DetParConfig& config = {});

/// One DET-PAR strip's slot rotation over a phase list of `r0` processors:
/// slot-cycle c serves the `slots` consecutive list positions starting at
/// base(c) = (c * slots + offset) mod r0, wrapping around the list. Exposed
/// so tests can check the closed form against a brute-force cycle scan.
struct StripRotation {
  std::size_t r0 = 1;
  std::size_t slots = 1;   ///< C_z, concurrent slots per cycle.
  std::size_t offset = 0;  ///< Stagger between strips.

  std::size_t base(Time cycle) const {
    return static_cast<std::size_t>(
        (static_cast<Time>(slots) * cycle + offset) % static_cast<Time>(r0));
  }

  /// Does cycle `cycle` give list position `idx` a slot?
  bool serves(Time cycle, std::size_t idx) const {
    return (idx + r0 - base(cycle)) % r0 < slots;
  }

  /// The first cycle >= `from` that serves `idx`, in O(1). The base
  /// advances by `slots` per cycle, so `idx` sits d - j*slots positions past
  /// base(from + j), with d = (idx - base(from)) mod r0; the first j that
  /// puts it inside the window is d / slots, and d < r0 means the window
  /// never wraps past `idx` on the way.
  Time next_serving(Time from, std::size_t idx) const {
    const std::size_t d = (idx + r0 - base(from)) % r0;
    return from + static_cast<Time>(d / slots);
  }
};

}  // namespace ppg
