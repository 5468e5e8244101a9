// Pluggable eviction policies for the sequential cache simulator.
//
// A policy is the single source of truth for residency: insert() is called
// when a page becomes resident, touch() when a resident page is
// re-accessed, evict() must return some currently resident page and forget
// it, and contains() answers residency queries. (Simulators used to mirror
// residency in their own hash set; that double bookkeeping is gone — see
// CacheSim.) prepare()/advance() give offline policies (Belady) access to
// the future. touch_if_resident() fuses the residency probe with the
// touch so the hot path pays one lookup instead of two.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ppg {

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  /// Called once before simulation with the full trace. Online policies
  /// ignore it; Belady precomputes next-use times and keeps a pointer to
  /// the trace, which must outlive the simulation.
  virtual void prepare(const Trace& trace) { (void)trace; }

  /// Called before each request with its index in the trace.
  virtual void advance(std::size_t request_index) { (void)request_index; }

  virtual void insert(PageId page) = 0;
  virtual void touch(PageId page) = 0;
  virtual PageId evict() = 0;
  virtual void clear() = 0;

  /// True iff `page` is currently resident (inserted and not yet evicted).
  virtual bool contains(PageId page) const = 0;

  /// Fused hot path: touch `page` and return true if it is resident,
  /// otherwise return false without modifying any state. Policies with a
  /// single-lookup structure override this; the default is the safe
  /// two-lookup composition.
  virtual bool touch_if_resident(PageId page) {
    if (!contains(page)) return false;
    touch(page);
    return true;
  }

  virtual const char* name() const = 0;
};

enum class PolicyKind {
  kLru,
  kFifo,
  kClock,
  kRandom,
  kLfu,
  kMru,     ///< Evict most-recently-used — optimal for cyclic scans.
  kSlru,    ///< Segmented LRU: probationary + protected segments.
  kArc,      ///< Adaptive Replacement Cache (ghost-list adaptive).
  kMarking,  ///< Randomized marking (O(log k)-competitive; seeded).
  kBelady,   ///< Offline optimum (farthest next use).
};

/// All online policies plus Belady, for sweep loops.
std::vector<PolicyKind> all_policy_kinds();

const char* policy_kind_name(PolicyKind kind);

/// Factory. `capacity` sizes internal structures; `seed` feeds kRandom
/// and kMarking.
std::unique_ptr<EvictionPolicy> make_policy(PolicyKind kind, Height capacity,
                                            std::uint64_t seed = 1);

/// Direct constructors (policies_extra.cpp).
std::unique_ptr<EvictionPolicy> make_mru_policy(Height capacity);
std::unique_ptr<EvictionPolicy> make_slru_policy(Height capacity);
std::unique_ptr<EvictionPolicy> make_arc_policy(Height capacity);
std::unique_ptr<EvictionPolicy> make_marking_policy(Height capacity,
                                                    std::uint64_t seed);

}  // namespace ppg
