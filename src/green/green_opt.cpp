#include "green/green_opt.hpp"

#include <algorithm>
#include <limits>

#include "green/box_runner.hpp"
#include "util/assert.hpp"
#include "util/lru_set.hpp"

namespace ppg {

namespace {

constexpr Impact kInf = std::numeric_limits<Impact>::max();

/// Advances through `trace` from `pos` inside one canonical box of height
/// `h`: returns the new position and the busy ticks consumed.
struct BoxAdvance {
  std::size_t next_pos;
  Time busy;
};

BoxAdvance advance_box(const Trace& trace, std::size_t pos, Height h,
                       Time miss_cost, LruSet& cache) {
  cache.clear();
  Time remaining = static_cast<Time>(h) * miss_cost;
  Time busy = 0;
  // One probe per request: try_touch classifies and serves a hit, and a
  // miss that fits is committed with insert_absent. A hit that no longer
  // fits has touched the cache, which the next call clears.
  while (pos < trace.size()) {
    const PageId page = trace[pos];
    const bool hit = cache.try_touch(page);
    const Time cost = hit ? 1 : miss_cost;
    if (cost > remaining) break;
    if (!hit) cache.insert_absent(page);
    remaining -= cost;
    busy += cost;
    ++pos;
  }
  return BoxAdvance{pos, busy};
}

struct DpTables {
  std::vector<Impact> dist;
  std::vector<std::uint32_t> best_rung;   // edge used to *leave* position
  std::vector<std::size_t> best_prev;     // predecessor position
  std::vector<Time> final_busy;           // busy time of the final box, if
                                          // this position reaches the end
};

DpTables run_dp(const Trace& trace, const HeightLadder& ladder,
                Time miss_cost, bool want_profile) {
  PPG_CHECK(ladder.valid());
  PPG_CHECK(miss_cost >= 1);
  const std::size_t n = trace.size();
  const std::uint32_t rungs = ladder.num_heights();

  DpTables t;
  t.dist.assign(n + 1, kInf);
  if (want_profile) {
    t.best_rung.assign(n + 1, 0);
    t.best_prev.assign(n + 1, 0);
    t.final_busy.assign(n + 1, 0);
  }
  t.dist[0] = 0;

  // One reusable cache per rung avoids re-allocating hash tables in the
  // innermost loop.
  std::vector<LruSet> caches;
  caches.reserve(rungs);
  for (std::uint32_t r = 0; r < rungs; ++r)
    caches.emplace_back(ladder.height(r));

  for (std::size_t pos = 0; pos < n; ++pos) {
    if (t.dist[pos] == kInf) continue;
    for (std::uint32_t r = 0; r < rungs; ++r) {
      const Height h = ladder.height(r);
      const BoxAdvance adv = advance_box(trace, pos, h, miss_cost, caches[r]);
      PPG_CHECK_MSG(adv.next_pos > pos, "box made no progress");
      // Final box is charged for its busy ticks only; interior boxes for
      // their full canonical duration.
      const Time charged =
          adv.next_pos == n ? adv.busy : static_cast<Time>(h) * miss_cost;
      const Impact cost = static_cast<Impact>(h) * charged;
      const Impact cand = t.dist[pos] + cost;
      if (cand < t.dist[adv.next_pos]) {
        t.dist[adv.next_pos] = cand;
        if (want_profile) {
          t.best_rung[adv.next_pos] = r;
          t.best_prev[adv.next_pos] = pos;
          t.final_busy[adv.next_pos] = adv.busy;
        }
      }
    }
  }
  PPG_CHECK_MSG(n == 0 || t.dist[n] != kInf, "DP failed to reach end");
  return t;
}

}  // namespace

GreenOptResult green_opt(const Trace& trace, const HeightLadder& ladder,
                         Time miss_cost) {
  GreenOptResult result;
  if (trace.empty()) return result;
  const DpTables t = run_dp(trace, ladder, miss_cost, /*want_profile=*/true);
  const std::size_t n = trace.size();
  result.impact = t.dist[n];

  // Reconstruct the box chain back from position n.
  std::vector<Box> boxes;
  std::size_t pos = n;
  bool final_box = true;
  while (pos != 0) {
    const Height h = ladder.height(t.best_rung[pos]);
    const Time duration = final_box ? t.final_busy[pos]
                                    : static_cast<Time>(h) * miss_cost;
    boxes.push_back(Box{h, duration});
    pos = t.best_prev[pos];
    final_box = false;
  }
  std::reverse(boxes.begin(), boxes.end());
  result.profile = BoxProfile(std::move(boxes));
  result.time = result.profile.total_duration();
  PPG_CHECK(result.profile.total_impact() == result.impact);
  return result;
}

Impact green_opt_impact(const Trace& trace, const HeightLadder& ladder,
                        Time miss_cost) {
  if (trace.empty()) return 0;
  const DpTables t = run_dp(trace, ladder, miss_cost, /*want_profile=*/false);
  return t.dist[trace.size()];
}

namespace {

Impact brute_rec(const Trace& trace, const HeightLadder& ladder,
                 Time miss_cost, std::size_t pos, std::uint32_t budget,
                 std::vector<LruSet>& caches) {
  if (pos >= trace.size()) return 0;
  if (budget == 0) return kInf;
  Impact best = kInf;
  for (std::uint32_t r = 0; r < ladder.num_heights(); ++r) {
    const Height h = ladder.height(r);
    const BoxAdvance adv = advance_box(trace, pos, h, miss_cost, caches[r]);
    const Time charged = adv.next_pos == trace.size()
                             ? adv.busy
                             : static_cast<Time>(h) * miss_cost;
    const Impact cost = static_cast<Impact>(h) * charged;
    const Impact rest =
        brute_rec(trace, ladder, miss_cost, adv.next_pos, budget - 1, caches);
    if (rest != kInf) best = std::min(best, cost + rest);
  }
  return best;
}

}  // namespace

Impact green_opt_impact_bruteforce(const Trace& trace,
                                   const HeightLadder& ladder, Time miss_cost,
                                   std::uint32_t max_boxes) {
  std::vector<LruSet> caches;
  for (std::uint32_t r = 0; r < ladder.num_heights(); ++r)
    caches.emplace_back(ladder.height(r));
  return brute_rec(trace, ladder, miss_cost, 0, max_boxes, caches);
}

}  // namespace ppg
