#include "core/global_lru.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/lru_set.hpp"
#include "util/math_util.hpp"

namespace ppg {

namespace {

// Per-processor span-buffer size. One next_span call per 16 requests
// already amortizes the virtual dispatch (256 measured the same), and
// 16 * 8 B per processor keeps p = 1024 at 128 KiB of buffers.
constexpr std::size_t kGlobalLruSpan = 16;

/// (ready time, proc): when the processor issues its next request.
struct ReadyEntry {
  Time time;
  ProcId proc;

  bool operator<(const ReadyEntry& other) const {
    return time != other.time ? time < other.time : proc < other.proc;
  }
};

/// Fixed-capacity ring FIFO of ReadyEntry. The caller pushes in sorted
/// order, so the front is always the minimum.
class ReadyFifo {
 public:
  explicit ReadyFifo(std::size_t capacity) : ring_(capacity) {}

  bool empty() const { return size_ == 0; }
  const ReadyEntry& front() const { return ring_[head_]; }

  void push(ReadyEntry entry) {
    PPG_DCHECK(size_ < ring_.size());
    std::size_t tail = head_ + size_;
    if (tail >= ring_.size()) tail -= ring_.size();
    PPG_DCHECK(size_ == 0 ||
               ring_[(tail == 0 ? ring_.size() : tail) - 1] < entry);
    ring_[tail] = entry;
    ++size_;
  }

  ReadyEntry pop() {
    const ReadyEntry entry = ring_[head_];
    if (++head_ == ring_.size()) head_ = 0;
    --size_;
    return entry;
  }

 private:
  std::vector<ReadyEntry> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace

ParallelRunResult run_global_lru(const MultiTraceSource& sources,
                                 const GlobalLruConfig& config) {
  PPG_CHECK(config.cache_size >= 1);
  PPG_CHECK(config.miss_cost >= 1);
  const ProcId p = sources.num_procs();

  ParallelRunResult result;
  result.completion.assign(p, 0);

  LruSet cache(config.cache_size);
  std::vector<std::unique_ptr<TraceCursor>> cursors;
  cursors.reserve(p);
  // Processor i's buffered requests are spans[i * kGlobalLruSpan + pos[i]]
  // up to len[i].
  std::vector<PageId> spans(static_cast<std::size_t>(p) * kGlobalLruSpan);
  std::vector<std::uint32_t> pos(p, 0);
  std::vector<std::uint32_t> len(p, 0);

  // Refills processor `proc`'s span and returns its length; 0 means the
  // stream has ended. Applies the same screens as BoxRunner's refill: a
  // cursor that returns nothing without being done() (a stalled stream)
  // and the reserved kInvalidPage sentinel are both kCorruptTrace.
  const auto refill = [&](ProcId proc) {
    TraceCursor& cursor = *cursors[proc];
    PageId* span =
        spans.data() + static_cast<std::size_t>(proc) * kGlobalLruSpan;
    const std::size_t n = cursor.next_span(span, kGlobalLruSpan);
    if (n == 0 && !cursor.done()) {
      throw_error(ErrorCode::kCorruptTrace,
                  "trace stream stalled: no request and not done",
                  cursor.position());
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (span[i] == kInvalidPage) {
        throw_error(ErrorCode::kCorruptTrace,
                    "hostile page id (reserved sentinel) in trace stream",
                    cursor.position() - n + i);
      }
    }
    pos[proc] = 0;
    len[proc] = static_cast<std::uint32_t>(n);
    return n;
  };

  // The ready queue is two FIFOs: `after_hit` holds entries pushed at
  // now + 1, `after_miss` entries pushed at now + s, and each pop takes the
  // smaller head. This is exact, not an approximation of the heap:
  //   * pops come out in nondecreasing (time, proc) order, because every
  //     push (now + c, proc) with c >= 1 exceeds the entry just popped;
  //   * so the pushes into one class are sorted too, since
  //     (t1, p1) < (t2, p2) implies (t1 + c, p1) < (t2 + c, p2) for the
  //     class's fixed c; the initial (0, i) entries go into `after_hit` in
  //     id order, below every later (>= 1, proc) push;
  //   * two sorted FIFOs have their minimum at one of the heads.
  // Capacity p each suffices: a processor has at most one entry in the
  // two queues together (it is popped before it is pushed again).
  ReadyFifo after_hit(p);
  ReadyFifo after_miss(p);
  for (ProcId i = 0; i < p; ++i) {
    cursors.push_back(sources.source(i).cursor());
    if (refill(i) != 0) after_hit.push({0, i});
  }

  const Time miss_cost = config.miss_cost;
  for (;;) {
    ReadyEntry entry;
    if (after_miss.empty()) {
      if (after_hit.empty()) break;
      entry = after_hit.pop();
    } else if (after_hit.empty() || after_miss.front() < after_hit.front()) {
      entry = after_miss.pop();
    } else {
      entry = after_hit.pop();
    }
    const ProcId proc = entry.proc;
    const PageId page =
        spans[static_cast<std::size_t>(proc) * kGlobalLruSpan + pos[proc]];
    const bool hit = cache.access(page);
    const Time done = entry.time + (hit ? 1 : miss_cost);
    if (hit)
      ++result.hits;
    else
      ++result.misses;
    if (++pos[proc] == len[proc] && refill(proc) == 0) {
      result.completion[proc] = done;
    } else if (hit) {
      after_hit.push({done, proc});
    } else {
      after_miss.push({done, proc});
    }
  }

  result.makespan =
      *std::max_element(result.completion.begin(), result.completion.end());
  result.mean_completion = mean_of(result.completion);
  result.peak_concurrent_height = config.cache_size;
  result.effective_augmentation = 1.0;
  result.total_impact =
      static_cast<Impact>(config.cache_size) * result.makespan;
  return result;
}

ParallelRunResult run_global_lru(const MultiTrace& traces,
                                 const GlobalLruConfig& config) {
  return run_global_lru(MultiTraceSource::view_of(traces), config);
}

namespace {

class GlobalLruBoxFacade final : public BoxScheduler {
 public:
  void start(const SchedulerContext& ctx, const EngineView& view) override {
    (void)view;
    ctx_ = ctx;
    height_ = slice_height(ctx.num_procs);
    fresh_issued_.assign(ctx.num_procs, false);
  }

  void notify_arrived(ProcId proc, Time now, const EngineView& view) override {
    (void)now;
    // Grow the per-processor slice bookkeeping and re-slice the shared
    // pool across the new active count: subsequent boxes (for everyone)
    // use the updated height, mirroring how a real partitioned-LRU
    // service would rebalance on tenant arrival.
    if (proc >= fresh_issued_.size())
      fresh_issued_.resize(static_cast<std::size_t>(proc) + 1, false);
    height_ = slice_height(view.active_count());
  }

  BoxAssignment next_box(ProcId proc, Time now,
                         const EngineView& view) override {
    (void)view;
    BoxAssignment box;
    box.height = height_;
    box.start = now;
    box.end = now + ctx_.miss_cost * static_cast<Time>(ctx_.cache_size);
    // One shared pool per processor slice: the cache persists across box
    // boundaries (continuations), only the first box starts cold.
    box.fresh = !fresh_issued_[proc];
    fresh_issued_[proc] = true;
    return box;
  }

  const char* name() const override { return "GLOBAL-LRU(box)"; }

 private:
  Height slice_height(ProcId procs) const {
    return static_cast<Height>(std::max<std::uint64_t>(
        1, pow2_floor(ctx_.cache_size / std::max<ProcId>(1, procs))));
  }

  SchedulerContext ctx_;
  Height height_ = 1;
  std::vector<bool> fresh_issued_;
};

}  // namespace

std::unique_ptr<BoxScheduler> make_global_lru_box_facade() {
  return std::make_unique<GlobalLruBoxFacade>();
}

}  // namespace ppg
