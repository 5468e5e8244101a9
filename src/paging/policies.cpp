// Concrete eviction policies: LRU, FIFO, CLOCK, RANDOM, LFU, BELADY.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "paging/belady.hpp"
#include "paging/eviction_policy.hpp"
#include "util/assert.hpp"
#include "util/hier_bitset.hpp"
#include "util/lru_set.hpp"

namespace ppg {

namespace {

class LruPolicy final : public EvictionPolicy {
 public:
  explicit LruPolicy(Height capacity) : set_(capacity) {}

  void insert(PageId page) override { set_.access(page); }
  void touch(PageId page) override { set_.access(page); }
  PageId evict() override {
    const PageId victim = set_.lru_page();
    PPG_CHECK_MSG(victim != kInvalidPage, "evict from empty LRU");
    set_.erase(victim);
    return victim;
  }
  void clear() override { set_.clear(); }
  bool contains(PageId page) const override { return set_.contains(page); }
  bool touch_if_resident(PageId page) override {
    return set_.try_touch(page);
  }
  const char* name() const override { return "LRU"; }

 private:
  LruSet set_;
};

class FifoPolicy final : public EvictionPolicy {
 public:
  void insert(PageId page) override {
    queue_.push_back(page);
    resident_.insert(page);
  }
  void touch(PageId) override {}  // FIFO ignores re-access
  PageId evict() override {
    PPG_CHECK_MSG(!queue_.empty(), "evict from empty FIFO");
    const PageId victim = queue_.front();
    queue_.pop_front();
    resident_.erase(victim);
    return victim;
  }
  void clear() override {
    queue_.clear();
    resident_.clear();
  }
  bool contains(PageId page) const override {
    return resident_.contains(page);
  }
  bool touch_if_resident(PageId page) override {
    return resident_.contains(page);  // touch is a no-op for FIFO
  }
  const char* name() const override { return "FIFO"; }

 private:
  std::deque<PageId> queue_;
  std::unordered_set<PageId> resident_;
};

// CLOCK (second chance): circular buffer of (page, referenced) pairs; the
// hand sweeps, clearing reference bits, and evicts the first unreferenced
// page it meets.
class ClockPolicy final : public EvictionPolicy {
 public:
  explicit ClockPolicy(Height capacity) { frames_.reserve(capacity); }

  void insert(PageId page) override {
    index_[page] = frames_.size();
    frames_.push_back(Frame{page, /*referenced=*/false});
  }
  void touch(PageId page) override {
    const auto it = index_.find(page);
    PPG_DCHECK(it != index_.end());
    frames_[it->second].referenced = true;
  }
  bool contains(PageId page) const override {
    return index_.contains(page);
  }
  bool touch_if_resident(PageId page) override {
    const auto it = index_.find(page);
    if (it == index_.end()) return false;
    frames_[it->second].referenced = true;
    return true;
  }
  PageId evict() override {
    PPG_CHECK_MSG(!frames_.empty(), "evict from empty CLOCK");
    for (;;) {
      if (hand_ >= frames_.size()) hand_ = 0;
      Frame& f = frames_[hand_];
      if (f.referenced) {
        f.referenced = false;
        ++hand_;
        continue;
      }
      const PageId victim = f.page;
      // Swap-remove; fix the index of the page moved into this slot.
      index_.erase(victim);
      f = frames_.back();
      frames_.pop_back();
      if (hand_ < frames_.size()) index_[frames_[hand_].page] = hand_;
      return victim;
    }
  }
  void clear() override {
    frames_.clear();
    index_.clear();
    hand_ = 0;
  }
  const char* name() const override { return "CLOCK"; }

 private:
  struct Frame {
    PageId page;
    bool referenced;
  };
  std::vector<Frame> frames_;
  std::unordered_map<PageId, std::size_t> index_;
  std::size_t hand_ = 0;
};

class RandomPolicy final : public EvictionPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}

  void insert(PageId page) override {
    index_[page] = pages_.size();
    pages_.push_back(page);
  }
  void touch(PageId) override {}
  bool contains(PageId page) const override {
    return index_.contains(page);
  }
  bool touch_if_resident(PageId page) override {
    return index_.contains(page);  // touch is a no-op for RANDOM
  }
  PageId evict() override {
    PPG_CHECK_MSG(!pages_.empty(), "evict from empty RANDOM");
    const std::size_t i = rng_.next_below(pages_.size());
    const PageId victim = pages_[i];
    index_.erase(victim);
    pages_[i] = pages_.back();
    pages_.pop_back();
    if (i < pages_.size()) index_[pages_[i]] = i;
    return victim;
  }
  void clear() override {
    pages_.clear();
    index_.clear();
  }
  const char* name() const override { return "RANDOM"; }

 private:
  Rng rng_;
  std::vector<PageId> pages_;
  std::unordered_map<PageId, std::size_t> index_;
};

// LFU with LRU tie-break: frequency map plus recency stamp; eviction scans
// resident pages. O(capacity) evictions — acceptable at simulator scales
// and avoids a heavyweight frequency-bucket structure.
class LfuPolicy final : public EvictionPolicy {
 public:
  void insert(PageId page) override {
    entries_[page] = Entry{1, stamp_++};
  }
  void touch(PageId page) override {
    auto it = entries_.find(page);
    PPG_DCHECK(it != entries_.end());
    ++it->second.frequency;
    it->second.last_use = stamp_++;
  }
  bool contains(PageId page) const override {
    return entries_.contains(page);
  }
  bool touch_if_resident(PageId page) override {
    auto it = entries_.find(page);
    if (it == entries_.end()) return false;
    ++it->second.frequency;
    it->second.last_use = stamp_++;
    return true;
  }
  PageId evict() override {
    PPG_CHECK_MSG(!entries_.empty(), "evict from empty LFU");
    auto best = entries_.begin();
    for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it) {
      if (it->second.frequency < best->second.frequency ||
          (it->second.frequency == best->second.frequency &&
           it->second.last_use < best->second.last_use)) {
        best = it;
      }
    }
    const PageId victim = best->first;
    entries_.erase(best);
    return victim;
  }
  void clear() override {
    entries_.clear();
    stamp_ = 0;
  }
  const char* name() const override { return "LFU"; }

 private:
  struct Entry {
    std::uint64_t frequency;
    std::uint64_t last_use;
  };
  std::unordered_map<PageId, Entry> entries_;
  std::uint64_t stamp_ = 0;
};

// Belady's offline OPT: evict the resident page whose next use is farthest
// in the future. prepare() builds the next-use array (paging/belady.hpp). A
// resident page whose next use j is finite is the single bit j of
// `resident_`, so request i hits iff bit i is set; pages never used again
// sit on `never_`. evict() takes a never-again page first (any of them:
// none is ever hit again, so the choice cannot change a fault count), else
// the highest set bit j, whose page is trace[j]. No per-request hashing or
// heap: every operation is a few word operations per bitset level.
// contains() walks the set bits; it only serves consistency checks.
class BeladyPolicy final : public EvictionPolicy {
 public:
  void prepare(const Trace& trace) override {
    trace_ = &trace;
    resident_.reset(trace.size());
    never_.clear();
    pos_ = 0;
    uses_.reset(trace.size());
    for (const PageId page : trace) uses_.push(page);
  }

  void advance(std::size_t request_index) override { pos_ = request_index; }

  void insert(PageId page) override { note_use(page); }

  void touch(PageId page) override {
    [[maybe_unused]] const bool hit = touch_if_resident(page);
    PPG_DCHECK(hit);
  }

  bool touch_if_resident(PageId page) override {
    check_position();
    PPG_DCHECK((*trace_)[pos_] == page);
    if (!resident_.test(pos_)) return false;
    resident_.clear(pos_);
    note_use(page);
    return true;
  }

  PageId evict() override {
    if (!never_.empty()) {
      const PageId victim = never_.back();
      never_.pop_back();
      return victim;
    }
    const std::size_t j = resident_.highest();
    PPG_CHECK_MSG(j != HierBitset::kNone, "evict from empty BELADY");
    resident_.clear(j);
    return (*trace_)[j];
  }

  void clear() override {
    resident_.clear_all();
    never_.clear();
    pos_ = 0;
  }

  bool contains(PageId page) const override {
    if (std::find(never_.begin(), never_.end(), page) != never_.end())
      return true;
    bool found = false;
    resident_.for_each(
        [&](std::size_t j) { found = found || (*trace_)[j] == page; });
    return found;
  }

  const char* name() const override { return "BELADY"; }

 private:
  void check_position() const {
    PPG_CHECK_MSG(pos_ < uses_.size(),
                  "Belady used without prepare()/advance()");
  }

  /// Records a use of `page` at pos_ (a hit or an insert): its next use
  /// becomes its bit, or it joins the never-again list.
  void note_use(PageId page) {
    check_position();
    const std::uint32_t next = uses_.next()[pos_];
    if (next == kNoNextUse)
      never_.push_back(page);
    else
      resident_.set(next);
  }

  const Trace* trace_ = nullptr;  // the prepared trace; must outlive use
  NextUseBuilder uses_;
  HierBitset resident_;
  std::vector<PageId> never_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* policy_kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLru: return "LRU";
    case PolicyKind::kFifo: return "FIFO";
    case PolicyKind::kClock: return "CLOCK";
    case PolicyKind::kRandom: return "RANDOM";
    case PolicyKind::kLfu: return "LFU";
    case PolicyKind::kMru: return "MRU";
    case PolicyKind::kSlru: return "SLRU";
    case PolicyKind::kArc: return "ARC";
    case PolicyKind::kMarking: return "MARKING";
    case PolicyKind::kBelady: return "BELADY";
  }
  return "unknown";
}

std::vector<PolicyKind> all_policy_kinds() {
  return {PolicyKind::kLru,     PolicyKind::kFifo, PolicyKind::kClock,
          PolicyKind::kRandom,  PolicyKind::kLfu,  PolicyKind::kMru,
          PolicyKind::kSlru,    PolicyKind::kArc,  PolicyKind::kMarking,
          PolicyKind::kBelady};
}

std::unique_ptr<EvictionPolicy> make_policy(PolicyKind kind, Height capacity,
                                            std::uint64_t seed) {
  switch (kind) {
    case PolicyKind::kLru: return std::make_unique<LruPolicy>(capacity);
    case PolicyKind::kFifo: return std::make_unique<FifoPolicy>();
    case PolicyKind::kClock: return std::make_unique<ClockPolicy>(capacity);
    case PolicyKind::kRandom: return std::make_unique<RandomPolicy>(seed);
    case PolicyKind::kLfu: return std::make_unique<LfuPolicy>();
    case PolicyKind::kMru: return make_mru_policy(capacity);
    case PolicyKind::kSlru: return make_slru_policy(capacity);
    case PolicyKind::kArc: return make_arc_policy(capacity);
    case PolicyKind::kMarking: return make_marking_policy(capacity, seed);
    case PolicyKind::kBelady: return std::make_unique<BeladyPolicy>();
  }
  PPG_CHECK_MSG(false, "unknown policy kind");
  return nullptr;
}

}  // namespace ppg
