// Concrete eviction policies: LRU, FIFO, CLOCK, RANDOM, LFU, BELADY.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "paging/eviction_policy.hpp"
#include "util/assert.hpp"
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

// 64-ary hierarchical bitset over [0, n): level 0 holds the bits, and
// each word of level l+1 marks the nonzero words of level l. Set, clear
// and "highest set bit" touch one word per level (about log64 n of them).
class HierBitset {
 public:
  static constexpr std::size_t kNone = SIZE_MAX;

  void reset(std::size_t n) {
    levels_.clear();
    std::size_t words = std::max<std::size_t>(1, (n + 63) / 64);
    for (;;) {
      levels_.emplace_back(words, 0);
      if (words == 1) break;
      words = (words + 63) / 64;
    }
  }

  bool test(std::size_t i) const {
    return (levels_[0][i >> 6] >> (i & 63)) & 1;
  }

  void set(std::size_t i) {
    for (auto& level : levels_) {
      std::uint64_t& word = level[i >> 6];
      const bool was_empty = word == 0;
      word |= std::uint64_t{1} << (i & 63);
      if (!was_empty) return;  // the levels above already mark this word
      i >>= 6;
    }
  }

  void clear(std::size_t i) {
    for (auto& level : levels_) {
      std::uint64_t& word = level[i >> 6];
      word &= ~(std::uint64_t{1} << (i & 63));
      if (word != 0) return;
      i >>= 6;
    }
  }

  /// Highest set bit, or kNone when the set is empty.
  std::size_t highest() const {
    if (levels_.empty() || levels_.back()[0] == 0) return kNone;
    std::size_t i = 0;
    for (std::size_t l = levels_.size(); l-- > 0;)
      i = i * 64 + 63 -
          static_cast<std::size_t>(std::countl_zero(levels_[l][i]));
    return i;
  }

  /// Calls fn(i) for every set bit, visiting only nonzero words.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!levels_.empty()) walk(levels_.size() - 1, 0, fn);
  }

  /// Clears every bit, visiting only nonzero words.
  void clear_all() {
    if (!levels_.empty()) zero(levels_.size() - 1, 0);
  }

 private:
  static std::size_t child(std::size_t index, std::uint64_t word) {
    return index * 64 + static_cast<std::size_t>(std::countr_zero(word));
  }

  template <typename Fn>
  void walk(std::size_t level, std::size_t index, Fn& fn) const {
    for (std::uint64_t w = levels_[level][index]; w != 0; w &= w - 1) {
      if (level == 0)
        fn(child(index, w));
      else
        walk(level - 1, child(index, w), fn);
    }
  }

  void zero(std::size_t level, std::size_t index) {
    std::uint64_t w = levels_[level][index];
    levels_[level][index] = 0;
    if (level == 0) return;
    for (; w != 0; w &= w - 1) zero(level - 1, child(index, w));
  }

  std::vector<std::vector<std::uint64_t>> levels_;  // [0] = the bits
};

constexpr std::uint32_t kNoNextUse = UINT32_MAX;

/// next[i] = index of the next request for trace[i]'s page after i, or
/// kNoNextUse if there is none. One backward pass over a flat
/// open-addressing table (page -> latest index seen, kNoNextUse marking an
/// empty cell), grown at load 1/2.
std::vector<std::uint32_t> next_uses(const Trace& trace) {
  constexpr std::uint32_t kEmpty = kNoNextUse;
  std::vector<std::uint32_t> next(trace.size(), kNoNextUse);
  std::vector<std::pair<PageId, std::uint32_t>> table(16, {0, kEmpty});
  std::size_t used = 0;
  const auto slot_of = [&table](PageId page) {
    const std::size_t mask = table.size() - 1;
    std::uint64_t x = page;  // splitmix64 finalizer, as in LruFlatIndex
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    std::size_t k = static_cast<std::size_t>(x) & mask;
    while (table[k].second != kEmpty && table[k].first != page)
      k = (k + 1) & mask;
    return k;
  };
  for (std::size_t i = trace.size(); i-- > 0;) {
    if (2 * (used + 1) > table.size()) {
      std::vector<std::pair<PageId, std::uint32_t>> old(2 * table.size(),
                                                        {0, kEmpty});
      table.swap(old);
      for (const auto& entry : old)
        if (entry.second != kEmpty) table[slot_of(entry.first)] = entry;
    }
    auto& [page, latest] = table[slot_of(trace[i])];
    if (latest == kEmpty) {
      page = trace[i];
      ++used;
    } else {
      next[i] = latest;
    }
    latest = static_cast<std::uint32_t>(i);
  }
  return next;
}

// Belady's offline OPT: evict the resident page whose next use is farthest
// in the future. prepare() records next_use_ = next_uses(trace). A
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
    PPG_CHECK_MSG(trace.size() <= kNoNextUse,
                  "Belady needs fewer than 2^32 requests");
    trace_ = &trace;
    resident_.reset(trace.size());
    never_.clear();
    pos_ = 0;
    next_use_ = next_uses(trace);
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
    PPG_CHECK_MSG(pos_ < next_use_.size(),
                  "Belady used without prepare()/advance()");
  }

  /// Records a use of `page` at pos_ (a hit or an insert): its next use
  /// becomes its bit, or it joins the never-again list.
  void note_use(PageId page) {
    check_position();
    const std::uint32_t next = next_use_[pos_];
    if (next == kNoNextUse)
      never_.push_back(page);
    else
      resident_.set(next);
  }

  const Trace* trace_ = nullptr;  // the prepared trace; must outlive use
  std::vector<std::uint32_t> next_use_;
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
