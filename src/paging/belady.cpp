#include "paging/belady.hpp"

#include "util/hier_bitset.hpp"

namespace ppg {

void NextUseBuilder::reset(std::size_t size_hint) {
  next_.clear();
  next_.reserve(size_hint);
  table_.assign(16, {0, kNoNextUse});
  distinct_ = 0;
}

void NextUseBuilder::grow() {
  std::vector<std::pair<PageId, std::uint32_t>> old(2 * table_.size(),
                                                    {0, kNoNextUse});
  table_.swap(old);
  for (const auto& entry : old)
    if (entry.second != kNoNextUse) table_[slot_of(entry.first)] = entry;
}

std::uint64_t belady_faults(const std::vector<std::uint32_t>& next,
                            Height cache) {
  PPG_CHECK(cache >= 1);
  HierBitset resident;
  resident.reset(next.size());
  std::uint64_t faults = 0;
  std::uint64_t never_again = 0;  // resident pages with no next use
  Height held = 0;
  for (std::size_t i = 0; i < next.size(); ++i) {
    if (resident.test(i)) {
      resident.clear(i);
    } else {
      ++faults;
      if (held < cache) {
        ++held;
      } else if (never_again > 0) {
        --never_again;
      } else {
        resident.clear(resident.highest());
      }
    }
    if (next[i] == kNoNextUse)
      ++never_again;
    else
      resident.set(next[i]);
  }
  return faults;
}

}  // namespace ppg
