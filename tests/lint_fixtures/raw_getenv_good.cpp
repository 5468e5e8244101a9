// Clean: the value arrives as a parsed flag or config field, never from
// the ambient environment.
#include <cstdint>

struct CacheConfig {
  std::uint64_t cache_size = 64;
};

std::uint64_t cache_size(const CacheConfig& config) {
  return config.cache_size;
}
