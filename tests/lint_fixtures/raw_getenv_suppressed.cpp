// Same violation, silenced per line.
#include <cstdlib>
#include <string>

std::string cache_size() {
  // ppg-lint: allow(raw-getenv): fixture
  const char* raw = std::getenv("PPG_CACHE_SIZE");
  return raw != nullptr ? raw : "";
}
