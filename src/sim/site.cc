#include "src/sim/site.h"

#include <mutex>
#include <sstream>
#include <unordered_map>

#include "src/util/hash.h"

namespace snowboard {
namespace {

struct SiteRegistry {
  std::mutex mutex;
  std::unordered_map<SiteId, SiteInfo> table;
};

SiteRegistry& Registry() {
  static SiteRegistry* registry = new SiteRegistry();  // Leaked intentionally: process-lifetime.
  return *registry;
}

}  // namespace

SiteId RegisterSite(const char* file, int line, const char* function, int counter) {
  // The id must be stable across runs and independent of registration order (registration
  // happens lazily on first execution, possibly from concurrent engine worker threads), so it
  // is a pure function of the source location.
  uint64_t h = Fnv1a(file);
  h = HashCombine(h, static_cast<uint64_t>(line));
  h = HashCombine(h, static_cast<uint64_t>(counter));
  if (h == kInvalidSite) {
    h = 1;  // Reserve 0 for "no site".
  }
  SiteRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto [it, inserted] = reg.table.try_emplace(h);
  if (inserted) {
    it->second = SiteInfo{file, line, function};
  }
  return h;
}

SiteInfo LookupSite(SiteId id) {
  SiteRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto it = reg.table.find(id);
  if (it == reg.table.end()) {
    return SiteInfo{"<unknown>", 0, "<unknown>"};
  }
  return it->second;
}

std::string SiteName(SiteId id) {
  SiteInfo info = LookupSite(id);
  if (info.line == 0) {
    std::ostringstream os;
    os << "<site 0x" << std::hex << id << ">";
    return os.str();
  }
  // Strip directories for readability.
  size_t slash = info.file.find_last_of('/');
  std::string base = slash == std::string::npos ? info.file : info.file.substr(slash + 1);
  std::ostringstream os;
  os << info.function << " (" << base << ":" << info.line << ")";
  return os.str();
}

}  // namespace snowboard
