#include "src/util/fault.h"

#include "src/util/hash.h"

namespace snowboard {

namespace {

// Deterministic per-ordinal coin: 1-in-`chance` derived from (seed, ordinal, salt).
bool SeededChance(uint64_t seed, uint64_t ordinal, uint64_t salt, uint32_t chance) {
  if (chance == 0) {
    return false;
  }
  return HashAll(seed, ordinal, salt) % chance == 0;
}

}  // namespace

bool FaultInjector::At(const char* site) {
  // Chained injector: this point is also a point of the parent "process" (the daemon a
  // campaign runs inside), and the parent dying here — or having died anywhere — kills
  // this injector too, exactly as losing the host process would.
  if (parent_ != nullptr && parent_->At(site)) {
    Kill(site);
  }
  uint64_t ordinal = next_point_.fetch_add(1, std::memory_order_acq_rel);
  bool hit = static_cast<int64_t>(ordinal) == plan_.crash_at ||
             SeededChance(plan_.seed, ordinal, /*salt=*/0x1dead, plan_.crash_chance);
  if (hit && !crashed_.exchange(true, std::memory_order_acq_rel)) {
    crash_point_.store(static_cast<int64_t>(ordinal), std::memory_order_release);
    std::lock_guard<std::mutex> lock(site_mutex_);
    crash_site_ = site;
  }
  return crashed();
}

void FaultInjector::Kill(const char* site) {
  if (!crashed_.exchange(true, std::memory_order_acq_rel)) {
    // The crash point is wherever the ordinal counter stood when the kill landed — good
    // enough for diagnostics; sweeps never target Kill-induced deaths by ordinal.
    crash_point_.store(static_cast<int64_t>(next_point_.load(std::memory_order_acquire)),
                       std::memory_order_release);
    std::lock_guard<std::mutex> lock(site_mutex_);
    crash_site_ = site;
  }
}

std::string FaultInjector::crash_site() const {
  std::lock_guard<std::mutex> lock(site_mutex_);
  return crash_site_;
}

}  // namespace snowboard
