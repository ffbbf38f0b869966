// Deterministic fault injection for crash-safety testing.
//
// The paper's campaigns run for weeks on a fleet where worker loss is routine (§4.4.1);
// the checkpoint/resume layer only counts if a run killed at ANY point resumes to the
// byte-identical result. A FaultInjector is threaded through the crash-relevant code —
// checkpoint commits (src/util/fs.h), the per-trial explorer loop, the execution claim
// loop, and journal appends — and each of those spots marks a *fault point*. Points are
// numbered in global arrival order across threads; the plan picks which ordinal "kills the
// process". A killed run does not literally abort(): the flag makes every worker unwind at
// its next fault point and the pipeline return early, leaving only the on-disk checkpoints
// behind — exactly what a real SIGKILL leaves — so a test can then resume in-process and
// compare results.
//
// The crash-sweep harness first runs a campaign with a no-crash plan to count the fault
// points, then replays the campaign once per ordinal. Total point count is deterministic
// for a fixed campaign (same stages, tests, and trials), though with multiple workers the
// ordinal→site mapping varies with thread interleaving — the resume invariant must (and
// does) hold regardless of which site an ordinal lands on.
#ifndef SRC_UTIL_FAULT_H_
#define SRC_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace snowboard {

class FaultInjector {
 public:
  struct Plan {
    uint64_t seed = 0;
    // Crash at this 0-based fault-point ordinal (-1 = never).
    int64_t crash_at = -1;
    // Random mode: 1-in-`crash_chance` crash per fault point (0 = off), derived from
    // (seed, ordinal) so a given seed always dies at the same ordinal.
    uint32_t crash_chance = 0;
  };

  FaultInjector() = default;
  explicit FaultInjector(const Plan& plan) : plan_(plan) {}

  // Marks one fault point named `site`. Returns true when the caller must abandon its
  // work and unwind — either this point was chosen as the crash, or the crash already
  // happened on another thread (a dead process runs nothing anywhere).
  bool At(const char* site);

  // Kills the "process" NOW, independent of the plan: every later (and concurrent) At()
  // returns true, so all workers unwind at their next fault point exactly as an injected
  // crash would — leaving only durably committed state behind. This is the cooperative
  // stop primitive the serve daemon uses for campaign cancel, SIGTERM drain, and
  // daemon-death propagation; a no-plan injector plus Kill is "SIGKILL on demand".
  // Idempotent; the first call wins the crash site.
  void Kill(const char* site);

  // Chains this injector under `parent` (the serve daemon's injector): every At() here
  // also marks a fault point on the parent, so a sweep over the parent's ordinals covers
  // the full fleet — serve-layer writes AND every point inside every campaign — and a
  // parent crash (the daemon dying) propagates as an immediate Kill of this injector.
  // This injector stays independently killable (campaign cancel) without touching the
  // parent. Must be set before the injector is shared across threads; nullptr detaches.
  void SetParent(FaultInjector* parent) { parent_ = parent; }

  bool crashed() const {
    return crashed_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->crashed());
  }
  std::string crash_site() const;
  int64_t crash_point() const { return crash_point_.load(std::memory_order_acquire); }
  uint64_t points_seen() const { return next_point_.load(std::memory_order_acquire); }

 private:
  Plan plan_;
  FaultInjector* parent_ = nullptr;
  std::atomic<uint64_t> next_point_{0};
  std::atomic<bool> crashed_{false};
  std::atomic<int64_t> crash_point_{-1};
  mutable std::mutex site_mutex_;
  std::string crash_site_;
};

}  // namespace snowboard

#endif  // SRC_UTIL_FAULT_H_
