// Concurrent test execution — §4.4, Algorithm 2.
//
// A concurrent test runs its writer test on vCPU 0 and reader test on vCPU 1 from the fixed
// snapshot, up to NUMBER_OF_TRIALS times, each trial with deterministic randomness
// (random.seed(SEED + trial)). The PmcScheduler implements the paper's scheduling
// primitives:
//   * performed_pmc_access — the access just executed matches a current-PMC side (full
//     feature comparison: access type, memory range, value, instruction); remembers the
//     thread's PREVIOUS access into `flags` and flips a coin to switch.
//   * pmc_access_coming — the access matches a `flags` entry, i.e. the PMC access is about
//     to be performed; coin-flip switch.
//   * is_live — handled by the engine's liveness monitor (the scheduler is notified).
// At the end of each trial, a different PMC whose read AND write both appeared in the trial
// may be adopted into current_pmcs (incidental-PMC exploration).
#ifndef SRC_SNOWBOARD_EXPLORER_H_
#define SRC_SNOWBOARD_EXPLORER_H_

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/sim/scheduler.h"
#include "src/snowboard/detectors.h"
#include "src/snowboard/equiv.h"
#include "src/snowboard/select.h"
#include "src/util/rng.h"

namespace snowboard {

// Full-feature key of an access, used by flag and PMC matching.
uint64_t AccessFeatureHash(AccessType type, GuestAddr addr, uint8_t len, SiteId site,
                           uint64_t value);

// Reverse index from write-side features to PMCs, supporting incidental-PMC discovery
// (Algorithm 2 line 26). Built once per pipeline; shared read-only across workers.
class PmcMatcher {
 public:
  PmcMatcher(const std::vector<Pmc>* pmcs, size_t max_indexed = 200'000);

  // PMCs whose write side matches `write_feature_hash`.
  const std::vector<uint32_t>* CandidatesForWrite(uint64_t write_feature_hash) const;
  const std::vector<Pmc>& pmcs() const { return *pmcs_; }

 private:
  const std::vector<Pmc>* pmcs_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_write_feature_;
};

// A scheduler that is reseeded at the start of every trial (deterministic replay).
class TrialScheduler : public Scheduler {
 public:
  virtual void SeedTrial(uint64_t seed) {}

  // Trial-attempt transaction. Cross-trial state a scheduler learns DURING a run
  // (PmcScheduler's flags) must not survive an attempt that gets discarded — a hung
  // attempt's retry has to be bit-identical to the attempt never having executed, or
  // retries leak into later trials' decision streams. BeginAttempt opens the journal;
  // RollbackAttempt un-learns everything the attempt recorded. Stateless-across-trials
  // schedulers need neither.
  virtual void BeginAttempt() {}
  virtual void RollbackAttempt() {}

  // Switch decisions taken since construction (cumulative telemetry — the explorer emits
  // it as a per-trial trace counter AND records the per-test delta in
  // ExploreOutcome::switch_decisions, so reports show how actively the scheduler steered).
  // Derived AfterAccess implementations account into it.
  uint64_t switch_decisions() const { return switch_decisions_; }

  // Adaptive preemption: when a non-null, non-empty table is installed, derived schedulers
  // boost switch probability at sites learned to participate in communication edges (and
  // the random baseline suppresses it elsewhere). Null (the default) leaves every decision
  // bit-for-bit identical to the pre-pruning behavior. The table is part of the seeded
  // per-test trial state — it is only ever fed from the same test's earlier trials — so
  // trial schedules stay a deterministic function of (test, seed), and recorded replay
  // tokens re-execute exactly regardless of this knob.
  void set_adaptive_sites(const AdaptiveSiteTable* table) { adaptive_sites_ = table; }

 protected:
  // True when the adaptive table marks this site hot (never true with no table installed).
  bool AdaptiveHot(SiteId site) const {
    return adaptive_sites_ != nullptr && !adaptive_sites_->empty() &&
           adaptive_sites_->IsHot(site);
  }
  bool adaptive_installed() const {
    return adaptive_sites_ != nullptr && !adaptive_sites_->empty();
  }

  uint64_t switch_decisions_ = 0;
  const AdaptiveSiteTable* adaptive_sites_ = nullptr;
};

// Baseline scheduler used for Random/Duplicate pairing (Table 3): preempts at memory
// accesses with a fixed probability, with no knowledge of PMCs.
class RandomPreemptScheduler : public TrialScheduler {
 public:
  explicit RandomPreemptScheduler(uint32_t period = 16) : period_(period) {}
  void SeedTrial(uint64_t seed) override { rng_.Seed(seed); }
  bool AfterAccess(VcpuId vcpu, const Access& access) override {
    // With an adaptive table installed, concentrate the fixed preemption budget on sites
    // known to carry communication: boosted odds there, suppressed odds elsewhere. Still
    // exactly one RNG draw per access, and with no table the odds are the baseline's.
    uint32_t period = period_;
    if (adaptive_installed()) {
      period = AdaptiveHot(access.site) ? std::max<uint32_t>(1, period_ / kAdaptiveBoost)
                                        : period_ * kAdaptiveBoost;
    }
    bool do_switch = rng_.Chance(1, period);
    switch_decisions_ += do_switch ? 1 : 0;
    return do_switch;
  }

 private:
  uint32_t period_;
  Rng rng_;
};

// The Algorithm 2 scheduler.
class PmcScheduler : public TrialScheduler {
 public:
  PmcScheduler() = default;

  void ResetForTest(const PmcKey& initial_pmc);  // current_pmcs = {pmc}; flags = ∅.
  void SeedTrial(uint64_t seed) override;  // random.seed(SEED + trial); last_access = None.
  void AddPmc(const PmcKey& pmc);                // Incidental adoption.
  void BeginAttempt() override { flag_journal_.clear(); }
  void RollbackAttempt() override;  // Erase the attempt's journaled flags.
  const std::vector<PmcKey>& current_pmcs() const { return current_pmcs_; }
  size_t flag_count() const { return flags_.size(); }

  // Ablation toggle: disable the flags mechanism (pmc_access_coming never fires and no
  // flags are learned); only performed_pmc_access switches remain.
  void set_flags_enabled(bool enabled) { flags_enabled_ = enabled; }

  bool AfterAccess(VcpuId vcpu, const Access& access) override;

 private:
  bool PerformedPmcAccess(const Access& access) const;
  bool PmcAccessComing(const Access& access) const;

  std::vector<PmcKey> current_pmcs_;
  std::unordered_set<uint64_t> pmc_feature_hashes_;  // Both sides of every current PMC.
  std::unordered_set<uint64_t> flags_;               // Persist across trials of one test.
  // Address-level prefilter over both exact sets above: AfterAccess early-exits when the
  // access address provably belongs to neither PMC sides nor flags (the overwhelmingly
  // common case), skipping the feature hash and both set probes.
  AccessAddrFilter addr_filter_;
  // Flags newly learned by the current attempt, for RollbackAttempt. Only genuinely new
  // insertions are journaled, so an erase restores flags_ to the pre-attempt set exactly.
  // The stale addr_filter_ bit a rollback leaves behind is harmless: the filter is a
  // conservative prefilter, and a spurious hit falls through to the exact flags_ probe
  // without touching the RNG stream. Capacity is kept across trials (no-alloc steady state).
  std::vector<uint64_t> flag_journal_;
  std::optional<Access> last_access_[kMaxTestVcpus];  // One slot per schedulable thread.
  bool flags_enabled_ = true;
  Rng rng_;
};

// ThreeThreadTest (below) is the widest test shape; its threads index last_access_
// directly, so the bound must cover it.
static_assert(kMaxTestVcpus >= 3,
              "three-thread tests index per-vCPU scheduler state up to vCPU 2");

class FaultInjector;  // util/fault.h.

struct ExplorerOptions {
  int num_trials = 64;  // "Every PMC was explored with at most 64 trials" (§5.1).
  uint64_t seed = 2021;
  uint64_t max_instructions = 400'000;
  // If nonzero, stop as soon as a finding classifies to this Table 2 issue id — used by the
  // §5.4 trials-to-expose comparison against SKI. Only then are findings classified inside
  // the trial loop. Otherwise Algorithm 2 records findings and keeps exploring (an early
  // ubiquitous finding, the #13 allocator race, would mask rarer bugs in the same test).
  int target_issue = 0;
  // Hung-trial policy: a trial attempt that trips the liveness monitor (or an injected
  // hang) is discarded — before detectors see it — and re-run up to this many times, with
  // the same seed from the same restored snapshot. Retries are counted in
  // ExploreOutcome::trials_retried; a deterministic real hang exhausts the retries and is
  // then accepted as before, so results are unchanged — only accounted.
  int max_trial_retries = 0;
  // Crash/hang fault-injection hook (crash-sweep harness); nullptr = off. A crash makes
  // the trial loop unwind immediately with a partial outcome the caller must discard.
  FaultInjector* fault = nullptr;
  // Record the schedule of every first-seen finding and shrink it with the delta-debugging
  // minimizer (minimize.h; MinimizeOptions sets the per-finding replay budget) after the
  // trial loop, so findings ship with a minimal replay token. Minimization replays are
  // extra engine runs; disable for raw-throughput runs.
  bool minimize_schedules = true;
  // Enabled-detector mask (kDetector* bits; detectors.h). All five by default; the CLI's
  // --detectors flag narrows it. Part of the campaign options fingerprint: outcomes
  // explored under different masks answer different questions.
  uint32_t detectors = kDetectorAll;
  // Schedule-equivalence pruning (equiv.h). Off by default — raw-options campaigns keep
  // today's trial stream bit-for-bit; campaign specs and the CLI enable it.
  PruneOptions prune;
};

// The recorded reproducer of one first-seen finding: enough to rebuild a replay token
// (serialize.h) once the pipeline layer attaches the program pair and issue id. `key` is
// the same dedup key the explorer's first-seen sets use (race Signature(), FNV-1a of the
// console line / panic message), so findings classified later can be joined back to their
// capture. `fingerprint` is DetectorFingerprint() of the replayed trial that the final
// (minimized) schedule was verified against.
struct TrialCapture {
  uint8_t kind = 0;  // FindingKind.
  uint64_t finding_key = 0;
  int trial = -1;
  uint64_t fingerprint = 0;
  std::string schedule;        // RecordedSchedule::ToString() of the (minimized) schedule.
  uint32_t orig_switches = 0;  // Switches in the raw recording.
  uint32_t min_switches = 0;   // Switches surviving minimization.

  bool operator==(const TrialCapture&) const = default;
};

struct ExploreOutcome {
  int trials_run = 0;
  int trials_retried = 0;          // Hung attempts discarded and re-run.
  int trials_pruned = 0;           // Duplicate-fingerprint trials skipped by pruning.
  bool saturated = false;          // Ended early: K consecutive duplicate fingerprints.
  uint64_t switch_decisions = 0;   // Scheduler switch decisions across this test's trials.
  bool bug_found = false;
  int first_bug_trial = -1;        // 0-based trial index of the first detector hit.
  bool target_found = false;       // Only meaningful with options.target_issue != 0.
  int first_target_trial = -1;
  bool channel_exercised = false;  // §5.3.2: the predicted PMC carried data in >= 1 trial.
  bool any_hang = false;
  std::vector<RaceReport> races;            // Deduped across trials.
  std::vector<std::string> console_hits;    // Deduped.
  std::vector<std::string> panic_messages;  // Deduped.
  std::vector<DeadlockReport> deadlocks;         // Deduped by witness signature.
  std::vector<LostWakeupReport> lost_wakeups;    // Deduped.
  std::vector<LivelockReport> livelocks;         // Deduped.
  std::vector<TrialCapture> captures;       // One per first-seen finding (replay tokens).

  bool operator==(const ExploreOutcome&) const = default;
};

// Runs Algorithm 2 for one concurrent test. `matcher` may be null (disables adoption).
ExploreOutcome ExploreConcurrentTest(KernelVm& vm, const ConcurrentTest& test,
                                     const PmcMatcher* matcher,
                                     const ExplorerOptions& options);

// Generic trial loop with an arbitrary reseedable scheduler — used for the Random/Duplicate
// pairing baselines and the SKI comparison (§5.4). No incidental-PMC adoption; the channel
// check runs only if `check_channel` (the baselines carry no hint).
ExploreOutcome ExploreWithScheduler(KernelVm& vm, const ConcurrentTest& test,
                                    TrialScheduler& scheduler, bool check_channel,
                                    const ExplorerOptions& options);

// --- §6 "Testing Thread Count" extension: three-thread concurrent tests. ---
//
// "Snowboard should apply to input spaces of more dimensions, e.g., with PMCs of 1 shared
// write with 2 reads, or PMC chains." A ThreeThreadTest runs three sequential tests on three
// vCPUs; both hints are installed as current PMCs, so Algorithm 2's switch points cover
// either a fan-out (one write, two reads: hint_a/hint_b share the write side) or a chain
// (t0 -w-> t1 -w-> t2: hint_b's writer lives in t1). It runs the same trial loop as a
// two-thread test (so findings get captured, minimized schedules), with no incidental-PMC
// adoption; the channel counts as exercised when hint_a carried data 0->1 or hint_b
// carried it 0->2 or 1->2.
struct ThreeThreadTest {
  Program programs[kMaxTestVcpus];
  int test_ids[kMaxTestVcpus] = {-1, -1, -1};
  PmcKey hint_a;  // Typically: t0's write -> t1's read.
  PmcKey hint_b;  // Fan-out: t0's write -> t2's read; chain: t1's write -> t2's read.
};

ExploreOutcome ExploreThreeThreaded(KernelVm& vm, const ThreeThreadTest& test,
                                    const ExplorerOptions& options);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_EXPLORER_H_
