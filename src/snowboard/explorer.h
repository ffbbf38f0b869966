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
//   * is_live — handled by the engine's liveness monitor, which forces the switch itself.
// At the end of each trial, a different PMC whose read AND write both appeared in the trial
// may be adopted into current_pmcs (incidental-PMC exploration).
#ifndef SRC_SNOWBOARD_EXPLORER_H_
#define SRC_SNOWBOARD_EXPLORER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/sim/scheduler.h"
#include "src/snowboard/detectors.h"
#include "src/snowboard/equiv.h"
#include "src/snowboard/select.h"
#include "src/util/flatmap.h"
#include "src/util/rng.h"

namespace snowboard {

// Full-feature key of an access, used by flag and PMC matching.
uint64_t AccessFeatureHash(AccessType type, GuestAddr addr, uint8_t len, SiteId site,
                           uint64_t value);

// Incidental-PMC discovery (Algorithm 2 line 26) over the first `max_indexed` PMCs. Built
// once per pipeline; shared read-only across workers. The constructor gives every distinct
// write-side feature a dense group id and every distinct read-side feature a dense read id,
// and lays the candidates out contiguously group by group (index order within a group),
// each with its precomputed PmcKey::Hash() and read id. A trial's search then hashes each
// access once, marks the ids it hit in per-test stamp arrays, and walks only the hit
// groups' candidates.
class PmcMatcher {
 public:
  // The search stops once this many matches are collected: plenty to draw one from.
  static constexpr size_t kMaxMatches = 64;

  // Per-test search state: stamp arrays indexed by the matcher's dense ids, sized by the
  // test's first search and reused by every later trial (a trial only bumps the stamp).
  class Search {
   public:
    // PMC indices found by the last FindIncidental call, in match order.
    const std::vector<uint32_t>& matches() const { return matches_; }

   private:
    friend class PmcMatcher;
    std::vector<uint32_t> group_stamp_;
    std::vector<uint32_t> read_stamp_;
    uint32_t stamp_ = 0;
    std::vector<uint32_t> groups_hit_;  // Write groups in first-occurrence trace order.
    std::vector<uint32_t> matches_;
  };

  PmcMatcher(const std::vector<Pmc>* pmcs, size_t max_indexed = 200'000);

  // Fills search->matches() with the indexed PMCs not in `current_keys` (PmcKey::Hash()
  // values) whose write AND read features both occurred among the trace's accesses. Write
  // features are scanned in first-occurrence trace order and each one's PMCs in index
  // order, stopping at kMaxMatches, so the result (and the adoption draw made from it) is a
  // deterministic function of the trace.
  void FindIncidental(const Trace& trace, const FlatSet<uint64_t>& current_keys,
                      Search* search) const;

  const std::vector<Pmc>& pmcs() const { return *pmcs_; }

 private:
  static constexpr uint32_t kNoId = UINT32_MAX;

  // What a feature hash is as a PMC side: a write group, a read id, or (by collision) both.
  struct FeatureIds {
    uint32_t group = kNoId;
    uint32_t read = kNoId;
  };
  struct Candidate {
    uint64_t key_hash;  // PmcKey::Hash().
    uint32_t pmc;       // Index into pmcs().
    uint32_t read;      // Read id of the PMC's read side.
  };

  const std::vector<Pmc>* pmcs_;
  FlatMap<uint64_t, FeatureIds> ids_;  // Side feature hash -> dense ids.
  std::vector<uint32_t> group_begin_;  // Group g's candidates: [group_begin_[g], [g + 1]).
  std::vector<Candidate> candidates_;
  uint32_t num_reads_ = 0;
};

// A scheduler that is reseeded at the start of every trial (deterministic replay).
class TrialScheduler : public Scheduler {
 public:
  virtual void SeedTrial(uint64_t seed) {}

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
    return rng_.Chance(1, period);
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
  FlatSet<uint64_t> pmc_feature_hashes_;  // Both sides of every current PMC.
  FlatSet<uint64_t> flags_;               // Persist across trials of one test.
  // Address-level prefilter over both exact sets above: AfterAccess early-exits when the
  // access address provably belongs to neither PMC sides nor flags (the overwhelmingly
  // common case), skipping the feature hash and both set probes.
  AccessAddrFilter addr_filter_;
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
  // §5.4 trials-to-expose comparison against SKI. Otherwise Algorithm 2 records findings and
  // keeps exploring (an early ubiquitous finding, the #13 allocator race, would mask rarer
  // bugs in the same test).
  int target_issue = 0;
  // Crash fault-injection hook (crash-sweep harness); nullptr = off. A crash makes the
  // trial loop unwind immediately with a partial outcome the caller must discard.
  FaultInjector* fault = nullptr;
  // Shrink the recorded schedule of every first-seen finding with the delta-debugging
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

// One first-seen finding of a test, recorded by the trial that first reported it. `key` is
// its dedup key within its kind (FindingKind). The record carries the finding's triage —
// issue id and evidence line (ClassifyFinding / DescribeFinding, report.h) — and its
// reproducer: the trial's recorded schedule, shrunk by the minimizer when enabled, plus
// `fingerprint`, the DetectorFingerprint() of the replayed trial that the final schedule
// was verified against. MakeReplayToken (replay.h) turns a record into a shippable token.
struct FindingRecord {
  FindingKind kind = FindingKind::kRace;
  uint64_t key = 0;
  int issue_id = 0;  // 0 = unclassified.
  std::string evidence;
  int trial = -1;
  uint64_t fingerprint = 0;
  std::string schedule;        // RecordedSchedule::ToString() of the (minimized) schedule.
  uint32_t orig_switches = 0;  // Switches in the raw recording.
  uint32_t min_switches = 0;   // Switches surviving minimization.

  bool operator==(const FindingRecord&) const = default;
};

struct ExploreOutcome {
  int trials_run = 0;
  int trials_pruned = 0;           // Trials after the first that added no new edge.
  bool saturated = false;          // Ended early: K consecutive pruned trials.
  uint64_t switch_decisions = 0;   // Scheduler switch decisions across this test's trials.
  bool bug_found = false;
  int first_bug_trial = -1;        // 0-based trial index of the first detector hit.
  bool target_found = false;       // Only meaningful with options.target_issue != 0.
  int first_target_trial = -1;
  bool channel_exercised = false;  // §5.3.2: the predicted PMC carried data in >= 1 trial.
  bool any_hang = false;
  // One record per distinct (kind, key), ordered by FindingKind and then by first sighting.
  // That is the order a test's findings reach its FindingsLog, so it decides which finding
  // represents an issue that two kinds report in one test.
  std::vector<FindingRecord> findings;

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
