// Schedule-equivalence pruning (ROADMAP item 2, Landslide-style).
//
// Snowboard prunes the *input* space by PMC clustering; this module prunes the *schedule*
// space. Two trials of the same concurrent test are detector-equivalent when they realize
// the same inter-thread communication: the same reads-from edges on shared addresses, in
// the same order, with the same values observed. The happens-before fingerprint below
// hashes exactly that — an order-sensitive FNV-1a over the trial's communication-edge
// sequence. Scheduler switch points are deliberately EXCLUDED: where preemptions landed is
// schedule identity, every seeded trial's schedule is distinct by construction, and
// folding it in makes every fingerprint unique (measured on the reference campaign: zero
// duplicates with switch points folded, duplicate groups of 14-19 trials without). Two
// trials that differ only in where the scheduler switched, but realize the same edge
// sequence, feed the detectors the same happens-before skeleton — so the explorer can
// skip duplicate interleavings early,
// declare a test *saturated* once fresh trials stop producing new fingerprints, and learn
// which instruction sites actually participate in communication (the adaptive site table)
// to steer later trials' preemptions toward them.
//
// Everything here follows the trial loop's storage discipline: flat tables that keep their
// backing arrays across Clear(), so fingerprinting a trace performs no heap allocation at
// steady state (tests/trial_alloc_test.cc proves the combined loop).
#ifndef SRC_SNOWBOARD_EQUIV_H_
#define SRC_SNOWBOARD_EQUIV_H_

#include <cstdint>
#include <vector>

#include "src/sim/access.h"
#include "src/util/flatmap.h"

namespace snowboard {

// One inter-thread communication edge: a read on `addr` observing `value` that was last
// written by a DIFFERENT vCPU. `write_site`/`read_site` name the instructions; together
// with the trace order of edges this is the happens-before skeleton the detectors see.
struct HbEdge {
  SiteId write_site = 0;
  SiteId read_site = 0;
  GuestAddr addr = 0;
  uint64_t value = 0;

  bool operator==(const HbEdge&) const = default;
};

// Reusable scratch for HbFingerprint: last-writer tables keyed by address plus the edge
// sites of the most recent trial (in trace order, duplicates preserved — the adaptive
// table counts participation). Clear-keeps-capacity, so one scratch serves a whole test.
struct HbScratch {
  FlatMap<uint64_t, uint64_t> last_write_site;  // addr -> site of the last write.
  FlatMap<uint64_t, uint64_t> last_write_vcpu;  // addr -> vCPU of the last write.
  std::vector<SiteId> edge_sites;               // Both sites of every edge, this trial.
};

// The per-trial happens-before fingerprint: order-sensitive FNV-1a over the trial's
// communication edges (reads-from pairs on shared addresses, with address and observed
// value). Yield events are invariant — see the file comment for why. Identical
// fingerprints ⇔ identical edge sequences (tests/equiv_property_test.cc proves both
// directions on randomized schedules, modulo 64-bit collisions).
//
// `scratch` is cleared and refilled; after the call scratch->edge_sites holds the trial's
// edge-site sequence. `edges_out` (optional, test/diagnostic use — it allocates) receives
// the decoded edge list.
uint64_t HbFingerprint(const Trace& trace, HbScratch* scratch,
                       std::vector<HbEdge>* edges_out = nullptr);

// Sites learned to participate in communication edges, with participation counts, in
// first-learned order (FlatMap iteration order is unspecified, so any deterministic output
// must walk `order()`). One table lives for one test's trial loop and dies with it.
class AdaptiveSiteTable {
 public:
  void Clear() {
    counts_.Clear();
    order_.clear();
  }
  void Record(SiteId site) {
    uint32_t& count = counts_[static_cast<uint64_t>(site)];
    if (count == 0) {
      order_.push_back(site);
    }
    count++;
  }
  // A site is hot once it has participated in any communication edge. The schedulers only
  // consult a non-empty table (an empty table means nothing has been learned yet, not that
  // every site is cold).
  bool IsHot(SiteId site) const { return counts_.Contains(static_cast<uint64_t>(site)); }
  uint32_t CountFor(SiteId site) const {
    const uint32_t* count = counts_.Find(static_cast<uint64_t>(site));
    return count != nullptr ? *count : 0;
  }
  bool empty() const { return order_.empty(); }
  const std::vector<SiteId>& order() const { return order_; }

 private:
  FlatMap<uint64_t, uint32_t> counts_;
  std::vector<SiteId> order_;  // First-learned order, for deterministic iteration.
};

// When an adaptive site table is installed on a scheduler, preemption probability at hot
// sites is boosted by this factor (and the random baseline's is suppressed by it at cold
// sites). A modest constant: steering, not forcing.
inline constexpr uint32_t kAdaptiveBoost = 4;

// Schedule-equivalence pruning knobs (ExplorerOptions::prune). Off by default at the
// library level so raw PipelineOptions campaigns — goldens, checked-in replay corpus,
// determinism tests — are bit-for-bit unchanged; campaign specs and the CLI default it ON.
// With pruning on, learned edge sites also feed back into the scheduler as boosted
// preemption points (the adaptive site table). Every field participates in the campaign
// options fingerprint.
struct PruneOptions {
  bool enabled = false;
  // K consecutive duplicate fingerprints ⇒ the test saturates and ends early. Execution
  // savings come entirely from saturation (a never-saturating test still runs its full
  // trial budget), so the window must sit below the budget to save anything. The default
  // is 1 — saturate at the first duplicate — because adaptive steering already pushes
  // every subsequent trial toward unexplored communication (measured on the reference
  // campaign: steering halves the duplicate rate), so the first repeat is a strong signal
  // the test's interleaving space is exhausted.
  int saturation_window = 1;
};

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_EQUIV_H_
