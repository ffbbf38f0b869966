// Schedule-equivalence pruning (Landslide-style).
//
// Snowboard prunes the *input* space by PMC clustering; this module prunes the *schedule*
// space. Bugs surface through inter-thread communication, so a trial is worth analyzing
// only while it adds communication its test has not already shown: a cross-vCPU reads-from
// edge (write site, read site, address, value) that no earlier trial of the same test
// realized. A trial whose every edge is already in the test's edge history feeds the
// detectors nothing new, so the explorer skips it and declares the test *saturated*.
// Scheduler switch points are deliberately EXCLUDED from an edge: where preemptions landed
// is schedule identity, and every seeded trial's schedule is distinct by construction.
//
// Edge order does not count either. An earlier rule compared each trial's whole ordered
// edge sequence, and adaptive steering reorders known edges so readily that repeats were
// rare: on perfbench's `campaign_pmc` inputs it ran 543 trials per campaign and pruned 28
// of them. Comparing edge sets runs 152 trials and finds the same issues on every input
// (EXPERIMENTS.md, "Schedule-equivalence pruning").
//
// The edges also feed the adaptive site table: the two sites of each newly seen edge are
// learned to participate in communication, and later trials' preemptions are steered
// toward them.
//
// Everything here follows the trial loop's storage discipline: flat tables and vectors
// that keep their backing arrays across Clear(), so collecting a trace's edges performs no
// heap allocation at steady state (tests/trial_alloc_test.cc proves the combined loop).
#ifndef SRC_SNOWBOARD_EQUIV_H_
#define SRC_SNOWBOARD_EQUIV_H_

#include <cstdint>
#include <vector>

#include "src/sim/access.h"
#include "src/util/flatmap.h"
#include "src/util/hash.h"

namespace snowboard {

// One inter-thread communication edge: a read on `addr` observing `value` that was last
// written by a DIFFERENT vCPU. `write_site`/`read_site` name the instructions.
struct HbEdge {
  SiteId write_site = 0;
  SiteId read_site = 0;
  GuestAddr addr = 0;
  uint64_t value = 0;

  // The edge's identity in a test's edge history.
  uint64_t Key() const { return HashAll(write_site, read_site, addr, value); }

  bool operator==(const HbEdge&) const = default;
};

// Reusable scratch for CollectHbEdges: one last-writer table keyed by address plus the
// edges of the most recent trial. Clear-keeps-capacity, so one scratch serves a whole test.
struct HbScratch {
  struct LastWrite {
    SiteId site = 0;
    VcpuId vcpu = kInvalidVcpu;
  };
  FlatMap<uint64_t, LastWrite> last_write;  // addr -> the last write's site and vCPU.
  std::vector<HbEdge> edges;                // This trial's edges, in trace order.
};

// Fills scratch->edges with the trace's communication edges (reads-from pairs on shared
// addresses, with address and observed value), in trace order and with duplicates kept.
// Yield events carry no edge — see the file comment for why.
void CollectHbEdges(const Trace& trace, HbScratch* scratch);

// Sites learned to participate in communication edges. One table lives for one test's
// trial loop and dies with it.
class AdaptiveSiteTable {
 public:
  void Clear() { hot_.Clear(); }
  void Record(SiteId site) { hot_.Insert(site); }
  // A site is hot once it has participated in any communication edge. The schedulers only
  // consult a non-empty table (an empty table means nothing has been learned yet, not that
  // every site is cold).
  bool IsHot(SiteId site) const { return hot_.Contains(site); }
  bool empty() const { return hot_.size() == 0; }

 private:
  FlatSet<SiteId> hot_;
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
  // K consecutive trials that add no new edge ⇒ the test saturates and ends early.
  // Execution savings come entirely from saturation (a never-saturating test still runs
  // its full trial budget), so the window must sit below the budget to save anything. The
  // default is 1 — saturate at the first such trial — because adaptive steering already
  // pushes every subsequent trial toward unexplored communication, so a trial that still
  // shows nothing new is a strong signal the test's communication is exhausted.
  int saturation_window = 1;
};

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_EQUIV_H_
