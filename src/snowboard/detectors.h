// Bug detectors (§3.1 "a bug detector monitors executions", §4.4.1 is_bug).
//
// A pluggable suite of oracles run over each finished trial. The paper's two original
// detectors plus three hang-gated ones:
//   * Console checker — greps the captured guest console for oops/panic/fs-error lines
//     (plus the engine's panic flag itself).
//   * Data-race detector — an Eraser-style lockset analysis over the trial's event trace
//     (the DataCollider/SKI race-detector analog): two accesses from different vCPUs to
//     overlapping ranges, at least one write, not both marked-atomic, with disjoint
//     locksets. RCU read-side sections are correctly NOT treated as excluding writers.
//   * Lock-order detector — builds the lock-acquisition graph (including "wants" edges
//     from blocked acquires); a cycle on a hung trial is a deadlock, reported with the
//     witness cycle of locks and acquisition sites.
//   * Lost-wakeup detector — a vCPU that blocked on a wait channel and was never resumed
//     before the trial hung, reported with the wait site and the missed-notify site when
//     one is in the trace.
//   * Livelock detector — a hung trial whose tail window keeps acquiring and releasing
//     the same lock without any vCPU retiring a new site within the spin budget.
// The three new detectors fire only on hung, non-panicked trials, so a completing trial
// costs one branch per detector and the pre-existing race/console campaigns report
// byte-identically.
// Plus the post-mortem PMC verifier used by §5.3.2's accuracy measurement: did the predicted
// memory channel actually carry data from the writer to the reader in this trial?
#ifndef SRC_SNOWBOARD_DETECTORS_H_
#define SRC_SNOWBOARD_DETECTORS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/snowboard/pmc.h"
#include "src/util/flatmap.h"

namespace snowboard {

struct RaceReport {
  SiteId write_site = kInvalidSite;  // The write side (first write for write/write races).
  SiteId other_site = kInvalidSite;
  GuestAddr addr = kGuestNull;       // Where the race was observed.
  bool write_write = false;

  bool operator==(const RaceReport&) const = default;

  // Order-insensitive signature for dedup across trials.
  uint64_t Signature() const;
};

struct DeadlockReport {
  // The witness cycle, canonically rotated so the smallest lock address comes first:
  // locks[(i+1) % n] was acquired (or blocked on) while holding locks[i], at sites[i].
  std::vector<GuestAddr> locks;
  std::vector<SiteId> sites;

  bool operator==(const DeadlockReport&) const = default;
  uint64_t Signature() const;
};

struct LostWakeupReport {
  GuestAddr channel = kGuestNull;
  SiteId wait_site = kInvalidSite;    // Where the vCPU blocked, never to resume.
  SiteId notify_site = kInvalidSite;  // Last notify on the channel in-trace (the wake the
                                      // sleeper missed); kInvalidSite if none fired.
  VcpuId vcpu = kInvalidVcpu;

  bool operator==(const LostWakeupReport&) const = default;
  uint64_t Signature() const;
};

struct LivelockReport {
  // Distinct acquisition sites cycling in the tail window, in first-seen order.
  std::vector<SiteId> spin_sites;
  uint64_t window_events = 0;  // Size of the no-progress tail window examined.

  bool operator==(const LivelockReport&) const = default;
  uint64_t Signature() const;
};

struct DetectorResult {
  bool panicked = false;
  std::string panic_message;
  std::vector<std::string> console_hits;  // Suspicious console lines.
  std::vector<RaceReport> races;          // Deduped by site-pair signature.
  std::vector<DeadlockReport> deadlocks;
  std::vector<LostWakeupReport> lost_wakeups;
  std::vector<LivelockReport> livelocks;
};

// Each detector below is a trial oracle owned by value by DetectorSuite. Its Analyze
// appends findings to `out` (never clearing other detectors' sections) and must be a
// deterministic pure function of the run: two detectors fed the same run produce
// byte-identical reports, and scratch reuse cannot leak state between trials. Each keeps
// persistent scratch reset-in-place so steady-state (completing-trial) calls perform no
// heap allocation.

// Console checker: the engine's panic flag plus suspicious console lines.
class ConsoleDetector {
 public:
  void Analyze(const Engine::RunResult& run, DetectorResult* out);
};

// The race detector with persistent scratch. One instance is meant to live across an entire
// trial loop: all working state (vector clocks, lockset snapshots, release-clock maps,
// remembered accesses, signature dedup) lives in flat tables and vectors that are reset in
// place per Detect call, so after the first few trials grow them to their high-water
// capacity, a Detect call performs no heap allocation beyond appending to the caller's
// `races` vector (itself reusable).
class RaceDetector {
 public:
  // The detector supports up to three vCPUs: the paper's two-thread configuration plus the
  // §6 three-thread extension.
  static constexpr int kMaxVcpus = 3;

  void Analyze(const Engine::RunResult& run, DetectorResult* out);

  // Analyzes `trace` and replaces the contents of `races` with the deduped reports, in
  // trace order (the same order the legacy DetectRaces free function produced).
  void Detect(const Trace& trace, std::vector<RaceReport>* races);

 private:
  using VectorClock = std::array<uint64_t, kMaxVcpus>;
  static constexpr uint32_t kNil = UINT32_MAX;

  // A lockset: `len` unique lock addrs at `lockset_pool_[begin..]`, unordered. Every lock
  // event appends the vCPU's new lockset to the pool, so a range never changes once made.
  struct LocksetRange {
    uint32_t begin = 0;
    uint32_t len = 0;
  };

  // A remembered access for cross-thread comparison, deduped per (granule, vcpu) by
  // (site, type); the most recent instance is kept (it has the least happens-before
  // coverage, so it is the most likely to still race). Entries of one (granule, vcpu)
  // chain through `next` in insertion order.
  struct Remembered {
    SiteId site;
    uint64_t own_ts;  // The owner's own clock component when the access executed.
    GuestAddr addr;
    LocksetRange lockset;
    uint32_t next;
    AccessType type;
    bool marked;
    uint8_t len;
  };

  // A granule's per-vCPU chain heads into remembered_ (kNil: no entry).
  using GranuleSlot = std::array<uint32_t, kMaxVcpus>;

  GranuleSlot& GetGranule(GuestAddr granule);
  // Makes `lock` held (acquire) or not held (release) in a fresh snapshot of v's lockset.
  void UpdateLockset(int v, GuestAddr lock, bool acquire);
  bool LocksetsDisjoint(LocksetRange a, LocksetRange b) const;

  VectorClock clocks_[kMaxVcpus] = {};
  LocksetRange locksets_[kMaxVcpus];  // Each vCPU's current lockset.
  std::vector<GuestAddr> lockset_pool_;
  FlatMap<GuestAddr, VectorClock> lock_release_clocks_;
  FlatMap<GuestAddr, VectorClock> atomic_release_clocks_;  // Keyed by cell addr.
  FlatMap<GuestAddr, uint32_t> granule_index_;  // granule addr -> granules_ slot.
  std::vector<GranuleSlot> granules_;
  std::vector<Remembered> remembered_;
  FlatSet<uint64_t> seen_signatures_;
};

// One directed edge of the lock-acquisition graph: `to` was acquired (or blocked on) at
// `site` while `from` was held.
struct LockOrderEdge {
  GuestAddr from = kGuestNull;
  GuestAddr to = kGuestNull;
  SiteId site = kInvalidSite;

  bool operator==(const LockOrderEdge&) const = default;
};

// Deterministic cycle finder over the acquisition graph. On success fills `cycle` with
// indices into `edges` forming one directed cycle (each edge's `to` equals the next edge's
// `from`, the last wrapping to the first) and returns true. Exposed separately from
// LockOrderDetector so the property test can pit it against a brute-force finder.
bool FindLockOrderCycle(const std::vector<LockOrderEdge>& edges,
                        std::vector<uint32_t>* cycle);

// Lockset + lock-order-graph deadlock detector. Replays the trace's lock events, adding
// held->acquired edges on every acquisition and held->wanted edges on blocked acquire
// attempts (an actual ABBA deadlock never reaches its second kLockAcquire — the attempt
// event is what puts the closing edge in the graph). A cycle on a hung trial is reported
// with the witness cycle. Gated on hang so consistently-ordered (or merely lucky) trials
// cost one branch.
class LockOrderDetector {
 public:
  void Analyze(const Engine::RunResult& run, DetectorResult* out);

 private:
  void AddEdges(VcpuId vcpu, GuestAddr lock, SiteId site);

  std::vector<GuestAddr> held_[RaceDetector::kMaxVcpus];
  std::vector<LockOrderEdge> edges_;
  std::vector<uint32_t> cycle_;
};

// Lost-wakeup detector: a vCPU whose last kWaitBlock has no matching kWaitResume when the
// trial hangs slept through its wakeup. The report carries the wait site and the last
// kWaitNotify site on that channel (the wake that landed before the sleeper was listening).
class LostWakeupDetector {
 public:
  void Analyze(const Engine::RunResult& run, DetectorResult* out);

 private:
  struct Outstanding {
    bool active = false;
    GuestAddr channel = kGuestNull;
    SiteId site = kInvalidSite;
  };
  Outstanding waiting_[RaceDetector::kMaxVcpus];
  FlatMap<GuestAddr, SiteId> last_notify_;
};

// Bounded-progress livelock detector: on a hung trial, examine the tail window of
// kSpinWindow events. If no event retires a site unseen before the window (no progress),
// no vCPU is blocked on a wait channel, and some lock is acquired AND released at least
// kMinSpinAcquires times inside the window (live cycling — a deadlocked vCPU never
// re-acquires, a lost-wakeup sleeper never acquires at all), the trial is spinning without
// progress: a livelock.
class LivelockDetector {
 public:
  static constexpr size_t kSpinWindow = 512;     // Tail window: the spin budget, in events.
  static constexpr size_t kMinWindow = 64;       // Below this the tail is too short to judge.
  static constexpr uint32_t kMinSpinAcquires = 4;

  void Analyze(const Engine::RunResult& run, DetectorResult* out);

 private:
  FlatSet<uint64_t> sites_before_;
  FlatMap<GuestAddr, uint32_t> acquires_;
  FlatMap<GuestAddr, uint32_t> releases_;
  std::vector<SiteId> spin_sites_;
};

// --- Detector-enable bits, for DetectorSuite and the CLI --detectors flag. ---
inline constexpr uint32_t kDetectorConsole = 1u << 0;
inline constexpr uint32_t kDetectorRace = 1u << 1;
inline constexpr uint32_t kDetectorLockOrder = 1u << 2;
inline constexpr uint32_t kDetectorLostWakeup = 1u << 3;
inline constexpr uint32_t kDetectorLivelock = 1u << 4;
inline constexpr uint32_t kDetectorAll = (1u << 5) - 1;

// Parses a comma-separated detector list into an enable mask. Names: console, race,
// deadlock, lost-wakeup, livelock; "all" (or an empty string) means every detector and
// "none" means no detector. Returns false on an unknown name.
bool ParseDetectorMask(const std::string& text, uint32_t* mask);

// Renders a mask back as the canonical comma-separated list ParseDetectorMask accepts
// ("all" when every detector is enabled) — campaign specs store this, not raw bits.
// Unknown bits are dropped.
std::string FormatDetectorMask(uint32_t mask);

// The full registered suite with persistent per-detector scratch. One instance lives
// across a trial loop; Run resets `out` in place (recycling vector capacity) and then runs
// every enabled detector, in registration order, so steady-state calls allocate nothing.
class DetectorSuite {
 public:
  explicit DetectorSuite(uint32_t enabled = kDetectorAll) : enabled_(enabled) {}

  uint32_t enabled() const { return enabled_; }

  void Run(const Engine::RunResult& run, DetectorResult* out);

 private:
  uint32_t enabled_;
  ConsoleDetector console_;
  RaceDetector race_;
  LockOrderDetector lock_order_;
  LostWakeupDetector lost_wakeup_;
  LivelockDetector livelock_;
};

// Order-sensitive hash of a full detector output (panic flag + message, console hits, race
// reports in trace order, and — only when present — deadlock/lost-wakeup/livelock
// witnesses). Detection is a pure function of the trace, so two trials with the same
// interleaving fingerprint identically — which is what lets a replay token carry the
// expected fingerprint and a replayed trial prove it reproduced the original. New report
// kinds are hashed only when non-empty, so fingerprints of race/console-era findings (and
// the checked-in token corpus) are unchanged.
uint64_t DetectorFingerprint(const DetectorResult& result);

// Finding kinds as they appear in a trial's detector output; the dedup key of a finding is
// RaceReport::Signature() for races, Fnv1a(line) for console hits and panic messages, and
// the report Signature() for deadlock/lost-wakeup/livelock — the exact keys the explorer's
// cross-trial dedup sets use.
enum class FindingKind : uint8_t {
  kRace = 0,
  kConsole = 1,
  kPanic = 2,
  kDeadlock = 3,
  kLostWakeup = 4,
  kLivelock = 5,
};

// Stable lowercase name for a finding kind ("race", "deadlock", ...); used by report.json,
// SARIF, and the CLI.
const char* FindingKindName(FindingKind kind);

inline constexpr size_t kFindingKindCount = 6;  // FindingKind values are 0..5.

// One finding of a trial's detector output: its kind, its dedup key, and where its report
// sits in `result` (index within the kind's section; 0 for the panic).
struct FindingKey {
  FindingKind kind = FindingKind::kRace;
  uint64_t key = 0;
  uint32_t index = 0;
};

// Replaces `keys` with every finding in `result`, section by section in DetectorResult
// order. The caller owns `keys`, so a trial loop that reuses one vector walks each trial's
// findings without allocating.
void FindingKeys(const DetectorResult& result, std::vector<FindingKey>* keys);

// Runs the full detector suite over a finished trial (fresh scratch; convenience for
// one-shot callers). The trial hot loop keeps one DetectorSuite and
// calls its Run instead.
DetectorResult RunDetectors(const Engine::RunResult& result);

// The race detector alone (exposed for tests and post-mortem analysis).
std::vector<RaceReport> DetectRaces(const Trace& trace);

// True if `line` matches a suspicious-console pattern.
bool IsSuspiciousConsoleLine(const std::string& line);

// §5.3.2 PMC accuracy: true if the trial contains a write by `writer_vcpu` matching the
// hint's write side and a LATER read by `reader_vcpu` matching the hint's read side whose
// overlapping bytes carry the written value (actual writer→reader data flow).
bool PmcChannelExercised(const Trace& trace, const PmcKey& hint, VcpuId writer_vcpu,
                         VcpuId reader_vcpu);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_DETECTORS_H_
