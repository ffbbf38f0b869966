// Campaign fleet service: many concurrent campaigns multiplexed onto one worker pool.
//
// The paper runs Snowboard as a long-lived service — "we have been running Snowboard
// continuously" (§5) on a fixed fleet that many strategy campaigns share over weeks. This
// module is that deployment's in-process core: a FleetServer owns a worker budget, accepts
// campaign submissions (spec + priority + worker quota), and runs them CONCURRENTLY as
// side-by-side jobs on the process-lifetime WorkerPool (util/workpool.h multi-job
// semantics), instead of one campaign monopolizing the machine while others wait.
//
// Three load-bearing properties, each locked in by tests/serve_fleet_test.cc:
//   * Determinism is per-campaign: a campaign's masked report.json is byte-identical to a
//     standalone `snowboard_cli campaign` run of the same spec, no matter what else the
//     fleet is running — because CampaignPipelineOptions is the ONE spec→options mapping
//     both paths share, and pipeline outputs are invariant under worker count.
//   * Crash recovery is re-adoption: every campaign lives in its own directory (spec +
//     CheckpointStore + report); a daemon death at ANY fault point leaves only durable
//     state, and a restarted FleetServer re-adopts each directory, resuming with zero
//     re-execution of journaled tests. The daemon's FaultInjector is chained as the
//     PARENT of every campaign's stopper (FaultInjector::SetParent), so one fault-point
//     sweep covers serve-layer writes and every point inside every campaign.
//   * Stop is cooperative SIGKILL: cancel, drain, and daemon-death all Kill() a campaign's
//     stopper, making its workers unwind at their next fault point with only committed
//     checkpoints behind — the exact crash-equivalence the resume layer already proves.
//
// Layering: this file knows pipelines and checkpoints but no sockets; the HTTP surface
// (serve_http.h) and the snowboard_serve binary sit above it.
#ifndef SRC_SNOWBOARD_SERVE_H_
#define SRC_SNOWBOARD_SERVE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/snowboard/detectors.h"
#include "src/snowboard/pipeline.h"
#include "src/util/fault.h"

namespace snowboard {

// Everything that shapes a campaign's deterministic outputs, plus its fleet scheduling
// inputs (workers quota, priority). The name doubles as the campaign id and its directory
// under the fleet root, so it must satisfy CheckpointStore::ValidName.
struct CampaignSpec {
  std::string name;
  uint64_t seed = 1;
  Strategy strategy = Strategy::kSInsPair;
  int corpus_size = 80;
  int corpus_iters = 300;
  size_t budget = 300;           // max concurrent tests (Table 3's time box analog).
  int trials = 24;               // trials per concurrent test.
  int workers = 4;               // requested worker quota (a ceiling, not a guarantee).
  int priority = 0;              // higher starts first; ties by submission order.
  uint32_t detectors = kDetectorAll;
  // Schedule-equivalence pruning (equiv.h). ON by default for campaigns — unlike the raw
  // library default — because duplicate-interleaving trials are pure waste at fleet scale;
  // `prune 0` (CLI --no-prune) restores the unpruned trial loop bit-for-bit.
  bool prune = true;
  int prune_saturation = 1;  // Consecutive duplicate trials before a test saturates.
};

// Versioned text round-trip ("snowboard-campaign-spec-v2": one key per line) — the
// submission body of POST /campaigns and the on-disk spec.txt a restart re-adopts.
// The parser rejects (nullopt) unknown headers, malformed lines, unknown keys or
// strategies, and invalid names; serve must never run a spec it could not re-read. It
// still reads v1 bodies, whose `streaming 0|1` key it accepts and drops.
std::string SerializeCampaignSpec(const CampaignSpec& spec);
std::optional<CampaignSpec> ParseCampaignSpec(const std::string& text);

// THE spec→options mapping, shared verbatim by `snowboard_cli campaign` and the fleet
// runner — the construction that makes serve-run and standalone-run reports byte-identical
// under masking. `granted_workers` is the fleet's grant (the CLI passes the spec's own
// quota); worker count shapes no deterministic output. Resume/fault wiring is left to the
// caller.
PipelineOptions CampaignPipelineOptions(const CampaignSpec& spec,
                                        const std::string& checkpoint_dir,
                                        int granted_workers,
                                        int journal_flush_records = 8);

// Campaign lifecycle: kQueued -> kRunning -> {kDone, kCancelled} (+ kFailed for specs
// whose directory cannot be created). Cancel of a queued campaign and drain of a running
// one re-enter earlier states; see FleetServer.
enum class CampaignState { kQueued, kRunning, kDone, kFailed, kCancelled };
const char* CampaignStateName(CampaignState state);

// Typed outcome of the mutating fleet calls; the HTTP layer maps these to status codes
// (kInvalid 400, kNotFound 404, kConflict 409, kUnavailable 503, kIoError 500) instead of
// pattern-matching error strings.
enum class FleetRc { kOk, kInvalid, kNotFound, kConflict, kUnavailable, kIoError };

struct FleetOptions {
  std::string root;              // Campaign directories live here (created if missing).
  int total_workers = 4;         // The fleet-wide worker budget (pool width ceiling).
  int max_active = 4;            // Max campaigns running at once.
  int journal_flush_records = 8; // Journal group-commit threshold for every campaign.
  // Daemon-level fault injection: serve-layer durable writes mark points here, and every
  // campaign's stopper is chained under it, so a sweep over THIS injector's ordinals
  // covers the whole fleet. nullptr = off.
  FaultInjector* fault = nullptr;
};

// One campaign's externally visible state (GET /campaigns/<id>).
struct CampaignStatus {
  std::string id;
  CampaignState state = CampaignState::kQueued;
  std::string strategy;          // StrategyToken.
  int priority = 0;
  int workers_requested = 0;
  int workers_granted = 0;       // 0 unless running.
  uint64_t seed = 0;
  uint64_t submit_sequence = 0;  // 1-based admission order.
  uint64_t start_sequence = 0;   // 1-based start order; 0 = never started.
  size_t tests_executed = 0;     // From the completed result (0 until kDone).
  size_t tests_journaled = 0;    // Outcome records durable on disk right now.
  size_t findings = 0;           // Distinct issues found (kDone only).
  bool report_ready = false;     // report.json committed.
  std::string error;             // kFailed diagnostics.
};

// The daemon core. Thread-safe: the HTTP layer calls into it from its accept loop while
// runner threads (one per running campaign) complete concurrently.
class FleetServer {
 public:
  // Opens the root, re-adopts every campaign directory already in it (spec.txt present):
  // completed ones load their result, cancelled ones keep their marker, everything else —
  // including campaigns that were mid-flight when the previous daemon died — re-enters the
  // queue and resumes from its checkpoint. Then starts as many as the budget allows.
  explicit FleetServer(const FleetOptions& options);
  // Drains (below) if the caller has not already.
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  bool ok() const;  // False when the root could not be created.

  // Admission: validates the spec, persists spec.txt durably, queues, and starts it if
  // budget allows. Non-kOk (with `*error` set) on invalid specs (kInvalid), duplicate ids
  // (kConflict), a draining or dead daemon or a submit-time injected crash (kUnavailable),
  // or filesystem trouble (kIoError).
  FleetRc Submit(const CampaignSpec& spec, std::string* error);

  // Cancels a queued or running campaign (cooperative kill at the next fault point; the
  // checkpoint directory stays valid and resumable). kNotFound for unknown ids, kConflict
  // when the campaign already finished.
  FleetRc Cancel(const std::string& id, std::string* error);

  std::optional<CampaignStatus> Status(const std::string& id);
  std::vector<CampaignStatus> List();  // Submission order.

  // The committed report.json / spec.txt contents; nullopt until report_ready (report) or
  // for unknown ids (both).
  std::optional<std::string> ReportJson(const std::string& id);
  std::optional<std::string> SpecText(const std::string& id);

  // Graceful shutdown (SIGTERM): stops admission, kills every running campaign's stopper
  // ("serve.drain"), and joins all runners. Queued and in-flight campaigns keep their
  // directories for the next daemon to re-adopt; at most one unflushed journal batch per
  // campaign is lost — the crash-equivalence bound the resume layer already covers.
  // Idempotent.
  void Drain();

  // True once a daemon-level injected fault fired: the "process" is dead, every campaign
  // stopper has been killed, and Submit/Cancel refuse. (Observability calls keep working
  // so the sweep harness can inspect the corpse.)
  bool dead();

  // Test hook: a paused fleet admits and persists but starts nothing, so scheduler tests
  // can build a deterministic queue before releasing it. Unpausing schedules immediately.
  void SetPaused(bool paused);

  // Blocks until nothing is running and nothing startable is queued (every campaign
  // settled, or the fleet is paused/draining/dead). The sweep harness and the daemon's
  // drain path both wait here instead of polling.
  void WaitIdle();

  int total_workers() const { return options_.total_workers; }
  // Sum of granted worker quotas of running campaigns (= pool width in use).
  int granted_workers();

 private:
  struct Campaign {
    CampaignSpec spec;
    CampaignState state = CampaignState::kQueued;
    int granted = 0;
    uint64_t submit_sequence = 0;
    uint64_t start_sequence = 0;
    bool cancel_requested = false;
    // The campaign's own "process liveness": the pipeline's fault hook. Chained under the
    // daemon injector; Kill()ed for cancel/drain/daemon-death.
    FaultInjector stopper;
    std::thread runner;
    // The completed result's totals (valid when state == kDone); the result itself lives
    // on disk, in the done marker.
    size_t tests_executed = 0;
    size_t findings = 0;  // Distinct issues.
    std::string error;
  };

  std::string DirFor(const std::string& id) const;
  std::string CheckpointDirFor(const std::string& id) const;
  void AdoptExisting();
  // Starts every queued campaign the budget and fair-share policy allow. Caller holds
  // mutex_.
  void MaybeStartLocked();
  void RunnerMain(Campaign* campaign);
  // Campaign completion: report + done-marker commits (daemon fault points) or
  // cancel/drain/death bookkeeping. Runs on the runner thread.
  void OnCampaignFinished(Campaign* campaign, const PipelineOptions& run_options,
                          const PipelineResult& result);
  // Marks the daemon dead after a serve-layer injected crash: kills every stopper so all
  // campaigns unwind. Caller holds mutex_.
  void DeclareDeadLocked();
  // Everything but tests_journaled, which JournaledTests reads after mutex_ is released.
  CampaignStatus StatusLocked(const Campaign& campaign) const;
  // Durable progress: the outcome records campaign `id`'s journal holds right now. The
  // read creates nothing (a queued campaign has no checkpoint directory yet), and a group
  // commit in flight shows as a torn tail that drops silently.
  size_t JournaledTests(const std::string& id, Strategy strategy) const;
  // True when the daemon injector crashed (checked at API entry; promotes to dead state).
  bool CheckDeadLocked();

  FleetOptions options_;
  bool ok_ = false;
  std::mutex mutex_;
  bool paused_ = false;
  bool draining_ = false;
  bool dead_ = false;
  uint64_t next_submit_sequence_ = 0;
  uint64_t next_start_sequence_ = 0;
  int granted_total_ = 0;
  int running_count_ = 0;
  // Submission-ordered; pointers stay stable (campaigns are never erased).
  std::vector<std::unique_ptr<Campaign>> campaigns_;
  std::map<std::string, Campaign*> by_id_;
};

// Rendering helpers shared by the HTTP layer and the binary (one key per line, stable
// order — greppable in smoke tests).
std::string CampaignStatusJson(const CampaignStatus& status);
std::string FleetStatusJson(FleetServer& server);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_SERVE_H_
