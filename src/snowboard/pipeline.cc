#include "src/snowboard/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>

#include "src/snowboard/artifact.h"
#include "src/snowboard/checkpoint.h"
#include "src/snowboard/profile.h"
#include "src/snowboard/serialize.h"
#include "src/snowboard/stats.h"
#include "src/util/counters.h"
#include "src/util/fault.h"
#include "src/util/hash.h"
#include "src/util/log.h"
#include "src/util/strings.h"
#include "src/util/trace.h"
#include "src/util/workpool.h"

namespace snowboard {

namespace {

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  double seconds = std::chrono::duration<double>(b - a).count();
  return seconds > 0 ? seconds : 0;
}

// Opens the campaign's checkpoint store, or null when checkpointing is off/unavailable.
// The store is internally synchronized, so one handle may serve every stage and worker.
std::unique_ptr<CheckpointStore> OpenStore(const PipelineOptions& options) {
  if (options.checkpoint_dir.empty()) {
    return nullptr;
  }
  auto store = std::make_unique<CheckpointStore>(options.checkpoint_dir, options.fault);
  if (!store->ok()) {
    SB_LOG(kWarn) << "checkpoint: store unavailable at " << options.checkpoint_dir
                  << "; running without checkpoints";
    return nullptr;
  }
  store->SetJournalBatch(options.journal_flush_records > 0
                             ? static_cast<size_t>(options.journal_flush_records)
                             : 1);
  return store;
}

// Hash of every option that shapes the pipeline's deterministic outputs. num_workers,
// checkpointing, and fault injection are deliberately excluded: a campaign may be resumed
// with a different worker count (the determinism invariant guarantees identical results),
// but any fingerprint mismatch means the directory's artifacts answer a different question
// and must be discarded.
uint64_t OptionsFingerprint(const PipelineOptions& o) {
  return HashAll(o.seed, o.corpus.seed, o.corpus.max_iterations, o.corpus.target_size,
                 o.corpus.use_seeds, o.pmc.max_keys_per_address, o.pmc.max_pmcs,
                 static_cast<uint64_t>(o.strategy), o.max_concurrent_tests,
                 o.explorer.num_trials, o.explorer.seed, o.explorer.max_instructions,
                 o.explorer.target_issue, o.explorer.max_trial_retries,
                 o.explorer.minimize_schedules, o.explorer.detectors,
                 o.explorer.prune.enabled, o.explorer.prune.saturation_window);
}

// --- Stage computations -----------------------------------------------------------------

// Corpus construction: admission is a serial fold over the shared coverage map (each admit
// changes what counts as fresh for every later candidate), so it runs on one VM.
std::vector<Program> ComputeCorpus(KernelVm& vm, const PipelineOptions& options) {
  CorpusOptions corpus_options = options.corpus;
  corpus_options.seed = corpus_options.seed ^ options.seed;
  return CorpusPrograms(BuildCorpus(vm, corpus_options));
}

// Test generation for the campaign's strategy: the pairing baselines need only the corpus;
// PMC strategies cluster the identified table and select exemplar pairs.
SerializedTests ComputeTests(const std::vector<Program>& corpus,
                             const std::vector<Pmc>& pmcs, const PipelineOptions& options) {
  SerializedTests out;
  if (!StrategyUsesPmcs(options.strategy)) {
    out.tests = options.strategy == Strategy::kRandomPairing
                    ? GenerateRandomPairs(corpus, options.max_concurrent_tests, options.seed)
                    : GenerateDuplicatePairs(corpus, options.max_concurrent_tests,
                                             options.seed);
    return out;
  }
  std::vector<PmcCluster> clusters = ClusterPmcs(pmcs, options.strategy);
  out.cluster_count = clusters.size();
  SelectOptions select;
  select.seed = options.seed * 0x9e3779b9ull + 17;
  select.max_tests = options.max_concurrent_tests;
  select.randomize_cluster_order = options.strategy == Strategy::kRandomSInsPair;
  out.tests = SelectConcurrentTests(pmcs, clusters, corpus, select);
  return out;
}

// --- Stage definitions (artifact.h) -----------------------------------------------------

StageDef<std::vector<Program>> CorpusStageDef() {
  StageDef<std::vector<Program>> def;
  def.entry = "corpus";
  def.serialize = [](const std::vector<Program>& corpus) { return SerializeCorpus(corpus); };
  def.deserialize = [](const std::string& text) { return DeserializeCorpus(text); };
  return def;
}

StageDef<std::vector<SequentialProfile>> ProfilesStageDef(
    const std::vector<Program>& corpus) {
  StageDef<std::vector<SequentialProfile>> def;
  def.entry = "profiles";
  def.serialize = [](const std::vector<SequentialProfile>& profiles) {
    return SerializeProfiles(profiles);
  };
  def.deserialize = [](const std::string& text) { return DeserializeProfiles(text); };
  // A profile set for a different corpus (size mismatch) is stale, not corrupt.
  def.validate = [&corpus](const std::vector<SequentialProfile>& profiles) {
    return profiles.size() == corpus.size();
  };
  return def;
}

StageDef<std::vector<Pmc>> PmcsStageDef() {
  StageDef<std::vector<Pmc>> def;
  def.entry = "pmcs";
  def.serialize = [](const std::vector<Pmc>& pmcs) { return SerializePmcs(pmcs); };
  def.deserialize = [](const std::string& text) { return DeserializePmcs(text); };
  return def;
}

StageDef<SerializedTests> TestsStageDef(const PipelineOptions& options) {
  StageDef<SerializedTests> def;
  def.entry = std::string("tests.") + StrategyName(options.strategy);
  def.serialize = [](const SerializedTests& tests) {
    return SerializeConcurrentTests(tests.tests, tests.cluster_count);
  };
  def.deserialize = [](const std::string& text) { return DeserializeConcurrentTests(text); };
  return def;
}

StageDef<PipelineResult> ResultStageDef(const PipelineOptions& options) {
  StageDef<PipelineResult> def;
  def.entry = std::string("result.") + StrategyName(options.strategy);
  def.serialize = [](const PipelineResult& result) { return SerializePipelineResult(result); };
  def.deserialize = [](const std::string& text) { return DeserializePipelineResult(text); };
  return def;
}

// --- Execution helpers ------------------------------------------------------------------

// Pre-parses the execution journal into a by-index replay table. ReadJournal has already
// stopped at the first torn or corrupt line, so every record it returns is checksum-valid.
// Two kinds of record are dropped, counted in
// GlobalPipelineCounters().journal_records_dropped, and warned about once per build: one
// that does not decode (another record format wrote it) and one whose test index is
// outside the current test list (a mismatched journal would otherwise silently masquerade
// as progress). Their tests re-execute.
std::vector<std::optional<OutcomeRecord>> BuildJournalTable(const StageRunner& runner,
                                                            const std::string& journal_name,
                                                            size_t num_tests) {
  std::vector<std::optional<OutcomeRecord>> journaled(num_tests);
  if (runner.store() == nullptr || !runner.resume()) {
    return journaled;
  }
  size_t undecodable = 0;
  size_t out_of_range = 0;
  for (const std::string& record : runner.store()->ReadJournal(journal_name)) {
    std::optional<OutcomeRecord> decoded = DecodeOutcomeRecord(record);
    if (!decoded.has_value()) {
      undecodable++;
      continue;
    }
    if (decoded->test_index >= num_tests) {
      out_of_range++;
      continue;
    }
    size_t index = decoded->test_index;
    journaled[index] = std::move(*decoded);
  }
  ActiveCounters().journal_records_dropped.fetch_add(undecodable + out_of_range,
                                                     std::memory_order_relaxed);
  if (undecodable > 0) {
    SB_LOG(kWarn) << "checkpoint: dropped " << undecodable << " journal record(s) of "
                  << journal_name << " that do not decode (written by another record "
                  << "format?); their tests re-execute";
  }
  if (out_of_range > 0) {
    SB_LOG(kWarn) << "checkpoint: dropped " << out_of_range << " journal record(s) of "
                  << journal_name << " with test indices past the " << num_tests
                  << "-test list (journal belongs to a different test set?)";
  }
  return journaled;
}

// Executes one live (non-journaled) concurrent test on `vm` and journals its outcome.
// Returns nullopt when an injected crash fired mid-test or at the journal append: the
// record then "never existed" in this process and only the on-disk journal decides what
// survived.
std::optional<OutcomeRecord> RunOneExploreTest(KernelVm& vm, const ConcurrentTest& test,
                                               size_t index, bool use_pmc_hints,
                                               const PmcMatcher* matcher,
                                               const PipelineOptions& options,
                                               const StageRunner& runner,
                                               const std::string& journal_name) {
  ExplorerOptions explorer = options.explorer;
  // Per-test seed derived from the test index: trial schedules are independent of which
  // worker runs the test and in what order.
  explorer.seed = options.explorer.seed + index * 1000003ull;
  explorer.fault = runner.fault();
  ExploreOutcome outcome;
  if (use_pmc_hints) {
    outcome = ExploreConcurrentTest(vm, test, matcher, explorer);
  } else {
    RandomPreemptScheduler scheduler;
    outcome = ExploreWithScheduler(vm, test, scheduler, /*check_channel=*/false, explorer);
  }
  if (runner.dead()) {
    return std::nullopt;  // The trial loop died mid-test; its partial outcome never existed.
  }
  // The record keeps exactly what the fold reads; the rest of the outcome dies here.
  OutcomeRecord record;
  record.test_index = index;
  record.trials_run = outcome.trials_run;
  record.trials_retried = outcome.trials_retried;
  record.trials_pruned = outcome.trials_pruned;
  record.saturated = outcome.saturated;
  record.switch_decisions = outcome.switch_decisions;
  record.bug_found = outcome.bug_found;
  record.channel_exercised = outcome.channel_exercised;
  for (const FindingRecord& finding : outcome.findings) {
    record.schedule_switches_orig += finding.orig_switches;
    record.schedule_switches_min += finding.min_switches;
  }
  record.findings = ExtractFindings(test, outcome, index, explorer);
  if (runner.store() != nullptr) {
    runner.store()->AppendJournal(journal_name, EncodeOutcomeRecord(record));
    if (runner.dead()) {
      return std::nullopt;  // Died at the append; the on-disk journal decides what survived.
    }
  }
  ActiveCounters().concurrent_tests_run.fetch_add(1, std::memory_order_relaxed);
  return record;
}

// Folds per-test outcome slots into the result in test-index order. FindingsLog::Merge
// keeps the lowest-test-index finding per issue, so merging the per-test logs in index
// order keeps the same first finding per issue as recording every finding in that order —
// which is what makes the fold byte-identical across worker counts. Empty slots (tests
// never run because an injected crash fired first) are skipped.
void FoldExploreOutcomes(const std::vector<std::optional<OutcomeRecord>>& outcomes,
                         const std::vector<uint8_t>& resumed, PipelineResult* result) {
  for (size_t i = 0; i < outcomes.size(); i++) {
    if (!outcomes[i].has_value()) {
      continue;
    }
    const OutcomeRecord& record = *outcomes[i];
    result->tests_executed++;
    result->total_trials += static_cast<uint64_t>(record.trials_run);
    result->trials_retried += static_cast<uint64_t>(record.trials_retried);
    result->trials_pruned += static_cast<uint64_t>(record.trials_pruned);
    result->switch_decisions += record.switch_decisions;
    if (record.saturated) {
      result->tests_saturated++;
    }
    if (record.bug_found) {
      result->tests_with_bug++;
    }
    if (record.channel_exercised) {
      result->channel_exercised++;
    }
    if (resumed[i]) {
      result->tests_resumed++;
    }
    result->schedule_switches_orig += record.schedule_switches_orig;
    result->schedule_switches_min += record.schedule_switches_min;
    result->findings.Merge(record.findings);
  }
}

// --- The campaign engine ----------------------------------------------------------------

// Runs a campaign as one pool job over a dependency DAG of work items instead of a
// sequence of stage barriers:
//
//   corpus ──► profile[i] ──► fold (in corpus order) ──► finish ──► scan[p] ──► merge
//      │                                                                         │
//      └────────────► generate (baselines)            generate (PMC) ◄───────────┘
//                          │                                │
//                          └──────────► explore[t] ◄────────┘
//
// Workers claim whatever is runnable; completed profiles fold into the PmcAccumulator
// while the profile tail is still executing, and exploration starts the moment the test
// list (and, for PMC strategies, the matcher) resolves — for the pairing baselines and for
// resumes whose test list is checkpointed, that genuinely overlaps the profile tail.
//
// Three entries share the one DAG: RunSnowboardPipeline runs it from the furthest
// checkpointed frontier through exploration, PrepareCampaign stops once the PMC table
// resolves, and ExecuteCampaign starts at the explore frontier with the caller's tests.
//
// Determinism comes from pinned fold orders, not from the schedule: profiles fold strictly
// in corpus-index order (single folder at a time, advancing over the completed prefix),
// partition scans write partition-exclusive slices merged in partition order, and explore
// outcomes land in per-test slots folded in index order. The scheduling freedom the DAG
// adds therefore never reaches a deterministic output, which the checked-in goldens under
// tests/corpus/ lock in at 1/2/4/8 workers.
//
// Fault injection: claiming a pre-explore item passes the "pool.claim" fault point,
// executing an explore item passes "execute.claim" (once per executed test, never per
// claim attempt), and explorer trials pass their own sites inside the explorer.
// An injected crash flips `crashed_`; every worker unwinds at its next claim, exactly as a
// SIGKILL would.
class CampaignEngine {
 public:
  // How far Run() takes the DAG.
  enum class Goal {
    kPmcs,     // Stop once corpus, profiles, and the PMC table have resolved.
    kExplore,  // Run through exploration.
  };

  CampaignEngine(const PipelineOptions& options, CheckpointStore* store, Goal goal)
      : options_(options),
        runner_(store, options.fault, options.resume),
        goal_(goal),
        use_pmc_(StrategyUsesPmcs(options.strategy)),
        journal_name_(std::string("execute.") + StrategyName(options.strategy)),
        accumulator_(options.pmc) {
    t_start_ = std::chrono::steady_clock::now();
    t_corpus_ = t_profiles_ = t_pmcs_ = t_tests_ = t_start_;
    restore_mark_corpus_ = restore_mark_profiles_ = restore_mark_tests_ = RestoreNanos();
  }

  // Seeds the DAG at the explore frontier: every pre-explore stage counts as resolved and
  // `tests` is the test list, explored with `matcher` (may be null) when `use_pmc_hints`.
  // The journal replay table is built from the store exactly as on resume.
  void StartAtExplore(const std::vector<ConcurrentTest>& tests, bool use_pmc_hints,
                      const PmcMatcher* matcher) {
    std::lock_guard<std::mutex> lock(mu_);
    start_at_explore_ = true;
    use_pmc_ = use_pmc_hints;
    matcher_ = matcher;
    corpus_done_ = profiles_complete_ = pmcs_done_ = true;
    TestsResolvedLocked(SerializedTests{tests, 0});
  }

  void Run() {
    // perfbench's ledger keys the campaign window on this span name.
    TRACE_SPAN("engine.streaming");
    if (!start_at_explore_) {
      ResolveFromCheckpoint();
    }
    bool all_done;
    {
      std::lock_guard<std::mutex> lock(mu_);
      all_done = AllDoneLocked();
    }
    if (!all_done && !runner_.dead()) {
      WorkerPool::Global().Run(options_.ResolvedWorkers(),
                               [this](PoolWorker& worker) { WorkerLoop(worker); });
    }
    // Claim boundary: every outcome the explore stage journaled becomes durable before the
    // campaign result is assembled (and before the result entry can be persisted).
    if (runner_.store() != nullptr) {
      runner_.store()->FlushJournals();
    }
  }

  // The whole campaign's statistics (RunSnowboardPipeline).
  void Fill(PipelineResult* result) {
    result->corpus_size = corpus_.size();
    for (const SequentialProfile& profile : profiles_) {
      if (profile.ok) {
        result->profiled_ok++;
        result->shared_accesses += profile.accesses.size();
      }
    }
    result->pmc_count = pmcs_.size();
    for (const Pmc& pmc : pmcs_) {
      result->total_pmc_pairs += pmc.total_pairs;
    }
    result->pmc_table_digest = PmcTableDigest(pmcs_);
    result->cluster_count = cluster_count_;
    result->tests_generated = tests_.size();
    // Stage timings are event-window attributions: each stage is charged the wall-clock
    // between its predecessor's completion event and its own. When stages overlap (explore
    // running during the profile tail) the windows overlap too, so the per-stage columns
    // no longer sum to the campaign wall-clock — by design. The same windows attribute the
    // snapshot-restore counter deltas. None of these fields are serialized.
    result->corpus_seconds = SecondsBetween(t_start_, t_corpus_);
    result->profile_seconds = SecondsBetween(t_corpus_, t_profiles_);
    result->identify_seconds = SecondsBetween(t_profiles_, t_pmcs_);
    result->cluster_seconds = SecondsBetween(t_pmcs_, t_tests_);
    result->profile_restore_seconds = ProfileRestoreSeconds();
    FoldExplore(result);
  }

  // Execution statistics and findings plus the explore window's timings. Accumulates, so
  // callers may fold several ExecuteCampaign runs into one result.
  void FoldExplore(PipelineResult* result) {
    FoldExploreOutcomes(outcomes_, resumed_, result);
    result->execute_seconds += SecondsBetween(t_tests_, std::chrono::steady_clock::now());
    result->execute_restore_seconds +=
        static_cast<double>(RestoreNanos() - restore_mark_tests_) * 1e-9;
  }

  // The resolved pre-explore artifacts (PrepareCampaign).
  void TakePrepared(PreparedCampaign* campaign) {
    campaign->corpus = std::move(corpus_);
    campaign->profiles = std::move(profiles_);
    campaign->pmcs = std::move(pmcs_);
    campaign->corpus_seconds = SecondsBetween(t_start_, t_corpus_);
    campaign->profile_seconds = SecondsBetween(t_corpus_, t_profiles_);
    campaign->profile_restore_seconds = ProfileRestoreSeconds();
    campaign->identify_seconds = SecondsBetween(t_profiles_, t_pmcs_);
  }

 private:
  enum class Kind {
    kNone,
    kCorpus,          // Build (or it was loaded) the corpus.
    kProfile,         // Profile corpus[arg].
    kFold,            // Fold completed profiles into the accumulator, in corpus order.
    kFinishProfiles,  // Persist profiles, seal + partition the access index.
    kScan,            // Overlap-scan partition arg.
    kMergePmcs,       // Merge partition slices, persist the PMC table.
    kGenerate,        // Cluster/select (or pair) the test list, build replay table.
    kExplore,         // Execute (or replay) test arg.
  };
  struct Item {
    Kind kind = Kind::kNone;
    size_t arg = 0;
  };

  static uint64_t RestoreNanos() {
    return GlobalPipelineCounters().snapshot_restore_nanos.load(std::memory_order_relaxed);
  }

  double ProfileRestoreSeconds() const {
    return static_cast<double>(restore_mark_profiles_ - restore_mark_corpus_) * 1e-9;
  }

  // Up-front checkpoint resolution on the caller thread: loads run before any worker
  // starts, so the DAG begins from the furthest checkpointed frontier.
  void ResolveFromCheckpoint() {
    std::lock_guard<std::mutex> lock(mu_);
    if (std::optional<std::vector<Program>> corpus = runner_.TryLoad(CorpusStageDef())) {
      corpus_ = std::move(*corpus);
      corpus_loaded_ = true;
      CorpusResolvedLocked();
    }
    if (corpus_loaded_) {
      // Profiles are only trusted against a loaded corpus (their staleness gate needs the
      // exact corpus they were computed from).
      if (std::optional<std::vector<SequentialProfile>> profiles =
              runner_.TryLoad(ProfilesStageDef(corpus_))) {
        profiles_ = std::move(*profiles);
        profiles_loaded_ = true;
        profile_next_ = profiles_.size();
        std::fill(profile_done_.begin(), profile_done_.end(), uint8_t{1});
      }
    }
    if (std::optional<std::vector<Pmc>> pmcs = runner_.TryLoad(PmcsStageDef())) {
      pmcs_ = std::move(*pmcs);
      // The identified table is settled: profiles (loaded or recomputed) only feed stats,
      // so the fold machinery runs but skips the accumulator.
      fold_into_accumulator_ = false;
      PmcsResolvedLocked();
    }
    if (goal_ == Goal::kExplore) {
      if (std::optional<SerializedTests> tests = runner_.TryLoad(TestsStageDef(options_))) {
        TestsResolvedLocked(std::move(*tests));
      }
    }
  }

  void WorkerLoop(PoolWorker& worker) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (crashed_.load(std::memory_order_acquire) || AllDoneLocked()) {
        return;
      }
      if (explore_only_) {
        // Every remaining item is an explore: stop taking mu_ per claim and drain the
        // test list with an atomic cursor instead.
        lock.unlock();
        DrainExplore(worker);
        return;
      }
      Item item = ClaimLocked();
      if (item.kind == Kind::kNone) {
        cv_.wait(lock);
        continue;
      }
      lock.unlock();
      // Claiming real pre-explore work is a "pool.claim" kill point. The coordination
      // items (fold / finish / merge) are deliberately NOT fault points: how many times
      // they are claimed depends on thread timing, and the crash-sweep harness needs the
      // campaign's total fault-point count to be deterministic. Their crash coverage comes
      // from the fs.commit points inside the artifacts they persist.
      FaultInjector* fault = runner_.fault();
      bool countable_claim = item.kind == Kind::kCorpus || item.kind == Kind::kProfile ||
                             item.kind == Kind::kScan || item.kind == Kind::kGenerate;
      if (fault != nullptr && countable_claim && fault->At("pool.claim")) {
        CrashOut();
        return;
      }
      if (!Execute(item, worker)) {
        CrashOut();
        return;
      }
      // Item boundary: drain this worker's counter shard so the cross-stage restore-time
      // marks (RestoreNanos reads the global block mid-job) stay item-accurate.
      FlushCounterShard();
      lock.lock();
    }
  }

  // The steady-state explore loop, entered once explore_only_ holds: claim by atomic
  // fetch_add, no mutex anywhere on the per-test path. Overshooting cursors are harmless —
  // every claim is bounds-checked, and an index past the list just ends the worker's loop.
  void DrainExplore(PoolWorker& worker) {
    for (;;) {
      if (crashed_.load(std::memory_order_acquire)) {
        return;
      }
      size_t index = explore_next_.fetch_add(1, std::memory_order_relaxed);
      if (index >= tests_.size()) {
        return;
      }
      if (!ExploreClaimed(worker, index)) {
        CrashOut();
        return;
      }
      FlushCounterShard();  // Item boundary, as in the locked loop.
    }
  }

  // Executes (or replays from the journal) one claimed explore test into its slot. Writes
  // only slot `index` of outcomes_/resumed_ (slot-exclusive, so no locking). The
  // "execute.claim" kill point fires here, before an actual execution — never on a claim
  // attempt, whose timing-dependent occurrence would make the fault-point count depend on
  // the worker count. False means the worker must unwind (crash raised here or
  // elsewhere).
  bool ExploreClaimed(PoolWorker& worker, size_t index) {
    FaultInjector* fault = runner_.fault();
    if (fault != nullptr && fault->At("execute.claim")) {
      return false;
    }
    TRACE_SPAN("explore.test", index);
    if (journaled_[index].has_value()) {
      // Replayed from the journal: no VM involved (a fully journaled resume therefore
      // never boots one).
      outcomes_[index] = journaled_[index];
      resumed_[index] = 1;
      ActiveCounters().tests_resumed.fetch_add(1, std::memory_order_relaxed);
    } else {
      std::optional<OutcomeRecord> record =
          RunOneExploreTest(PoolWorkerVm(worker), tests_[index], index, use_pmc_, matcher_,
                            options_, runner_, journal_name_);
      if (!record.has_value()) {
        return false;
      }
      outcomes_[index] = std::move(*record);
    }
    // No wake-up needed: explore_only_ (set, with a notify, before the last explore can
    // finish) keeps every worker out of cv_.wait, and each re-checks AllDone on its own.
    explores_done_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void CrashOut() {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_.store(true, std::memory_order_release);
    cv_.notify_all();
  }

  bool AllDoneLocked() const {
    bool prepared = corpus_done_ && profiles_complete_ && pmcs_done_;
    if (goal_ == Goal::kPmcs) {
      return prepared;
    }
    return prepared && tests_ready_ && explores_done_ == tests_.size();
  }

  // Caller holds mu_. Once every pre-explore stage has resolved, ClaimLocked can only ever
  // hand out kExplore items — flag it so workers switch to the lock-free drain. The
  // notify_all wakes workers parked in cv_.wait so none sleeps through the transition.
  void UpdateExploreOnlyLocked() {
    if (!explore_only_ && corpus_done_ && profiles_complete_ && pmcs_done_ && tests_ready_) {
      explore_only_ = true;
      cv_.notify_all();
    }
  }

  // Work-claiming priority: cheap unblocking transitions first, then the long-running VM
  // items. Profile items outrank explore items so the profile tail drains at full width;
  // explore picks up the slack once fewer profiles remain than workers.
  Item ClaimLocked() {
    if (!corpus_done_ && !corpus_claimed_) {
      corpus_claimed_ = true;
      return {Kind::kCorpus, 0};
    }
    if (corpus_done_ && !profiles_complete_) {
      if (!folding_ && fold_next_ < profiles_.size() && profile_done_[fold_next_]) {
        folding_ = true;
        return {Kind::kFold, 0};
      }
      if (!finish_profiles_claimed_ && !folding_ && fold_next_ == profiles_.size()) {
        finish_profiles_claimed_ = true;
        return {Kind::kFinishProfiles, 0};
      }
    }
    if (profiles_complete_ && fold_into_accumulator_ && !pmcs_done_ && !merge_claimed_ &&
        scans_done_ == num_partitions_) {
      merge_claimed_ = true;
      return {Kind::kMergePmcs, 0};
    }
    if (goal_ == Goal::kExplore && !tests_resolved_ && !generate_claimed_ && corpus_done_ &&
        (!use_pmc_ || pmcs_done_)) {
      generate_claimed_ = true;
      return {Kind::kGenerate, 0};
    }
    if (scan_ready_ && scan_next_ < num_partitions_) {
      return {Kind::kScan, scan_next_++};
    }
    if (corpus_done_ && !profiles_loaded_ && profile_next_ < corpus_.size()) {
      return {Kind::kProfile, profile_next_++};
    }
    if (tests_ready_) {
      // fetch_add (not load-then-store) because lock-free drainers may be bumping the
      // cursor concurrently with this locked path during the handover window. A claim past
      // the end is not an item; the cursor only ever moves forward, so overshoot is safe.
      size_t index = explore_next_.fetch_add(1, std::memory_order_relaxed);
      if (index < tests_.size()) {
        return {Kind::kExplore, index};
      }
    }
    return {Kind::kNone, 0};
  }

  bool Execute(Item item, PoolWorker& worker) {
    switch (item.kind) {
      case Kind::kCorpus:
        return ExecuteCorpus(worker);
      case Kind::kProfile:
        return ExecuteProfile(worker, item.arg);
      case Kind::kFold:
        return ExecuteFold();
      case Kind::kFinishProfiles:
        return ExecuteFinishProfiles();
      case Kind::kScan:
        return ExecuteScan(item.arg);
      case Kind::kMergePmcs:
        return ExecuteMergePmcs();
      case Kind::kGenerate:
        return ExecuteGenerate();
      case Kind::kExplore:
        return ExploreClaimed(worker, item.arg);
      case Kind::kNone:
        break;
    }
    return true;
  }

  // Caller holds mu_. Sizes the profile plumbing and stamps the corpus event.
  void CorpusResolvedLocked() {
    corpus_done_ = true;
    profiles_.resize(corpus_.size());
    profile_done_.assign(corpus_.size(), 0);
    t_corpus_ = std::chrono::steady_clock::now();
    restore_mark_corpus_ = RestoreNanos();
    TRACE_COUNTER("funnel.corpus_programs", corpus_.size());
    UpdateExploreOnlyLocked();
    cv_.notify_all();
  }

  bool ExecuteCorpus(PoolWorker& worker) {
    std::vector<Program> corpus = ComputeCorpus(PoolWorkerVm(worker), options_);
    runner_.Persist(CorpusStageDef(), corpus);
    if (runner_.dead()) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    corpus_ = std::move(corpus);
    CorpusResolvedLocked();
    return true;
  }

  bool ExecuteProfile(PoolWorker& worker, size_t index) {
    ProfileOptions profile_options;
    profile_options.cache = options_.profile_cache;
    SequentialProfile profile =
        ProfileTestCached(PoolWorkerVm(worker), corpus_[index], static_cast<int>(index),
                          profile_options);
    std::lock_guard<std::mutex> lock(mu_);
    profiles_[index] = std::move(profile);
    profile_done_[index] = 1;
    cv_.notify_all();  // A folder (or the finish item) may now be claimable.
    return true;
  }

  // Folds the completed prefix of profiles into the accumulator, strictly in corpus-index
  // order — the exact AddProfile order the batch IdentifyPmcs uses, which is what keeps
  // the incremental side tables byte-identical. `folding_` makes this a single-consumer
  // loop; the fold itself runs outside the lock.
  bool ExecuteFold() {
    for (;;) {
      size_t index;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (fold_next_ >= profiles_.size() || !profile_done_[fold_next_]) {
          folding_ = false;
          cv_.notify_all();  // kFinishProfiles may now be claimable.
          return true;
        }
        index = fold_next_;
      }
      if (fold_into_accumulator_) {
        accumulator_.AddProfile(profiles_[index]);
      }
      std::lock_guard<std::mutex> lock(mu_);
      fold_next_++;
    }
  }

  bool ExecuteFinishProfiles() {
    if (!profiles_loaded_) {
      runner_.Persist(ProfilesStageDef(corpus_), profiles_);
      if (runner_.dead()) {
        return false;
      }
    }
    size_t num_partitions = 0;
    if (fold_into_accumulator_) {
      accumulator_.Seal();
      num_partitions = accumulator_.PlanPartitions(options_.ResolvedWorkers());
    }
    std::lock_guard<std::mutex> lock(mu_);
    profiles_complete_ = true;
    num_partitions_ = num_partitions;
    scan_ready_ = fold_into_accumulator_ && num_partitions_ > 0;
    t_profiles_ = std::chrono::steady_clock::now();
    restore_mark_profiles_ = RestoreNanos();
    UpdateExploreOnlyLocked();
    cv_.notify_all();
    return true;
  }

  bool ExecuteScan(size_t partition) {
    accumulator_.ScanPartition(partition);
    std::lock_guard<std::mutex> lock(mu_);
    scans_done_++;
    cv_.notify_all();  // The merge item becomes claimable after the last scan.
    return true;
  }

  // Caller holds mu_. Stamps the PMC event and checks whether explore can open.
  void PmcsResolvedLocked() {
    pmcs_done_ = true;
    t_pmcs_ = std::chrono::steady_clock::now();
    TRACE_COUNTER("funnel.pmcs_identified", pmcs_.size());
    MaybeTestsReadyLocked();
    UpdateExploreOnlyLocked();
    cv_.notify_all();
  }

  bool ExecuteMergePmcs() {
    std::vector<Pmc> pmcs = accumulator_.Merge();
    runner_.Persist(PmcsStageDef(), pmcs);
    if (runner_.dead()) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    pmcs_ = std::move(pmcs);
    PmcsResolvedLocked();
    return true;
  }

  // Caller holds mu_. Installs the resolved test list and its replay plumbing.
  void TestsResolvedLocked(SerializedTests tests) {
    tests_ = std::move(tests.tests);
    cluster_count_ = tests.cluster_count;
    tests_resolved_ = true;
    outcomes_.resize(tests_.size());
    resumed_.assign(tests_.size(), 0);
    journaled_ = BuildJournalTable(runner_, journal_name_, tests_.size());
    if (!start_at_explore_) {
      TRACE_COUNTER("funnel.clusters", cluster_count_);
      TRACE_COUNTER("funnel.tests_generated", tests_.size());
    }
    MaybeTestsReadyLocked();
    UpdateExploreOnlyLocked();
    cv_.notify_all();
  }

  // Caller holds mu_. Explore opens once the test list is resolved AND its scheduler
  // input is settled: PMC strategies need the matcher, which needs the final PMC table.
  void MaybeTestsReadyLocked() {
    if (tests_ready_ || !tests_resolved_ || (use_pmc_ && !pmcs_done_)) {
      return;
    }
    if (use_pmc_ && !start_at_explore_) {
      own_matcher_.emplace(&pmcs_);
      matcher_ = &*own_matcher_;
    }
    tests_ready_ = true;
    t_tests_ = std::chrono::steady_clock::now();
    restore_mark_tests_ = RestoreNanos();
  }

  bool ExecuteGenerate() {
    SerializedTests tests = ComputeTests(corpus_, pmcs_, options_);
    runner_.Persist(TestsStageDef(options_), tests);
    if (runner_.dead()) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    TestsResolvedLocked(std::move(tests));
    return true;
  }

  const PipelineOptions& options_;
  StageRunner runner_;
  const Goal goal_;
  bool use_pmc_;
  const std::string journal_name_;
  bool start_at_explore_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  // Atomic (not mu_-guarded) so the lock-free explore drain can observe a crash raised by
  // another worker without touching the mutex.
  std::atomic<bool> crashed_{false};

  // Corpus.
  bool corpus_claimed_ = false;
  bool corpus_loaded_ = false;
  bool corpus_done_ = false;
  std::vector<Program> corpus_;

  // Profiles. `profiles_`/`profile_done_` slots are written by the claiming worker and
  // read by the folder; the mutex around the done flags orders the handoff.
  bool profiles_loaded_ = false;
  size_t profile_next_ = 0;
  std::vector<SequentialProfile> profiles_;
  std::vector<uint8_t> profile_done_;
  bool folding_ = false;
  size_t fold_next_ = 0;
  bool finish_profiles_claimed_ = false;
  bool profiles_complete_ = false;

  // Identification.
  PmcAccumulator accumulator_;
  bool fold_into_accumulator_ = true;  // false when the PMC table was checkpoint-loaded.
  bool scan_ready_ = false;
  size_t num_partitions_ = 0;
  size_t scan_next_ = 0;
  size_t scans_done_ = 0;
  bool merge_claimed_ = false;
  bool pmcs_done_ = false;
  std::vector<Pmc> pmcs_;

  // Tests.
  bool generate_claimed_ = false;
  bool tests_resolved_ = false;
  bool tests_ready_ = false;
  size_t cluster_count_ = 0;
  std::vector<ConcurrentTest> tests_;
  // The explore scheduler's matcher: built over pmcs_ for a PMC-strategy campaign, or the
  // caller's under StartAtExplore.
  std::optional<PmcMatcher> own_matcher_;
  const PmcMatcher* matcher_ = nullptr;
  std::vector<std::optional<OutcomeRecord>> journaled_;

  // Explore. The claim cursor and done count are atomics so that the steady-state explore
  // loop — the campaign's hot path once every pre-explore stage has resolved — hands out
  // work with one uncontended fetch_add instead of a mutex round trip (see DrainExplore).
  // Each claimed index owns its outcomes_/resumed_ slot exclusively, and the final fold
  // reads them only after the pool job joins.
  std::atomic<size_t> explore_next_{0};
  std::atomic<size_t> explores_done_{0};
  // True once corpus, profiles, PMCs, and the test list have all resolved: from then on
  // kExplore items are the only claimable work, so workers leave the locked claim loop for
  // the lock-free drain. Guarded by mu_; monotonic (never unset).
  bool explore_only_ = false;
  std::vector<std::optional<OutcomeRecord>> outcomes_;
  std::vector<uint8_t> resumed_;

  // Event timestamps (stage-attribution windows; see Fill).
  std::chrono::steady_clock::time_point t_start_, t_corpus_, t_profiles_, t_pmcs_, t_tests_;
  uint64_t restore_mark_corpus_ = 0;
  uint64_t restore_mark_profiles_ = 0;
  uint64_t restore_mark_tests_ = 0;
};

}  // namespace

PreparedCampaign PrepareCampaign(const PipelineOptions& options) {
  std::unique_ptr<CheckpointStore> store = OpenStore(options);
  CampaignEngine engine(options, store.get(), CampaignEngine::Goal::kPmcs);
  engine.Run();
  PreparedCampaign campaign;
  engine.TakePrepared(&campaign);
  return campaign;
}

std::vector<ConcurrentTest> GenerateTestsForStrategy(const PreparedCampaign& campaign,
                                                     const PipelineOptions& options,
                                                     size_t* cluster_count_out) {
  std::unique_ptr<CheckpointStore> store = OpenStore(options);
  StageRunner runner(store.get(), options.fault, options.resume);
  const StageDef<SerializedTests> def = TestsStageDef(options);
  std::optional<SerializedTests> tests = runner.TryLoad(def);
  if (!tests.has_value()) {
    tests = ComputeTests(campaign.corpus, campaign.pmcs, options);
    runner.Persist(def, *tests);
  }
  if (cluster_count_out != nullptr) {
    *cluster_count_out = tests->cluster_count;
  }
  return std::move(tests->tests);
}

void ExecuteCampaign(const std::vector<ConcurrentTest>& tests, bool use_pmc_hints,
                     const PmcMatcher* matcher, const PipelineOptions& options,
                     PipelineResult* result) {
  std::unique_ptr<CheckpointStore> store = OpenStore(options);
  CampaignEngine engine(options, store.get(), CampaignEngine::Goal::kExplore);
  engine.StartAtExplore(tests, use_pmc_hints, matcher);
  engine.Run();
  engine.FoldExplore(result);
}

PipelineResult RunSnowboardPipeline(const PipelineOptions& options) {
  TRACE_SPAN("pipeline.campaign");
  PipelineResult result;
  const StageDef<PipelineResult> result_def = ResultStageDef(options);
  std::unique_ptr<CheckpointStore> store = OpenStore(options);
  StageRunner runner(store.get(), options.fault, options.resume);

  // Checkpoint-directory admission: the guard entry pins the options fingerprint. A fresh
  // run, or a directory written under different options, is reset before any stage can
  // load a stale artifact. A resumed run whose final result already committed skips every
  // stage outright.
  if (store != nullptr) {
    const std::string guard =
        StrPrintf("snowboard-campaign-v1\nfingerprint %016llx\n",
                  static_cast<unsigned long long>(OptionsFingerprint(options)));
    std::optional<std::string> existing = store->Get("campaign");
    if (!options.resume || !existing.has_value() || *existing != guard) {
      if (options.resume && existing.has_value()) {
        SB_LOG(kWarn) << "checkpoint: directory " << options.checkpoint_dir
                      << " belongs to a different campaign configuration; resetting";
      }
      store->Reset();
      store->Put("campaign", guard);
    } else if (std::optional<PipelineResult> done = runner.TryLoad(result_def)) {
      done->tests_resumed = done->tests_executed;
      GlobalPipelineCounters().tests_resumed.fetch_add(done->tests_executed,
                                                       std::memory_order_relaxed);
      SB_LOG(kInfo) << StrategyName(options.strategy)
                    << ": resumed from completed checkpoint (" << done->tests_executed
                    << " tests)";
      return *done;
    }
  }
  if (runner.dead()) {
    return result;
  }

  CampaignEngine engine(options, store.get(), CampaignEngine::Goal::kExplore);
  engine.Run();
  engine.Fill(&result);
  if (runner.dead()) {
    return result;
  }
  TRACE_COUNTER("funnel.tests_with_findings", result.tests_with_bug);
  TRACE_COUNTER("funnel.findings_total", result.findings.total_findings());

  runner.Persist(result_def, result);
  if (runner.dead()) {
    return result;
  }

  SB_LOG(kInfo) << StrategyName(options.strategy) << ": " << result.tests_executed
                << " tests executed, " << result.findings.first_findings().size()
                << " distinct findings";
  return result;
}

FindingsLog ExtractFindings(const ConcurrentTest& test, const ExploreOutcome& outcome,
                            size_t test_index, const ExplorerOptions& explorer) {
  FindingsLog findings;
  for (const FindingRecord& record : outcome.findings) {
    Finding finding;
    finding.issue_id = record.issue_id;
    finding.kind = record.kind;
    finding.evidence = record.evidence;
    finding.test_index = test_index;
    finding.trial = outcome.first_bug_trial;
    finding.duplicate_input = test.write_test == test.read_test;
    if (std::optional<ReplayToken> token = MakeReplayToken(test, record, explorer)) {
      finding.replay_token = FormatReplayToken(*token);
    }
    findings.Record(finding);
  }
  return findings;
}

}  // namespace snowboard
