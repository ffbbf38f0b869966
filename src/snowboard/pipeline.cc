#include "src/snowboard/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>

#include "src/snowboard/checkpoint.h"
#include "src/snowboard/profile.h"
#include "src/snowboard/serialize.h"
#include "src/snowboard/stats.h"
#include "src/util/counters.h"
#include "src/util/fault.h"
#include "src/util/hash.h"
#include "src/util/log.h"
#include "src/util/trace.h"
#include "src/util/workpool.h"

namespace snowboard {

namespace {

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  double seconds = std::chrono::duration<double>(b - a).count();
  return seconds > 0 ? seconds : 0;
}

// True once an injected crash has fired anywhere: the "process" is dead, so nothing new
// starts, nothing more is committed, and callers unwind with partial state.
bool Dead(const PipelineOptions& options) {
  return options.fault != nullptr && options.fault->crashed();
}

// Names the stopping rule a prune-on journal answers. 2 is the no-new-edge rule; 1 was
// the repeated ordered-edge-sequence rule, whose journals must not replay under this one.
// Prune-off campaigns hash 0, as they always have.
constexpr uint64_t kPruneRuleTag = 2;

// Hash of every option that shapes the pipeline's deterministic outputs. num_workers,
// checkpointing, and fault injection are deliberately excluded: a campaign may be resumed
// with a different worker count (the determinism invariant guarantees identical results),
// but any fingerprint mismatch means the directory's journal answers a different question
// and must be discarded.
uint64_t OptionsFingerprint(const PipelineOptions& o) {
  return HashAll(o.seed, o.corpus.seed, o.corpus.max_iterations, o.corpus.target_size,
                 o.corpus.use_seeds, static_cast<uint64_t>(o.strategy), o.max_concurrent_tests,
                 o.explorer.num_trials, o.explorer.seed, o.explorer.max_instructions,
                 o.explorer.target_issue, o.explorer.minimize_schedules,
                 o.explorer.detectors, o.explorer.prune.enabled ? kPruneRuleTag : 0,
                 o.explorer.prune.saturation_window);
}

// Opens the campaign's checkpoint store and admits the campaign to it, or returns null
// when checkpointing is off/unavailable. Admission pins the directory to the options
// fingerprint before the engine can replay a journal: a fresh run, or a directory of other
// options, starts with no journal. The store is internally synchronized, so one handle
// may serve every worker.
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
  store->SetJournalBatch(static_cast<size_t>(std::max(options.journal_flush_records, 1)));
  store->Admit(OptionsFingerprint(options), StrategyName(options.strategy), options.resume);
  return store;
}

// --- Stage computations -----------------------------------------------------------------

// Corpus construction: admission is a serial fold over the shared coverage map (each admit
// changes what counts as fresh for every later candidate), so it runs on one VM. Each
// entry carries the profile of the run that admitted it.
std::vector<CorpusEntry> ComputeCorpus(KernelVm& vm, const PipelineOptions& options) {
  CorpusOptions corpus_options = options.corpus;
  corpus_options.seed = corpus_options.seed ^ options.seed;
  return BuildCorpus(vm, corpus_options);
}

// A strategy's generated test list and the cluster count it was selected from.
struct GeneratedTests {
  std::vector<ConcurrentTest> tests;
  size_t cluster_count = 0;
};

// Test generation for the campaign's strategy: the pairing baselines need only the corpus;
// PMC strategies cluster the identified table and select exemplar pairs.
GeneratedTests ComputeTests(const std::vector<Program>& corpus, const std::vector<Pmc>& pmcs,
                            const PipelineOptions& options) {
  GeneratedTests out;
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

// --- Execution helpers ------------------------------------------------------------------

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
//   corpus ──► identify ──► generate (PMC) ─────┐
//      │                                        ├──► explore[t]
//      └───────────────► generate (baselines) ──┘
//
// Workers claim whatever is runnable. The corpus item's fuzzer profiles each program in the
// run that admitted it, so identification runs once, over every profile, as soon as the
// corpus resolves; exploration starts the moment the test list (and, for PMC strategies,
// the matcher) resolves — for the pairing baselines that genuinely overlaps
// identification.
//
// Two entries share the one DAG. From the corpus: RunSnowboardPipeline runs it through
// exploration and PrepareCampaign stops once the PMC table resolves. From the explore
// frontier: ExecuteCampaign explores the caller's tests, with no checkpoint store. The
// pre-explore stages write nothing to the store — they are pure functions of the options
// fingerprint, so a resume recomputes them — and only the explore stage touches it: each
// executed test appends its outcome to the journal, and a resume replays the journaled
// outcomes instead of re-executing their tests.
//
// Determinism comes from slots, not from the schedule: the corpus item yields the profiles
// in corpus order, which is the order identification reads them in, explore outcome t lands
// in its own slot, and the outcomes fold in index order. The scheduling freedom the DAG
// adds therefore never reaches a deterministic output, which the checked-in goldens under
// tests/corpus/ lock in at 1/2/4/8 workers.
//
// Fault injection: claiming a pre-explore item passes the "pool.claim" fault point,
// executing an explore item passes "execute.claim" (once per executed test, never per
// claim attempt), and explorer trials pass their own sites inside the explorer. Every
// item is claimed exactly once, so a campaign's fault-point total is the same at every
// worker count. An injected crash flips `crashed_`; every worker unwinds at its next
// claim, exactly as a SIGKILL would.
class CampaignEngine {
 public:
  // How far Run() takes the DAG.
  enum class Goal {
    kPmcs,     // Stop once the corpus (with its profiles) and the PMC table resolve.
    kExplore,  // Run through exploration.
  };

  // `store` (may be null) receives the explore stage's journal, and on `options.resume`
  // its journaled outcomes replay.
  CampaignEngine(const PipelineOptions& options, CheckpointStore* store, Goal goal)
      : options_(options),
        store_(store),
        goal_(goal),
        use_pmc_(StrategyUsesPmcs(options.strategy)),
        journal_name_(std::string("execute.") + StrategyName(options.strategy)) {
    t_start_ = std::chrono::steady_clock::now();
    t_corpus_ = t_pmcs_ = t_tests_ = t_start_;
    restore_mark_tests_ = RestoreNanos();
  }

  // Seeds the DAG at the explore frontier: every pre-explore stage counts as resolved and
  // `tests` is the test list, explored with `matcher` (may be null) when `use_pmc_hints`.
  void StartAtExplore(const std::vector<ConcurrentTest>& tests, bool use_pmc_hints,
                      const PmcMatcher* matcher) {
    std::lock_guard<std::mutex> lock(mu_);
    start_at_explore_ = true;
    use_pmc_ = use_pmc_hints;
    matcher_ = matcher;
    corpus_done_ = identify_claimed_ = pmcs_done_ = true;
    TestsResolvedLocked(GeneratedTests{tests, 0});
  }

  void Run() {
    // perfbench's ledger keys the campaign window on this span name.
    TRACE_SPAN("engine.streaming");
    bool all_done;
    {
      std::lock_guard<std::mutex> lock(mu_);
      all_done = AllDoneLocked();
    }
    if (!all_done && !Dead(options_)) {
      WorkerPool::Global().Run(options_.ResolvedWorkers(),
                               [this](PoolWorker& worker) { WorkerLoop(worker); });
    }
    // Claim boundary: every outcome the explore stage journaled becomes durable before the
    // campaign result is assembled.
    if (store_ != nullptr) {
      store_->FlushJournals();
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
    // between its predecessor's completion event and its own. When stages overlap (a
    // baseline exploring during identification) the windows overlap too, so the per-stage
    // columns no longer sum to the campaign wall-clock — by design. The explore window also
    // attributes the snapshot-restore counter delta. None of these fields are serialized.
    result->corpus_seconds = SecondsBetween(t_start_, t_corpus_);
    result->identify_seconds = SecondsBetween(t_corpus_, t_pmcs_);
    result->cluster_seconds = SecondsBetween(t_pmcs_, t_tests_);
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
  }

 private:
  enum class Kind {
    kNone,
    kCorpus,    // Build the corpus and its profiles.
    kIdentify,  // Identify the PMC table over every profile.
    kGenerate,  // Cluster/select (or pair) the test list, build replay table.
    kExplore,   // Execute (or replay) test arg.
  };
  struct Item {
    Kind kind = Kind::kNone;
    size_t arg = 0;
  };

  static uint64_t RestoreNanos() {
    return GlobalPipelineCounters().snapshot_restore_nanos.load(std::memory_order_relaxed);
  }

  void WorkerLoop(PoolWorker& worker) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (crashed_ || AllDoneLocked()) {
        return;
      }
      Item item = ClaimLocked();
      if (item.kind == Kind::kNone) {
        // Nothing is claimable until another worker resolves a stage, finishes the last
        // explore item or crashes out; each of those calls notify_all.
        cv_.wait(lock);
        continue;
      }
      lock.unlock();
      // Claiming a pre-explore item is a "pool.claim" kill point (an explore item passes
      // "execute.claim" in ExploreClaimed instead).
      FaultInjector* fault = options_.fault;
      if (fault != nullptr && item.kind != Kind::kExplore && fault->At("pool.claim")) {
        CrashOut();
        return;
      }
      if (!Execute(item, worker)) {
        CrashOut();
        return;
      }
      lock.lock();
      if (item.kind == Kind::kExplore && ++explores_done_ == tests_.size()) {
        // Workers with nothing left to claim are waiting on cv_; without this wake-up they
        // would sleep past the end of the campaign.
        cv_.notify_all();
      }
    }
  }

  // Executes (or replays from the journal) one claimed explore test into its slot. Writes
  // only slot `index` of outcomes_/resumed_ (slot-exclusive, so no locking). The
  // "execute.claim" kill point fires here, before an actual execution — never on a claim
  // attempt, whose timing-dependent occurrence would make the fault-point count depend on
  // the worker count. False means the worker must unwind (crash raised here or
  // elsewhere).
  bool ExploreClaimed(PoolWorker& worker, size_t index) {
    FaultInjector* fault = options_.fault;
    if (fault != nullptr && fault->At("execute.claim")) {
      return false;
    }
    TRACE_SPAN("explore.test", index);
    if (journaled_[index].has_value()) {
      // Replayed from the journal: no VM involved.
      outcomes_[index] = journaled_[index];
      resumed_[index] = 1;
      GlobalPipelineCounters().tests_resumed.fetch_add(1, std::memory_order_relaxed);
    } else {
      std::optional<OutcomeRecord> record = RunOneExploreTest(PoolWorkerVm(worker), index);
      if (!record.has_value()) {
        return false;
      }
      outcomes_[index] = std::move(*record);
    }
    return true;
  }

  // Executes live (non-journaled) test `index` on `vm` and journals its outcome. Returns
  // nullopt when an injected crash fired mid-test or at the journal append: the record
  // then "never existed" in this process and only the on-disk journal decides what
  // survived.
  std::optional<OutcomeRecord> RunOneExploreTest(KernelVm& vm, size_t index) {
    const ConcurrentTest& test = tests_[index];
    ExplorerOptions explorer = options_.explorer;
    // Per-test seed derived from the test index: trial schedules are independent of which
    // worker runs the test and in what order.
    explorer.seed = options_.explorer.seed + index * 1000003ull;
    explorer.fault = options_.fault;
    ExploreOutcome outcome;
    if (use_pmc_) {
      outcome = ExploreConcurrentTest(vm, test, matcher_, explorer);
    } else {
      RandomPreemptScheduler scheduler;
      outcome =
          ExploreWithScheduler(vm, test, scheduler, /*check_channel=*/false, explorer);
    }
    if (Dead(options_)) {
      // The trial loop died mid-test; its partial outcome never existed.
      return std::nullopt;
    }
    // The record keeps exactly what the fold reads; the rest of the outcome dies here.
    OutcomeRecord record;
    record.test_index = index;
    record.trials_run = outcome.trials_run;
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
    if (store_ != nullptr) {
      store_->AppendJournal(journal_name_, EncodeOutcomeRecord(record));
      if (Dead(options_)) {
        // Died at the append; the on-disk journal decides what survived.
        return std::nullopt;
      }
    }
    GlobalPipelineCounters().concurrent_tests_run.fetch_add(1, std::memory_order_relaxed);
    return record;
  }

  // Pre-parses the execution journal into a by-index replay table (all empty unless
  // resuming). ReadJournal has already stopped at the first torn or corrupt line, so every
  // record it returns is checksum-valid. Two kinds of record are dropped, counted in
  // GlobalPipelineCounters().journal_records_dropped, and warned about once per build: one
  // that does not decode (another record format wrote it) and one whose test index is
  // outside the current test list (a mismatched journal would otherwise silently
  // masquerade as progress). Their tests re-execute.
  std::vector<std::optional<OutcomeRecord>> BuildJournalTable(size_t num_tests) const {
    std::vector<std::optional<OutcomeRecord>> journaled(num_tests);
    if (store_ == nullptr || !options_.resume) {
      return journaled;
    }
    size_t undecodable = 0;
    size_t out_of_range = 0;
    for (const std::string& record : store_->ReadJournal(journal_name_)) {
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
    GlobalPipelineCounters().journal_records_dropped.fetch_add(undecodable + out_of_range,
                                                               std::memory_order_relaxed);
    if (undecodable > 0) {
      SB_LOG(kWarn) << "checkpoint: dropped " << undecodable << " journal record(s) of "
                    << journal_name_ << " that do not decode (written by another record "
                    << "format?); their tests re-execute";
    }
    if (out_of_range > 0) {
      SB_LOG(kWarn) << "checkpoint: dropped " << out_of_range << " journal record(s) of "
                    << journal_name_ << " with test indices past the " << num_tests
                    << "-test list (journal belongs to a different test set?)";
    }
    return journaled;
  }

  void CrashOut() {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_ = true;
    cv_.notify_all();
  }

  bool AllDoneLocked() const {
    bool prepared = corpus_done_ && pmcs_done_;
    if (goal_ == Goal::kPmcs) {
      return prepared;
    }
    return prepared && tests_ready_ && explores_done_ == tests_.size();
  }

  // Work-claiming priority: the stage items that unblock others first, then explore items.
  Item ClaimLocked() {
    if (!corpus_done_ && !corpus_claimed_) {
      corpus_claimed_ = true;
      return {Kind::kCorpus, 0};
    }
    if (corpus_done_ && !identify_claimed_) {
      identify_claimed_ = true;
      return {Kind::kIdentify, 0};
    }
    if (goal_ == Goal::kExplore && !tests_resolved_ && !generate_claimed_ && corpus_done_ &&
        (!use_pmc_ || pmcs_done_)) {
      generate_claimed_ = true;
      return {Kind::kGenerate, 0};
    }
    if (tests_ready_ && explore_next_ < tests_.size()) {
      return {Kind::kExplore, explore_next_++};
    }
    return {Kind::kNone, 0};
  }

  // False when the worker must unwind; only an explore item can crash.
  bool Execute(Item item, PoolWorker& worker) {
    switch (item.kind) {
      case Kind::kCorpus:
        ExecuteCorpus(worker);
        break;
      case Kind::kIdentify:
        ExecuteIdentify();
        break;
      case Kind::kGenerate:
        ExecuteGenerate();
        break;
      case Kind::kExplore:
        return ExploreClaimed(worker, item.arg);
      case Kind::kNone:
        break;
    }
    return true;
  }

  // Caller holds mu_. Stamps the corpus event; identify and generate become claimable.
  void CorpusResolvedLocked() {
    corpus_done_ = true;
    t_corpus_ = std::chrono::steady_clock::now();
    TRACE_COUNTER("funnel.corpus_programs", corpus_.size());
    cv_.notify_all();
  }

  void ExecuteCorpus(PoolWorker& worker) {
    std::vector<CorpusEntry> entries = ComputeCorpus(PoolWorkerVm(worker), options_);
    std::lock_guard<std::mutex> lock(mu_);
    for (CorpusEntry& entry : entries) {
      SequentialProfile& profile = profiles_.emplace_back();
      profile.test_id = static_cast<int>(corpus_.size());
      profile.ok = true;  // Admission requires a completed run.
      profile.accesses = std::move(entry.accesses);
      corpus_.push_back(std::move(entry.program));
    }
    CorpusResolvedLocked();
  }

  // Runs Algorithm 1 over every profile outside the lock: once the corpus has resolved,
  // nothing writes profiles_ again.
  void ExecuteIdentify() {
    std::vector<Pmc> pmcs = IdentifyPmcs(profiles_);
    std::lock_guard<std::mutex> lock(mu_);
    pmcs_ = std::move(pmcs);
    PmcsResolvedLocked();
  }

  // Caller holds mu_. Stamps the PMC event and checks whether explore can open.
  void PmcsResolvedLocked() {
    pmcs_done_ = true;
    t_pmcs_ = std::chrono::steady_clock::now();
    TRACE_COUNTER("funnel.pmcs_identified", pmcs_.size());
    MaybeTestsReadyLocked();
    cv_.notify_all();
  }

  // Caller holds mu_. Installs the resolved test list and its replay plumbing.
  void TestsResolvedLocked(GeneratedTests tests) {
    tests_ = std::move(tests.tests);
    cluster_count_ = tests.cluster_count;
    tests_resolved_ = true;
    outcomes_.resize(tests_.size());
    resumed_.assign(tests_.size(), 0);
    journaled_ = BuildJournalTable(tests_.size());
    if (!start_at_explore_) {
      TRACE_COUNTER("funnel.clusters", cluster_count_);
      TRACE_COUNTER("funnel.tests_generated", tests_.size());
    }
    MaybeTestsReadyLocked();
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

  void ExecuteGenerate() {
    GeneratedTests tests = ComputeTests(corpus_, pmcs_, options_);
    std::lock_guard<std::mutex> lock(mu_);
    TestsResolvedLocked(std::move(tests));
  }

  const PipelineOptions& options_;
  CheckpointStore* const store_;
  const Goal goal_;
  bool use_pmc_;
  const std::string journal_name_;
  bool start_at_explore_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  bool crashed_ = false;  // Guarded by mu_, like every claim cursor and done flag below.

  // Corpus and its profiles. The corpus item writes both under mu_ before it marks the
  // corpus done; every reader claims its item after that.
  bool corpus_claimed_ = false;
  bool corpus_done_ = false;
  std::vector<Program> corpus_;
  std::vector<SequentialProfile> profiles_;

  // Identification.
  bool identify_claimed_ = false;
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

  // Explore. A claimed index owns its outcomes_/resumed_ slot exclusively, and the final
  // fold reads the slots only after the pool job joins.
  size_t explore_next_ = 0;
  size_t explores_done_ = 0;
  std::vector<std::optional<OutcomeRecord>> outcomes_;
  std::vector<uint8_t> resumed_;

  // Event timestamps (stage-attribution windows; see Fill).
  std::chrono::steady_clock::time_point t_start_, t_corpus_, t_pmcs_, t_tests_;
  uint64_t restore_mark_tests_ = 0;
};

}  // namespace

PreparedCampaign PrepareCampaign(const PipelineOptions& options) {
  CampaignEngine engine(options, /*store=*/nullptr, CampaignEngine::Goal::kPmcs);
  engine.Run();
  PreparedCampaign campaign;
  engine.TakePrepared(&campaign);
  return campaign;
}

std::vector<ConcurrentTest> GenerateTestsForStrategy(const PreparedCampaign& campaign,
                                                     const PipelineOptions& options,
                                                     size_t* cluster_count_out) {
  GeneratedTests tests = ComputeTests(campaign.corpus, campaign.pmcs, options);
  if (cluster_count_out != nullptr) {
    *cluster_count_out = tests.cluster_count;
  }
  return std::move(tests.tests);
}

void ExecuteCampaign(const std::vector<ConcurrentTest>& tests, bool use_pmc_hints,
                     const PmcMatcher* matcher, const PipelineOptions& options,
                     PipelineResult* result) {
  CampaignEngine engine(options, /*store=*/nullptr, CampaignEngine::Goal::kExplore);
  engine.StartAtExplore(tests, use_pmc_hints, matcher);
  engine.Run();
  engine.FoldExplore(result);
}

PipelineResult RunSnowboardPipeline(const PipelineOptions& options) {
  TRACE_SPAN("pipeline.campaign");
  PipelineResult result;
  std::unique_ptr<CheckpointStore> store = OpenStore(options);
  if (Dead(options)) {
    return result;
  }

  CampaignEngine engine(options, store.get(), CampaignEngine::Goal::kExplore);
  engine.Run();
  engine.Fill(&result);
  if (Dead(options)) {
    return result;
  }
  TRACE_COUNTER("funnel.tests_with_findings", result.tests_with_bug);
  TRACE_COUNTER("funnel.findings_total", result.findings.total_findings());

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
