// End-to-end pipeline — Figure 2: sequential test generation & profiling → PMC
// identification → PMC selection (clustering + prioritization) → concurrent test execution.
//
// One campaign engine drives the stages: a single pool job runs the campaign as a
// dependency DAG — PMC identification runs once the last profile lands, and concurrent
// tests start exploring as soon as the test list resolves. Its threads come from the
// process-lifetime WorkerPool (util/workpool.h), whose workers carry lazily-booted KernelVms
// reused from the corpus stage through profiling into concurrent-test execution — the
// in-process analog of the paper's Redis-queue-plus-GCP-VMs deployment (§4.4.1), where a
// fixed fleet streams through all campaign work. The staged API below enters the same
// engine partway: PrepareCampaign stops once the PMC table resolves, and ExecuteCampaign
// starts at the explore frontier.
// Budgets are expressed in test counts rather than wall-clock, every parallel output lands
// in its own slot (identification reads the profiles in corpus order, and test outcomes
// fold in index order, regardless of completion order), and per-test exploration seeds
// derive from the test index, so the pipeline's deterministic outputs (stats, PMC tables,
// findings) are byte-identical for a fixed seed at ANY worker count — the invariant the
// checked-in goldens under tests/corpus/ lock in.
#ifndef SRC_SNOWBOARD_PIPELINE_H_
#define SRC_SNOWBOARD_PIPELINE_H_

#include <string>
#include <vector>

#include "src/fuzz/corpus.h"
#include "src/snowboard/cluster.h"
#include "src/snowboard/explorer.h"
#include "src/snowboard/report.h"
#include "src/snowboard/select.h"

namespace snowboard {

class FaultInjector;  // util/fault.h.

struct PipelineOptions {
  uint64_t seed = 1;
  CorpusOptions corpus;
  Strategy strategy = Strategy::kSInsPair;
  size_t max_concurrent_tests = 300;  // The per-strategy test budget (Table 3's time box).
  ExplorerOptions explorer;
  // Shared-nothing workers (machine fleet analog) that claim every stage's work items;
  // each is one thread. All deterministic outputs are invariant under it. <= 0 means
  // "unset" and resolves to 1 (ResolvedWorkers).
  int num_workers = 1;
  // Crash-safe persistence (RunSnowboardPipeline only). When non-empty, a CheckpointStore
  // here holds what a resume cannot recompute: the `campaign` guard, keyed by an options
  // fingerprint (every field that shapes deterministic outputs — NOT num_workers), and the
  // execute journal of per-test outcomes. A directory with another guard is reset.
  std::string checkpoint_dir;
  // With `resume`, the pre-explore stages recompute (they are pure functions of the
  // fingerprinted options) and journaled test outcomes replay without touching a VM, so a
  // resume of a completed campaign replays every test. Without it, the journal is deleted
  // first. Meaningless when checkpoint_dir is empty.
  bool resume = false;
  // Crash fault-injection hook (crash-sweep harness); nullptr = off. When an injected
  // crash fires, the pipeline unwinds at the next fault point of every worker and returns
  // a partial result — only the on-disk checkpoint state is meaningful afterwards.
  FaultInjector* fault = nullptr;
  // Journal group-commit threshold: per-test outcome records buffer in the CheckpointStore
  // and are fsynced in batches of this many (1 = the old fsync-per-record behavior). Like
  // num_workers, it shapes no deterministic output — a crash just loses at most one
  // unflushed batch, which the resumed run re-executes — so it is excluded from the
  // checkpoint fingerprint.
  int journal_flush_records = 8;

  // The single interpretation of num_workers, the campaign engine's pool width:
  // non-positive means 1.
  int ResolvedWorkers() const { return num_workers > 0 ? num_workers : 1; }
};

struct PipelineResult {
  // Stage statistics (§5.4-style).
  size_t corpus_size = 0;
  size_t profiled_ok = 0;
  uint64_t shared_accesses = 0;
  size_t pmc_count = 0;          // Materialized unique PMCs.
  uint64_t total_pmc_pairs = 0;  // Sum of test-pair multiplicities ("169 billion" analog).
  size_t cluster_count = 0;      // Exemplar PMCs under the strategy.
  size_t tests_generated = 0;
  size_t tests_executed = 0;
  size_t tests_with_bug = 0;
  size_t channel_exercised = 0;  // §5.3.2 numerator.
  uint64_t total_trials = 0;
  // Schedule-equivalence pruning funnel (equiv.h): trials skipped as duplicate
  // interleavings, tests that saturated (ended early), and total scheduler switch
  // decisions across all tests. Deterministic (folded in test-index order), so they
  // serialize with the result and land in report.json.
  uint64_t trials_pruned = 0;
  size_t tests_saturated = 0;
  uint64_t switch_decisions = 0;
  // Minimization funnel: switch counts of the captured finding schedules before and after
  // the delta-debugging minimizer (summed over every capture of every executed test).
  uint64_t schedule_switches_orig = 0;
  uint64_t schedule_switches_min = 0;
  uint64_t pmc_table_digest = 0;  // PmcTableDigest of the identified table.
  FindingsLog findings;
  // Resume bookkeeping (run-shape dependent; excluded from SerializePipelineResult).
  size_t tests_resumed = 0;      // Outcomes replayed from the execution journal.
  // Always 0: a trial runs once, so nothing retries. Kept because report.json's schema and
  // the benchmark's `explorer.trials_retried` metric still print it.
  uint64_t trials_retried = 0;
  // Wall-clock per stage (seconds).
  double corpus_seconds = 0;
  double profile_seconds = 0;
  double identify_seconds = 0;
  double cluster_seconds = 0;
  double execute_seconds = 0;
  // Time spent inside VM snapshot restores during the profiling and execution stages
  // (seconds), derived from GlobalPipelineCounters().snapshot_restore_nanos deltas around
  // each stage — the share of a stage the dirty-page delta restore attacks. Counter-based,
  // so concurrent pipelines in one process would attribute each other's restores.
  double profile_restore_seconds = 0;
  double execute_restore_seconds = 0;
};

// Runs the full campaign for one strategy (including the Random/Duplicate pairing baselines,
// which skip profiling-derived hints and run under the random-preemption scheduler).
PipelineResult RunSnowboardPipeline(const PipelineOptions& options);

// --- Individual stages, exposed for benches and the CLI `run` command that need
// intermediate artifacts. Each enters the same campaign engine RunSnowboardPipeline runs,
// so journaling, fault points, and outputs follow one rule. ---

struct PreparedCampaign {
  std::vector<Program> corpus;
  std::vector<SequentialProfile> profiles;
  std::vector<Pmc> pmcs;
  double corpus_seconds = 0;
  double profile_seconds = 0;
  double profile_restore_seconds = 0;  // Snapshot-restore share of profile_seconds.
  double identify_seconds = 0;
};

// Stages 1-2 (corpus, profiling, identification); shared across strategies in benches. Runs
// the engine until the PMC table resolves; checkpoints nothing.
PreparedCampaign PrepareCampaign(const PipelineOptions& options);

// Stage 3: clustering + selection for one strategy (returns generated concurrent tests).
// A pure function of its arguments; checkpoints nothing.
std::vector<ConcurrentTest> GenerateTestsForStrategy(const PreparedCampaign& campaign,
                                                     const PipelineOptions& options,
                                                     size_t* cluster_count_out);

// Stage 4: parallel execution of `tests`, folding execution stats + findings into `result`.
// Runs the engine from the explore frontier. `use_pmc_hints` selects the Algorithm 2
// scheduler (with `matcher`, which may be null) vs the baseline random scheduler.
// Checkpoints nothing: a journal is only sound under the guard of the options that
// produced its test list, and a caller-supplied list has none, so `checkpoint_dir` and
// `resume` are ignored here.
void ExecuteCampaign(const std::vector<ConcurrentTest>& tests, bool use_pmc_hints,
                     const PmcMatcher* matcher, const PipelineOptions& options,
                     PipelineResult* result);

// One explored test's findings log: each record of `outcome` as a Finding at `test_index`,
// with its replay token. `explorer` must be the per-test options the outcome was executed
// with: the tokens' trial seeds come from it. The records were classified and described by
// the explorer in the process that executed the test (both resolve site ids through the
// in-process site-name registry, which a cold resumed process has not populated for tests
// it never re-executes), so stage 4 journals this log per test and journal replay merges it
// verbatim.
FindingsLog ExtractFindings(const ConcurrentTest& test, const ExploreOutcome& outcome,
                            size_t test_index, const ExplorerOptions& explorer);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_PIPELINE_H_
