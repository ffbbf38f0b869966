// Crash-point sweep for the checkpoint/resume layer — the headline invariant of the
// crash-safe campaign work: for a fixed seed, killing the pipeline at EVERY fault point
// and resuming yields a PipelineResult (stats, PMC table digest, findings) byte-identical
// to the uninterrupted run, at 1, 2, and 4 workers — and the resumed run re-executes zero
// already-journaled tests (verified through PipelineCounters).
//
// Mechanics: a first pass with a no-crash FaultInjector counts the campaign's fault points
// (the guard write, journal appends, explorer trials, worker claim loops); the sweep
// then replays the campaign once per ordinal with crash_at = k, resumes each crashed
// directory, and compares SerializePipelineResult bytes against the golden run.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <unistd.h>

#include "src/snowboard/checkpoint.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/serialize.h"
#include "src/util/counters.h"
#include "src/util/fault.h"
#include "src/util/fs.h"

namespace snowboard {
namespace {

// Small but real campaign: a few corpus tests, a handful of concurrent tests, a few trials
// each — enough to cross every stage boundary and journal several outcomes while keeping
// the full sweep (one crashed run + one resume per fault point) in test-lane time.
PipelineOptions TinyOptions(int num_workers) {
  PipelineOptions options;
  options.seed = 7;
  options.corpus.seed = 42;
  options.corpus.max_iterations = 10;
  options.corpus.target_size = 8;
  options.strategy = Strategy::kSInsPair;
  options.max_concurrent_tests = 5;
  options.explorer.num_trials = 3;
  options.num_workers = num_workers;
  return options;
}

std::string FreshDir(const std::string& tag) {
  static int counter = 0;
  std::string dir = std::string(::testing::TempDir()) + "sb_resume_" +
                    std::to_string(::getpid()) + "_" + tag + "_" +
                    std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

// The names of the files in `dir`.
std::set<std::string> FilesIn(const std::string& dir) {
  std::set<std::string> files;
  for (const auto& dirent : std::filesystem::directory_iterator(dir)) {
    files.insert(dirent.path().filename().string());
  }
  return files;
}

// Counts the distinct journaled test outcomes recorded in `dir` for `options`' strategy.
void CountJournaled(const std::string& dir, const PipelineOptions& options,
                    size_t total_tests, size_t* count_out) {
  std::vector<bool> seen(total_tests, false);
  *count_out = 0;
  std::string journal = std::string("execute.") + StrategyName(options.strategy);
  for (const std::string& record : ReadJournalFile(dir, journal)) {
    std::optional<OutcomeRecord> decoded = DecodeOutcomeRecord(record);
    ASSERT_TRUE(decoded.has_value()) << "committed journal records must decode";
    ASSERT_LT(decoded->test_index, total_tests);
    if (!seen[decoded->test_index]) {
      seen[decoded->test_index] = true;
      (*count_out)++;
    }
  }
}

TEST(CheckpointResumeTest, CrashAtEveryFaultPointResumesByteIdentical) {
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "num_workers=" << workers);

    // Golden: one uninterrupted checkpointed run, and a plain run to prove checkpointing
    // itself does not perturb the deterministic outputs.
    PipelineOptions plain = TinyOptions(workers);
    std::string golden_text = SerializePipelineResult(RunSnowboardPipeline(plain));

    PipelineOptions golden_options = TinyOptions(workers);
    golden_options.checkpoint_dir = FreshDir("golden");
    PipelineResult golden = RunSnowboardPipeline(golden_options);
    ASSERT_GT(golden.tests_executed, 0u);
    ASSERT_EQ(SerializePipelineResult(golden), golden_text)
        << "checkpointing must not change results";
    const size_t total_tests = golden.tests_generated;

    // Count the campaign's fault points with a crash-free injector.
    FaultInjector::Plan no_crash;
    FaultInjector point_counter(no_crash);
    PipelineOptions count_options = TinyOptions(workers);
    count_options.checkpoint_dir = FreshDir("count");
    count_options.fault = &point_counter;
    PipelineResult counted = RunSnowboardPipeline(count_options);
    ASSERT_FALSE(point_counter.crashed());
    ASSERT_EQ(SerializePipelineResult(counted), golden_text)
        << "an armed-but-silent injector must not change results";
    const uint64_t total_points = point_counter.points_seen();
    ASSERT_GT(total_points, 20u) << "the campaign should cross many fault points";

    for (uint64_t crash_at = 0; crash_at < total_points; crash_at++) {
      SCOPED_TRACE(testing::Message() << "crash_at=" << crash_at);
      std::string dir = FreshDir("sweep");

      FaultInjector::Plan plan;
      plan.crash_at = static_cast<int64_t>(crash_at);
      FaultInjector fault(plan);
      PipelineOptions crash_options = TinyOptions(workers);
      crash_options.checkpoint_dir = dir;
      crash_options.fault = &fault;
      RunSnowboardPipeline(crash_options);
      ASSERT_TRUE(fault.crashed()) << "ordinal within points_seen must fire";

      // What survived the crash on disk is all the resumed run may reuse.
      size_t journaled = 0;
      CountJournaled(dir, crash_options, total_tests, &journaled);

      ResetPipelineCounters();
      PipelineOptions resume_options = TinyOptions(workers);
      resume_options.checkpoint_dir = dir;
      resume_options.resume = true;
      PipelineResult resumed = RunSnowboardPipeline(resume_options);

      // The headline invariant: byte-identical serialized result.
      EXPECT_EQ(SerializePipelineResult(resumed), golden_text);

      // Zero re-execution of journaled tests: every journaled outcome replays, and only
      // the remainder runs live.
      PipelineCounters& counters = GlobalPipelineCounters();
      EXPECT_EQ(counters.tests_resumed.load(), journaled);
      EXPECT_EQ(resumed.tests_resumed, journaled);
      EXPECT_EQ(counters.concurrent_tests_run.load(), total_tests - journaled);
      EXPECT_EQ(resumed.tests_executed, total_tests);

      std::filesystem::remove_all(dir);
    }

    std::filesystem::remove_all(golden_options.checkpoint_dir);
    std::filesystem::remove_all(count_options.checkpoint_dir);
  }
}

// The same sweep with schedule-equivalence pruning on: pruning ends tests early, so each
// test passes fewer explorer.trial points, and the outcome records carry the pruned-trial
// count and saturation flag the fold reads — journal replay must reproduce the pruned
// funnel without re-execution. One worker count keeps the doubled sweep inside the resume
// lane's budget; the prune-off sweep above already covers the worker-count axis.
TEST(CheckpointResumeTest, CrashSweepWithPruningResumesByteIdentical) {
  auto prune_options = [](int num_workers) {
    PipelineOptions options = TinyOptions(num_workers);
    options.explorer.prune.enabled = true;
    return options;
  };

  PipelineOptions plain = prune_options(2);
  std::string golden_text = SerializePipelineResult(RunSnowboardPipeline(plain));

  PipelineOptions golden_options = prune_options(2);
  golden_options.checkpoint_dir = FreshDir("prune_golden");
  PipelineResult golden = RunSnowboardPipeline(golden_options);
  ASSERT_GT(golden.tests_executed, 0u);
  ASSERT_EQ(SerializePipelineResult(golden), golden_text)
      << "checkpointing must not change pruned results";
  const size_t total_tests = golden.tests_generated;

  FaultInjector::Plan no_crash;
  FaultInjector point_counter(no_crash);
  PipelineOptions count_options = prune_options(2);
  count_options.checkpoint_dir = FreshDir("prune_count");
  count_options.fault = &point_counter;
  PipelineResult counted = RunSnowboardPipeline(count_options);
  ASSERT_FALSE(point_counter.crashed());
  ASSERT_EQ(SerializePipelineResult(counted), golden_text)
      << "an armed-but-silent injector must not change pruned results";
  const uint64_t total_points = point_counter.points_seen();
  ASSERT_GT(total_points, 20u);

  for (uint64_t crash_at = 0; crash_at < total_points; crash_at++) {
    SCOPED_TRACE(testing::Message() << "crash_at=" << crash_at);
    std::string dir = FreshDir("prune_sweep");

    FaultInjector::Plan plan;
    plan.crash_at = static_cast<int64_t>(crash_at);
    FaultInjector fault(plan);
    PipelineOptions crash_options = prune_options(2);
    crash_options.checkpoint_dir = dir;
    crash_options.fault = &fault;
    RunSnowboardPipeline(crash_options);
    ASSERT_TRUE(fault.crashed());

    size_t journaled = 0;
    CountJournaled(dir, crash_options, total_tests, &journaled);

    ResetPipelineCounters();
    PipelineOptions resume_options = prune_options(2);
    resume_options.checkpoint_dir = dir;
    resume_options.resume = true;
    PipelineResult resumed = RunSnowboardPipeline(resume_options);

    EXPECT_EQ(SerializePipelineResult(resumed), golden_text);

    PipelineCounters& counters = GlobalPipelineCounters();
    EXPECT_EQ(counters.tests_resumed.load(), journaled);
    EXPECT_EQ(resumed.tests_resumed, journaled);
    EXPECT_EQ(counters.concurrent_tests_run.load(), total_tests - journaled);
    EXPECT_EQ(resumed.tests_executed, total_tests);

    std::filesystem::remove_all(dir);
  }

  std::filesystem::remove_all(golden_options.checkpoint_dir);
  std::filesystem::remove_all(count_options.checkpoint_dir);
}

// A completed checkpoint holds no result: its resume recomputes the prep stages — the
// corpus with its profiles — and short-circuits every test through its journal record, so
// nothing re-executes.
TEST(CheckpointResumeTest, ResumeOfCompletedCampaignShortCircuits) {
  PipelineOptions options = TinyOptions(2);
  options.checkpoint_dir = FreshDir("complete");
  PipelineResult golden = RunSnowboardPipeline(options);
  ASSERT_GT(golden.tests_executed, 0u);

  ResetPipelineCounters();
  PipelineOptions resume_options = options;
  resume_options.resume = true;
  PipelineResult resumed = RunSnowboardPipeline(resume_options);
  EXPECT_EQ(SerializePipelineResult(resumed), SerializePipelineResult(golden));
  EXPECT_EQ(resumed.tests_resumed, resumed.tests_executed);
  EXPECT_EQ(resumed.tests_executed, golden.tests_executed);
  PipelineCounters& counters = GlobalPipelineCounters();
  EXPECT_EQ(counters.tests_resumed.load(), golden.tests_executed);
  EXPECT_EQ(counters.concurrent_tests_run.load(), 0u)
      << "a completed campaign must not re-execute anything";
  EXPECT_EQ(counters.vm_profile_runs.load(), 0u)
      << "a campaign's profiles come from its corpus run";
  std::filesystem::remove_all(options.checkpoint_dir);
}

// The checkpoint holds only the `campaign` guard and the execute journal. Corpus,
// profiles, PMCs, tests and the result are pure functions of the options and the journal,
// so a resume re-runs the prep stages — the fuzzer profiling the whole corpus again, which
// the result's `profiled_ok` and `shared_accesses` show — and then replays the journal,
// running only the tests it lacks. Admission deletes what older layouts kept in the
// directory (a manifest, stage entries, a stored result), by name, and nothing else.
TEST(CheckpointResumeTest, CheckpointHoldsGuardAndJournalOnlyAndResumeRecomputesPrep) {
  auto batched = [] {
    PipelineOptions options = TinyOptions(1);
    options.journal_flush_records = 2;  // A batch commits before the explore stage ends.
    return options;
  };
  const std::string strategy = StrategyName(Strategy::kSInsPair);
  const std::string journal = "execute." + strategy;
  const std::set<std::string> layout = {"campaign", journal + ".journal"};
  auto write_stale = [](const std::string& dir, std::initializer_list<std::string> names) {
    for (const std::string& name : names) {
      ASSERT_TRUE(AtomicWriteFile(dir + "/" + name, "stale\n"));
    }
  };

  PipelineOptions options = batched();
  options.checkpoint_dir = FreshDir("layout");
  ASSERT_TRUE(EnsureDirectory(options.checkpoint_dir));
  write_stale(options.checkpoint_dir, {"MANIFEST", "pmcs.tmp", "notes.txt"});
  PipelineResult golden = RunSnowboardPipeline(options);
  ASSERT_GT(golden.tests_executed, 1u);
  EXPECT_EQ(ReadJournalFile(options.checkpoint_dir, journal).size(), golden.tests_executed);
  std::set<std::string> with_notes = layout;
  with_notes.insert("notes.txt");
  EXPECT_EQ(FilesIn(options.checkpoint_dir), with_notes)
      << "a file no layout ever wrote is the user's";

  // Crash right after the first journal batch commits: the earliest "journal.appended"
  // point. One worker, so each ordinal lands on the same site in every run.
  std::string dir;
  for (int64_t crash_at = 0; dir.empty(); crash_at++) {
    std::string candidate = FreshDir("first_batch");
    FaultInjector::Plan plan;
    plan.crash_at = crash_at;
    FaultInjector fault(plan);
    PipelineOptions crash_options = batched();
    crash_options.checkpoint_dir = candidate;
    crash_options.fault = &fault;
    RunSnowboardPipeline(crash_options);
    ASSERT_TRUE(fault.crashed()) << "the campaign ended without committing a journal batch";
    if (fault.crash_site() == "journal.appended") {
      dir = candidate;
    } else {
      std::filesystem::remove_all(candidate);
    }
  }
  EXPECT_EQ(FilesIn(dir), layout);
  size_t journaled = 0;
  CountJournaled(dir, options, golden.tests_generated, &journaled);
  ASSERT_GT(journaled, 0u);
  ASSERT_LT(journaled, golden.tests_generated);
  // What a directory written by an older layout also held.
  write_stale(dir, {"MANIFEST", "corpus", "result." + strategy});

  ResetPipelineCounters();
  PipelineOptions resume_options = batched();
  resume_options.checkpoint_dir = dir;
  resume_options.resume = true;
  PipelineResult resumed = RunSnowboardPipeline(resume_options);
  EXPECT_EQ(SerializePipelineResult(resumed), SerializePipelineResult(golden));
  PipelineCounters& counters = GlobalPipelineCounters();
  EXPECT_EQ(counters.vm_profile_runs.load(), 0u)
      << "a campaign's profiles come from its corpus run";
  EXPECT_EQ(counters.tests_resumed.load(), journaled);
  EXPECT_EQ(resumed.tests_resumed, journaled);
  EXPECT_EQ(counters.concurrent_tests_run.load(), golden.tests_generated - journaled);
  EXPECT_EQ(FilesIn(dir), layout);

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST(CheckpointResumeTest, MismatchedOptionsFingerprintResetsDirectory) {
  PipelineOptions options = TinyOptions(1);
  options.checkpoint_dir = FreshDir("fingerprint");
  PipelineResult first = RunSnowboardPipeline(options);
  ASSERT_GT(first.tests_executed, 0u);

  // Same directory, different campaign seed: the stale artifacts must not leak in.
  PipelineOptions other = TinyOptions(1);
  other.checkpoint_dir = options.checkpoint_dir;
  other.resume = true;  // Even with resume requested, the fingerprint guard wins.
  other.seed = 8;
  ResetPipelineCounters();
  PipelineResult second = RunSnowboardPipeline(other);
  EXPECT_EQ(GlobalPipelineCounters().tests_resumed.load(), 0u);
  EXPECT_EQ(second.tests_resumed, 0u);

  // And the directory now resumes as the NEW campaign.
  PipelineOptions again = other;
  PipelineResult resumed = RunSnowboardPipeline(again);
  EXPECT_EQ(SerializePipelineResult(resumed), SerializePipelineResult(second));
  EXPECT_EQ(resumed.tests_resumed, second.tests_executed);

  // A damaged guard admits nothing: cut short, or the same size with one byte flipped, it
  // no longer matches, so the resume starts fresh — and still returns the same result.
  const std::string guard_path = options.checkpoint_dir + "/campaign";
  std::optional<std::string> guard = ReadFileContents(guard_path);
  ASSERT_TRUE(guard.has_value());
  std::string flipped = *guard;
  flipped[flipped.size() / 2] ^= 1;
  for (const std::string& damaged : {guard->substr(0, guard->size() - 3), flipped}) {
    SCOPED_TRACE(testing::Message() << "guard bytes: " << damaged.size());
    ASSERT_TRUE(AtomicWriteFile(guard_path, damaged));
    ResetPipelineCounters();
    PipelineResult fresh = RunSnowboardPipeline(again);
    EXPECT_EQ(GlobalPipelineCounters().tests_resumed.load(), 0u);
    EXPECT_EQ(fresh.tests_resumed, 0u);
    EXPECT_EQ(SerializePipelineResult(fresh), SerializePipelineResult(second));
    EXPECT_EQ(ReadFileContents(guard_path), guard) << "the reset rewrites the guard";
  }
  std::filesystem::remove_all(options.checkpoint_dir);
}

// A journal record whose test index is outside the campaign's test list (e.g. a journal
// left by a differently-sized test set), or a checksum-valid record that does not decode
// (e.g. one written in another record format), must be dropped and counted — never
// replayed as progress, and never allowed to perturb the resumed result.
TEST(CheckpointResumeTest, OutOfRangeJournalRecordsDroppedAndCounted) {
  PipelineOptions plain = TinyOptions(2);
  const std::string golden_text = SerializePipelineResult(RunSnowboardPipeline(plain));
  const std::string journal = std::string("execute.") + StrategyName(plain.strategy);

  // A completed campaign's directory: every test journaled, and a resume replays them all.
  PipelineOptions options = TinyOptions(2);
  options.checkpoint_dir = FreshDir("drop");
  PipelineResult completed = RunSnowboardPipeline(options);
  size_t journaled = 0;
  CountJournaled(options.checkpoint_dir, options, completed.tests_generated, &journaled);
  ASSERT_GT(journaled, 0u);

  // Poison the journal with a record far past any test index this campaign can generate,
  // and with an earlier-format record for test 0 (a bare index, then the hex-encoded outcome).
  {
    CheckpointStore store(options.checkpoint_dir);
    OutcomeRecord bogus;
    bogus.test_index = 1'000'000;
    ASSERT_TRUE(store.AppendJournal(journal, EncodeOutcomeRecord(bogus)));
    ASSERT_TRUE(
        store.AppendJournal(journal, "0 " + HexEncode("snowboard-outcome-v4\n") + " 0"));
  }

  ResetPipelineCounters();
  PipelineOptions resume_options = options;
  resume_options.resume = true;
  PipelineResult resumed = RunSnowboardPipeline(resume_options);

  EXPECT_EQ(SerializePipelineResult(resumed), golden_text)
      << "a dropped record must not perturb the resumed result";
  EXPECT_EQ(GlobalPipelineCounters().journal_records_dropped.load(), 2u)
      << "the out-of-range and the undecodable record must both be counted as dropped";
  EXPECT_EQ(resumed.tests_resumed, journaled)
      << "only in-range journaled outcomes may replay";

  std::filesystem::remove_all(options.checkpoint_dir);
}

// The group-commit sweep: with a batch threshold small enough to fire mid-stage
// (journal_flush_records=2), crash at EVERY fault point and resume. Batching must change
// only durability granularity — whole batches become durable or are lost together — never
// the resumed bytes, and a resumed run may replay exactly what a committed batch put on
// disk. This is the CrashAtEveryFaultPoint invariant restated under threshold flushes.
TEST(CheckpointResumeTest, JournalBatchingCrashSweepResumesByteIdentical) {
  constexpr int kFlushRecords = 2;
  auto batched = [](int workers) {
    PipelineOptions options = TinyOptions(workers);
    options.journal_flush_records = kFlushRecords;
    return options;
  };

  PipelineOptions plain = TinyOptions(2);
  const std::string golden_text = SerializePipelineResult(RunSnowboardPipeline(plain));

  // Fault-point totals depend on the flush threshold (one journal.append per BATCH), so
  // count under the same batching configuration the sweep crashes.
  FaultInjector::Plan no_crash;
  FaultInjector point_counter(no_crash);
  PipelineOptions count_options = batched(2);
  count_options.checkpoint_dir = FreshDir("batchcount");
  count_options.fault = &point_counter;
  PipelineResult counted = RunSnowboardPipeline(count_options);
  ASSERT_FALSE(point_counter.crashed());
  ASSERT_EQ(SerializePipelineResult(counted), golden_text)
      << "journal batching must not change deterministic results";
  const size_t total_tests = counted.tests_generated;
  const uint64_t total_points = point_counter.points_seen();
  ASSERT_GT(total_points, 20u);

  for (uint64_t crash_at = 0; crash_at < total_points; crash_at++) {
    SCOPED_TRACE(testing::Message() << "crash_at=" << crash_at);
    std::string dir = FreshDir("batchsweep");

    FaultInjector::Plan plan;
    plan.crash_at = static_cast<int64_t>(crash_at);
    FaultInjector fault(plan);
    PipelineOptions crash_options = batched(2);
    crash_options.checkpoint_dir = dir;
    crash_options.fault = &fault;
    RunSnowboardPipeline(crash_options);
    ASSERT_TRUE(fault.crashed());

    size_t journaled = 0;
    CountJournaled(dir, crash_options, total_tests, &journaled);

    ResetPipelineCounters();
    PipelineOptions resume_options = batched(2);
    resume_options.checkpoint_dir = dir;
    resume_options.resume = true;
    PipelineResult resumed = RunSnowboardPipeline(resume_options);

    EXPECT_EQ(SerializePipelineResult(resumed), golden_text);
    EXPECT_EQ(GlobalPipelineCounters().tests_resumed.load(), journaled);
    EXPECT_EQ(resumed.tests_resumed, journaled)
        << "a resume may replay exactly the batches that committed";

    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(count_options.checkpoint_dir);
}

// Flush accounting: every journal record reaches disk through exactly one group commit,
// so the batch counters must reconcile with the on-disk journal — records flushed equals
// lines readable, flush count is bounded by batches of at most journal_flush_records, and
// the timed fsync path registered real nanoseconds.
TEST(CheckpointResumeTest, JournalBatchFlushAccountingReconciles) {
  PipelineOptions options = TinyOptions(2);
  options.checkpoint_dir = FreshDir("batchacct");
  options.journal_flush_records = 2;
  ResetPipelineCounters();
  PipelineResult result = RunSnowboardPipeline(options);
  ASSERT_GT(result.tests_executed, 0u);

  const std::string journal = std::string("execute.") + StrategyName(options.strategy);
  const size_t on_disk = ReadJournalFile(options.checkpoint_dir, journal).size();
  ASSERT_GT(on_disk, 0u);

  PipelineCounters& counters = GlobalPipelineCounters();
  EXPECT_EQ(counters.journal_batch_records.load(), on_disk)
      << "every record must be accounted to exactly one flush";
  const uint64_t flushes = counters.journal_batch_flushes.load();
  EXPECT_GE(flushes, (on_disk + 1) / 2) << "a batch holds at most journal_flush_records";
  EXPECT_LE(flushes, on_disk) << "a flush carries at least one record";
  EXPECT_GT(counters.journal_flush_nanos.load(), 0u);
  std::filesystem::remove_all(options.checkpoint_dir);
}

}  // namespace
}  // namespace snowboard
