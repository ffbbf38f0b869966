// Fleet-service suite: the three load-bearing properties of the serve layer
// (src/snowboard/serve.h), each proven end-to-end.
//
//   * Determinism is per-campaign: campaigns multiplexed onto one shared pool produce
//     masked report.json bytes identical to standalone runs of the same specs — whatever
//     worker grant the fair-share scheduler hands them.
//   * Crash recovery is re-adoption: the daemon-level FaultInjector (parent of every
//     campaign stopper) is swept across its ordinals; each crashed fleet root is re-opened
//     by a fresh FleetServer, which must finish every campaign byte-identically and
//     re-execute ZERO journaled tests (verified through PipelineCounters, exactly like
//     checkpoint_resume_test does for a single pipeline).
//   * Stop is cooperative and durable: cancel and drain leave valid, resumable
//     checkpoints; a drained fleet re-adopts and completes.
//
// The HTTP surface is covered socket-free through DispatchFleetRequest (every route and
// status code) plus one real unix-socket round-trip through FleetHttpServer.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/snowboard/checkpoint.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/report_html.h"
#include "src/snowboard/serialize.h"
#include "src/snowboard/serve.h"
#include "src/snowboard/serve_http.h"
#include "src/util/counters.h"
#include "src/util/fault.h"
#include "src/util/fs.h"

namespace snowboard {
namespace {

// Small but real campaigns (same scale as checkpoint_resume_test): enough tests to cross
// every stage boundary and journal several outcomes, small enough that the daemon crash
// sweep stays in lane time.
CampaignSpec TinySpec(const std::string& name, uint64_t seed, Strategy strategy,
                      int workers = 2, int priority = 0) {
  CampaignSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.strategy = strategy;
  spec.corpus_size = 8;
  spec.corpus_iters = 10;
  spec.budget = 5;
  spec.trials = 3;
  spec.workers = workers;
  spec.priority = priority;
  return spec;
}

// A campaign whose remaining work dwarfs a descheduled test thread, for the tests that
// interrupt a running campaign: 249 tests, where TinySpec's 8-program corpus caps a
// campaign at 34 tests (about 12 ms end to end), whatever its budget.
CampaignSpec LongSpec(const std::string& name, uint64_t seed) {
  CampaignSpec spec = TinySpec(name, seed, Strategy::kSInsPair, /*workers=*/1);
  spec.corpus_size = 32;
  spec.corpus_iters = 40;
  spec.budget = 500;
  return spec;
}

std::string FreshDir(const std::string& tag) {
  static int counter = 0;
  std::string dir = std::string(::testing::TempDir()) + "sb_serve_" +
                    std::to_string(::getpid()) + "_" + tag + "_" +
                    std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

// What a standalone run of `spec` must produce: the masked report bytes every fleet run
// is compared against, plus the sizes the zero-re-execution accounting needs. Built
// through CampaignPipelineOptions — the same spec→options mapping the fleet runner uses —
// at a DIFFERENT worker count, so every comparison also re-proves worker-invariance.
struct Golden {
  std::string masked_report;
  std::string result_text;  // SerializePipelineResult bytes.
  size_t total_tests = 0;
};

Golden StandaloneGolden(const CampaignSpec& spec, int workers) {
  std::string dir = FreshDir("standalone_" + spec.name);
  PipelineOptions options = CampaignPipelineOptions(spec, dir, workers);
  ResetPipelineCounters();
  PipelineResult result = RunSnowboardPipeline(options);
  Golden golden;
  golden.total_tests = result.tests_generated;
  golden.result_text = SerializePipelineResult(result);
  golden.masked_report =
      MaskReportVolatile(RenderReportJson(BuildCampaignReport(options, result)));
  std::filesystem::remove_all(dir);
  return golden;
}

// The fleet-side report for `id`, masked, read straight from the campaign directory the
// runner committed it to.
std::string MaskedFleetReport(const std::string& root, const std::string& id) {
  std::optional<std::string> report = ReadFileContents(root + "/" + id + "/report.json");
  EXPECT_TRUE(report.has_value()) << id << ": report.json missing";
  return MaskReportVolatile(report.value_or(""));
}

// Distinct journaled test outcomes durable on disk for `spec` under the fleet root —
// what a resumed run may replay and must not re-execute.
size_t JournaledTests(const std::string& root, const CampaignSpec& spec,
                      size_t total_tests) {
  std::vector<bool> seen(total_tests, false);
  size_t count = 0;
  std::string journal = std::string("execute.") + StrategyName(spec.strategy);
  for (const std::string& record :
       ReadJournalFile(root + "/" + spec.name + "/checkpoint", journal)) {
    std::optional<OutcomeRecord> decoded = DecodeOutcomeRecord(record);
    EXPECT_TRUE(decoded.has_value()) << "committed journal records must decode";
    if (decoded.has_value() && decoded->test_index < total_tests &&
        !seen[decoded->test_index]) {
      seen[decoded->test_index] = true;
      count++;
    }
  }
  return count;
}

// Polls until `id` has at least one durably journaled outcome (so a cancel/drain landing
// now provably interrupts mid-execute) or the campaign leaves the running state.
void WaitForDurableProgress(FleetServer& server, const std::string& id) {
  for (int i = 0; i < 5000; i++) {
    std::optional<CampaignStatus> status = server.Status(id);
    ASSERT_TRUE(status.has_value());
    if (status->tests_journaled > 0 || status->state != CampaignState::kRunning) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << id << ": no durable progress observed";
}

TEST(ServeFleetTest, SpecSerializationRoundTripsAndRejectsGarbage) {
  CampaignSpec spec = TinySpec("round-trip", 99, Strategy::kSCh, /*workers=*/3,
                               /*priority=*/-2);
  spec.detectors = kDetectorConsole | kDetectorRace;
  std::optional<CampaignSpec> parsed = ParseCampaignSpec(SerializeCampaignSpec(spec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(SerializeCampaignSpec(*parsed), SerializeCampaignSpec(spec));
  EXPECT_EQ(parsed->seed, 99u);
  EXPECT_EQ(parsed->strategy, Strategy::kSCh);
  EXPECT_EQ(parsed->priority, -2);
  EXPECT_EQ(parsed->detectors, spec.detectors);

  // Versioning: v2 is written and has no engine switch, so `streaming` is an unknown key
  // there; a v1 body (written before there was one engine) still parses, dropping
  // `streaming 0|1` and re-serializing as the equivalent v2 spec.
  std::string v2 = SerializeCampaignSpec(spec);
  ASSERT_EQ(v2.rfind("snowboard-campaign-spec-v2\n", 0), 0u) << v2;
  EXPECT_EQ(v2.find("streaming"), std::string::npos);
  EXPECT_FALSE(ParseCampaignSpec(v2 + "streaming 1\n").has_value());
  std::string v1 = "snowboard-campaign-spec-v1" + v2.substr(v2.find('\n'));
  for (const char* engine : {"streaming 0\n", "streaming 1\n"}) {
    SCOPED_TRACE(engine);
    std::optional<CampaignSpec> from_v1 = ParseCampaignSpec(v1 + engine);
    ASSERT_TRUE(from_v1.has_value());
    EXPECT_EQ(SerializeCampaignSpec(*from_v1), v2);
  }
  EXPECT_FALSE(ParseCampaignSpec(v1 + "streaming 2\n").has_value());

  // CRLF submissions parse identically (curl --data-binary from foreign line endings).
  std::string crlf = SerializeCampaignSpec(spec);
  size_t at = 0;
  while ((at = crlf.find('\n', at)) != std::string::npos) {
    crlf.replace(at, 1, "\r\n");
    at += 2;
  }
  std::optional<CampaignSpec> from_crlf = ParseCampaignSpec(crlf);
  ASSERT_TRUE(from_crlf.has_value());
  EXPECT_EQ(SerializeCampaignSpec(*from_crlf), SerializeCampaignSpec(spec));

  // Reject, never guess: bad header, unknown key, unknown strategy, invalid name, and a
  // value the parser cannot read back.
  EXPECT_FALSE(ParseCampaignSpec("").has_value());
  EXPECT_FALSE(ParseCampaignSpec("not-a-spec\nname x\n").has_value());
  std::string good = SerializeCampaignSpec(spec);
  EXPECT_FALSE(ParseCampaignSpec(good + "mystery-knob 7\n").has_value());
  EXPECT_FALSE(ParseCampaignSpec(good + "strategy S-NOPE\n").has_value());
  EXPECT_FALSE(ParseCampaignSpec(good + "trials zero\n").has_value());
  // Integers that do not fit are rejected, not wrapped: 2^64 would read as seed 0, and
  // 2^64 + 1 as 1 trial, which then passes the trial bound.
  EXPECT_FALSE(ParseCampaignSpec(good + "seed 18446744073709551616\n").has_value());
  EXPECT_FALSE(ParseCampaignSpec(good + "trials 18446744073709551617\n").has_value());
  std::optional<CampaignSpec> max_seed =
      ParseCampaignSpec(good + "seed 18446744073709551615\n");
  ASSERT_TRUE(max_seed.has_value());
  EXPECT_EQ(max_seed->seed, UINT64_MAX);
  CampaignSpec bad_name = spec;
  bad_name.name = "no/slashes";
  EXPECT_FALSE(ParseCampaignSpec(SerializeCampaignSpec(bad_name)).has_value());
}

// The headline determinism property: three campaigns with different seeds and strategies
// run CONCURRENTLY on one shared pool, and each one's masked report.json is byte-identical
// to a standalone run of the same spec at a different worker count.
TEST(ServeFleetTest, ConcurrentCampaignsMatchStandaloneMaskedReports) {
  std::vector<CampaignSpec> specs = {
      TinySpec("det-a", 7, Strategy::kSInsPair),
      TinySpec("det-b", 11, Strategy::kSCh),
      TinySpec("det-c", 13, Strategy::kSMem),
  };
  std::map<std::string, Golden> goldens;
  for (const CampaignSpec& spec : specs) {
    goldens[spec.name] = StandaloneGolden(spec, /*workers=*/4);
  }

  FleetOptions options;
  options.root = FreshDir("fleet3");
  options.total_workers = 3;
  FleetServer server(options);
  ASSERT_TRUE(server.ok());
  std::string error;
  for (const CampaignSpec& spec : specs) {
    ASSERT_EQ(server.Submit(spec, &error), FleetRc::kOk) << error;
  }
  // All three must be admitted side by side, not serialized: the pool budget is 3 and
  // fair-share grants each at least one worker immediately.
  EXPECT_EQ(server.List().size(), specs.size());
  server.WaitIdle();

  for (const CampaignSpec& spec : specs) {
    std::optional<CampaignStatus> status = server.Status(spec.name);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::kDone) << spec.name;
    EXPECT_TRUE(status->report_ready) << spec.name;
    EXPECT_EQ(status->tests_executed, goldens[spec.name].total_tests) << spec.name;
    EXPECT_EQ(MaskedFleetReport(options.root, spec.name),
              goldens[spec.name].masked_report)
        << spec.name << ": fleet-run report must match a standalone run";
    // Duplicate ids are refused with a typed conflict, not silently re-run.
    EXPECT_EQ(server.Submit(spec, &error), FleetRc::kConflict);
  }
  server.Drain();
  std::filesystem::remove_all(options.root);
}

// Scheduler semantics that are deterministic by construction: a paused fleet builds the
// queue, and unpausing starts campaigns strictly by (priority desc, submission order) —
// recorded durably in start_sequence, so the assertion does not race the runners.
TEST(ServeFleetTest, PriorityOrdersStartsAndFairShareBoundsGrants) {
  FleetOptions options;
  options.root = FreshDir("priority");
  options.total_workers = 4;
  FleetServer server(options);
  ASSERT_TRUE(server.ok());
  server.SetPaused(true);

  // Every campaign asks for the WHOLE pool; fair share must still start all four at once.
  std::vector<CampaignSpec> specs = {
      TinySpec("pri-a", 7, Strategy::kSInsPair, /*workers=*/4, /*priority=*/0),
      TinySpec("pri-b", 11, Strategy::kSInsPair, 4, 1),
      TinySpec("pri-c", 13, Strategy::kSInsPair, 4, 5),
      TinySpec("pri-d", 17, Strategy::kSInsPair, 4, 3),
  };
  std::string error;
  for (const CampaignSpec& spec : specs) {
    ASSERT_EQ(server.Submit(spec, &error), FleetRc::kOk) << error;
    std::optional<CampaignStatus> status = server.Status(spec.name);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::kQueued) << "paused fleets start nothing";
  }
  server.SetPaused(false);  // Starts every schedulable campaign before returning.

  // The grant ledger can never exceed the budget, whatever is in flight right now.
  EXPECT_LE(server.granted_workers(), options.total_workers);
  for (const CampaignStatus& status : server.List()) {
    EXPECT_LE(status.workers_granted, 1)
        << status.id << ": four runnable campaigns on four workers cap the grant at 1";
  }

  server.WaitIdle();
  auto start_of = [&](const std::string& id) {
    std::optional<CampaignStatus> status = server.Status(id);
    EXPECT_TRUE(status.has_value());
    return status.has_value() ? status->start_sequence : 0u;
  };
  EXPECT_EQ(start_of("pri-c"), 1u);  // priority 5
  EXPECT_EQ(start_of("pri-d"), 2u);  // priority 3
  EXPECT_EQ(start_of("pri-b"), 3u);  // priority 1
  EXPECT_EQ(start_of("pri-a"), 4u);  // priority 0, submitted first
  for (const CampaignStatus& status : server.List()) {
    EXPECT_EQ(status.state, CampaignState::kDone) << status.id;
  }
  server.Drain();
  std::filesystem::remove_all(options.root);
}

// A status poll is a read: on a queued campaign it must not create the checkpoint
// directory that only the campaign's runner may create.
TEST(ServeFleetTest, StatusOfQueuedCampaignCreatesNothing) {
  FleetOptions options;
  options.root = FreshDir("queued_status");
  FleetServer server(options);
  ASSERT_TRUE(server.ok());
  server.SetPaused(true);
  CampaignSpec spec = TinySpec("queued", 5, Strategy::kSInsPair);
  std::string error;
  ASSERT_EQ(server.Submit(spec, &error), FleetRc::kOk) << error;
  std::optional<CampaignStatus> status = server.Status(spec.name);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, CampaignState::kQueued);
  EXPECT_EQ(status->tests_journaled, 0u);
  ASSERT_EQ(server.List().size(), 1u);
  EXPECT_FALSE(PathExists(options.root + "/" + spec.name + "/checkpoint"));
  server.Drain();
  std::filesystem::remove_all(options.root);
}

// Cancel is a cooperative kill with a durable marker, and the checkpoint it leaves behind
// is valid: a standalone resume of the cancelled directory completes byte-identically to
// an uninterrupted run (replaying, not re-executing, what was journaled).
TEST(ServeFleetTest, CancelLeavesAValidResumableCheckpoint) {
  CampaignSpec spec = LongSpec("cancel-a", 7);  // The cancel lands mid-execute.
  Golden golden = StandaloneGolden(spec, /*workers=*/2);

  FleetOptions options;
  options.root = FreshDir("cancel");
  options.total_workers = 1;
  options.journal_flush_records = 1;  // Flush per record: progress is durable promptly.
  FleetServer server(options);
  ASSERT_TRUE(server.ok());
  std::string error;
  ASSERT_EQ(server.Submit(spec, &error), FleetRc::kOk) << error;
  WaitForDurableProgress(server, spec.name);
  ASSERT_EQ(server.Cancel(spec.name, &error), FleetRc::kOk) << error;
  server.WaitIdle();

  std::optional<CampaignStatus> status = server.Status(spec.name);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, CampaignState::kCancelled);
  EXPECT_TRUE(PathExists(options.root + "/" + spec.name + "/cancelled"))
      << "the cancel decision must be durable";
  // Cancelling twice is a typed conflict; unknown ids are not found.
  EXPECT_EQ(server.Cancel(spec.name, &error), FleetRc::kConflict);
  EXPECT_EQ(server.Cancel("nobody", &error), FleetRc::kNotFound);
  server.Drain();

  // The abandoned checkpoint resumes standalone — same worker count and flush threshold
  // as the fleet ran it, so the directory fingerprint matches — and must replay at least
  // one journaled outcome on its way to the golden bytes.
  size_t journaled = JournaledTests(options.root, spec, golden.total_tests);
  ASSERT_GT(journaled, 0u) << "cancel landed before any outcome became durable";
  ResetPipelineCounters();
  PipelineOptions resume_options = CampaignPipelineOptions(
      spec, options.root + "/" + spec.name + "/checkpoint", /*granted_workers=*/1,
      /*journal_flush_records=*/1);
  resume_options.resume = true;
  PipelineResult resumed = RunSnowboardPipeline(resume_options);
  EXPECT_EQ(SerializePipelineResult(resumed), golden.result_text);
  EXPECT_GE(GlobalPipelineCounters().tests_resumed.load(), journaled)
      << "journaled outcomes must replay, not re-execute";
  std::filesystem::remove_all(options.root);
}

// Drain kills running campaigns cooperatively and leaves queued ones untouched; a new
// daemon over the same root re-adopts both kinds and completes them byte-identically,
// replaying the drained campaign's journal instead of re-executing it.
TEST(ServeFleetTest, DrainedFleetIsReAdoptedAndCompletes) {
  CampaignSpec running_spec = LongSpec("drain-a", 7);  // The drain lands mid-execute.
  CampaignSpec queued_spec = TinySpec("drain-b", 11, Strategy::kSCh, /*workers=*/1);
  Golden running_golden = StandaloneGolden(running_spec, /*workers=*/2);
  Golden queued_golden = StandaloneGolden(queued_spec, /*workers=*/2);

  FleetOptions options;
  options.root = FreshDir("drain");
  options.total_workers = 1;  // One worker: drain-a runs, drain-b waits.
  options.journal_flush_records = 1;
  {
    FleetServer server(options);
    ASSERT_TRUE(server.ok());
    std::string error;
    ASSERT_EQ(server.Submit(running_spec, &error), FleetRc::kOk) << error;
    ASSERT_EQ(server.Submit(queued_spec, &error), FleetRc::kOk) << error;
    WaitForDurableProgress(server, running_spec.name);
    server.Drain();

    // Post-drain truth: nothing is running, both campaigns are queued on disk and in the
    // status API, and admission is closed.
    for (const CampaignStatus& status : server.List()) {
      EXPECT_EQ(status.state, CampaignState::kQueued) << status.id;
    }
    CampaignSpec late = TinySpec("drain-late", 13, Strategy::kSInsPair);
    EXPECT_EQ(server.Submit(late, &error), FleetRc::kUnavailable)
        << "a draining daemon must refuse new campaigns";
  }

  size_t journaled =
      JournaledTests(options.root, running_spec, running_golden.total_tests);
  ASSERT_GT(journaled, 0u) << "drain landed before any outcome became durable";
  ResetPipelineCounters();
  {
    FleetServer server(options);  // Re-adopts both directories and restarts them.
    ASSERT_TRUE(server.ok());
    server.WaitIdle();
    for (const CampaignStatus& status : server.List()) {
      EXPECT_EQ(status.state, CampaignState::kDone) << status.id;
    }
    EXPECT_EQ(MaskedFleetReport(options.root, running_spec.name),
              running_golden.masked_report);
    EXPECT_EQ(MaskedFleetReport(options.root, queued_spec.name),
              queued_golden.masked_report);
    EXPECT_GE(GlobalPipelineCounters().tests_resumed.load(), journaled)
        << "the drained campaign's journal must replay, not re-execute";
    server.Drain();
  }
  std::filesystem::remove_all(options.root);
}

// A cancel the daemon has acknowledged survives a drain that lands before the runner has
// unwound: the directory holds the cancelled marker, and a restarted daemon reports the
// campaign cancelled and starts nothing.
TEST(ServeFleetTest, CancelThenDrainKeepsTheCancel) {
  CampaignSpec spec = LongSpec("cancel-drain", 7);  // The cancel lands mid-execute.

  FleetOptions options;
  options.root = FreshDir("cancel_drain");
  options.total_workers = 1;
  options.journal_flush_records = 1;
  {
    FleetServer server(options);
    ASSERT_TRUE(server.ok());
    std::string error;
    ASSERT_EQ(server.Submit(spec, &error), FleetRc::kOk) << error;
    WaitForDurableProgress(server, spec.name);
    ASSERT_EQ(server.Cancel(spec.name, &error), FleetRc::kOk) << error;
    server.Drain();
    std::optional<CampaignStatus> status = server.Status(spec.name);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::kCancelled);
  }
  EXPECT_TRUE(PathExists(options.root + "/" + spec.name + "/cancelled"))
      << "an acknowledged cancel must be durable across a drain";
  {
    FleetServer server(options);
    ASSERT_TRUE(server.ok());
    std::optional<CampaignStatus> status = server.Status(spec.name);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::kCancelled);
    EXPECT_EQ(status->start_sequence, 0u) << "a cancelled campaign must not restart";
    server.Drain();
  }
  std::filesystem::remove_all(options.root);
}

// Upgrade path: a done marker written before the marker held only its two totals (the
// whole serialized result) does not parse. The campaign re-adopts as queued, replays every
// test from its journal, executes none, and rewrites its report and marker.
TEST(ServeFleetTest, PreChangeDoneMarkerReRunsFromJournal) {
  CampaignSpec spec = TinySpec("old-done", 7, Strategy::kSInsPair);
  Golden golden = StandaloneGolden(spec, /*workers=*/2);

  FleetOptions options;
  options.root = FreshDir("old_done");
  const std::string done_path = options.root + "/" + spec.name + "/done";
  CampaignStatus first;
  {
    FleetServer server(options);
    ASSERT_TRUE(server.ok());
    std::string error;
    ASSERT_EQ(server.Submit(spec, &error), FleetRc::kOk) << error;
    server.WaitIdle();
    first = server.Status(spec.name).value();
    ASSERT_EQ(first.state, CampaignState::kDone) << first.error;
    server.Drain();
  }
  ASSERT_TRUE(AtomicWriteFile(done_path, golden.result_text));

  ResetPipelineCounters();
  {
    FleetServer server(options);
    ASSERT_TRUE(server.ok());
    server.WaitIdle();
    std::optional<CampaignStatus> status = server.Status(spec.name);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::kDone) << status->error;
    EXPECT_EQ(status->start_sequence, 1u) << "the campaign must have re-run";
    EXPECT_EQ(status->tests_executed, first.tests_executed);
    EXPECT_EQ(status->findings, first.findings);
    EXPECT_EQ(MaskedFleetReport(options.root, spec.name), golden.masked_report);
    EXPECT_EQ(GlobalPipelineCounters().tests_resumed.load(), golden.total_tests);
    EXPECT_EQ(GlobalPipelineCounters().concurrent_tests_run.load(), 0u);
    server.Drain();
  }
  std::optional<std::string> marker = ReadFileContents(done_path);
  ASSERT_TRUE(marker.has_value());
  EXPECT_EQ(*marker, FormatDoneMarker(DoneMarker{first.tests_executed, first.findings}));
  std::filesystem::remove_all(options.root);
}

// Upgrade path: a fleet root whose spec.txt predates v2 (header v1, `streaming 0`) is
// re-adopted on restart and runs to the standalone masked report, not marked failed.
TEST(ServeFleetTest, V1SpecIsReAdoptedAndCompletes) {
  CampaignSpec spec = TinySpec("legacy-v1", 7, Strategy::kSInsPair);
  Golden golden = StandaloneGolden(spec, /*workers=*/2);

  FleetOptions options;
  options.root = FreshDir("v1");
  std::string v2 = SerializeCampaignSpec(spec);
  std::string v1 =
      "snowboard-campaign-spec-v1" + v2.substr(v2.find('\n')) + "streaming 0\n";
  ASSERT_TRUE(EnsureDirectory(options.root + "/" + spec.name));
  ASSERT_TRUE(AtomicWriteFile(options.root + "/" + spec.name + "/spec.txt", v1));
  {
    FleetServer server(options);
    ASSERT_TRUE(server.ok());
    server.WaitIdle();
    std::optional<CampaignStatus> status = server.Status(spec.name);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::kDone) << status->error;
    EXPECT_EQ(MaskedFleetReport(options.root, spec.name), golden.masked_report);
    server.Drain();
  }
  std::filesystem::remove_all(options.root);
}

// The serve-path fault-injection sweep — ISSUE 9's crash-recovery acceptance test. The
// daemon injector is the PARENT of every campaign stopper, so its ordinal space covers
// serve-layer durable writes (spec.txt, report, done/cancel markers) AND every fault
// point inside every campaign. For swept ordinals: kill the daemon, re-open the root
// with a fresh FleetServer, and require (a) every campaign finishes with masked report
// bytes identical to standalone runs, and (b) ZERO journaled tests re-execute — the
// recovered fleet runs live exactly the tests that never reached the journal.
TEST(ServeFleetTest, DaemonCrashSweepReAdoptsWithZeroReExecution) {
  const std::vector<CampaignSpec> specs = {
      TinySpec("sweep-a", 7, Strategy::kSInsPair, /*workers=*/1),
      TinySpec("sweep-b", 11, Strategy::kSCh, /*workers=*/1),
      TinySpec("sweep-c", 13, Strategy::kSMem, /*workers=*/1),
  };
  std::map<std::string, Golden> goldens;
  for (const CampaignSpec& spec : specs) {
    goldens[spec.name] = StandaloneGolden(spec, /*workers=*/2);
  }
  auto submit_all = [&](FleetServer& server) {
    std::string error;
    for (const CampaignSpec& spec : specs) {
      // A daemon death during an earlier submit makes the rest unavailable; the sweep
      // recovers them by re-submitting after restart.
      if (server.Submit(spec, &error) != FleetRc::kOk) {
        return;
      }
    }
  };

  // Pass 1: count the fleet's fault points with a crash-free daemon injector, proving on
  // the way that an armed-but-silent injector changes nothing.
  FaultInjector::Plan no_crash;
  FaultInjector point_counter(no_crash);
  uint64_t total_points = 0;
  {
    FleetOptions options;
    options.root = FreshDir("sweepcount");
    options.total_workers = 3;
    options.fault = &point_counter;
    FleetServer server(options);
    ASSERT_TRUE(server.ok());
    submit_all(server);
    server.WaitIdle();
    server.Drain();
    ASSERT_FALSE(point_counter.crashed());
    EXPECT_FALSE(server.dead());
    for (const CampaignSpec& spec : specs) {
      EXPECT_EQ(MaskedFleetReport(options.root, spec.name),
                goldens[spec.name].masked_report)
          << spec.name;
    }
    total_points = point_counter.points_seen();
    std::filesystem::remove_all(options.root);
  }
  ASSERT_GT(total_points, 60u) << "the fleet should cross many fault points";

  // Pass 2: stride-sample the ordinal space (a full sweep is resume-lane work for ONE
  // pipeline; here every ordinal costs a whole fleet run plus its recovery). The stride
  // keeps ~40 kill points spread across submit, execute, report, and done-marker
  // territory, and always includes ordinal 0.
  const uint64_t stride = std::max<uint64_t>(1, total_points / 40);
  for (uint64_t crash_at = 0; crash_at < total_points; crash_at += stride) {
    SCOPED_TRACE(testing::Message() << "crash_at=" << crash_at << "/" << total_points);
    std::string root = FreshDir("sweep");

    FaultInjector::Plan plan;
    plan.crash_at = static_cast<int64_t>(crash_at);
    FaultInjector fault(plan);
    {
      FleetOptions options;
      options.root = root;
      options.total_workers = 3;
      options.fault = &fault;
      FleetServer server(options);
      ASSERT_TRUE(server.ok());
      submit_all(server);
      server.WaitIdle();
      server.Drain();
    }
    ASSERT_TRUE(fault.crashed()) << "ordinal within points_seen must fire";

    // What the dead daemon left durable is all the recovery may reuse: done markers
    // short-circuit entirely, journaled outcomes replay, everything else runs live.
    size_t expected_replayable = 0;
    size_t expected_live = 0;
    for (const CampaignSpec& spec : specs) {
      // The marker is written atomically, so existing means committed.
      if (PathExists(root + "/" + spec.name + "/done")) {
        continue;  // Fully committed before the kill: re-adopted as done, never re-run.
      }
      size_t journaled = JournaledTests(root, spec, goldens[spec.name].total_tests);
      expected_replayable += journaled;
      expected_live += goldens[spec.name].total_tests - journaled;
    }

    ResetPipelineCounters();
    {
      FleetOptions options;
      options.root = root;
      options.total_workers = 3;
      FleetServer server(options);  // Crash recovery: re-adopt everything durable.
      ASSERT_TRUE(server.ok());
      std::string error;
      for (const CampaignSpec& spec : specs) {
        if (!server.Status(spec.name).has_value()) {
          // The death preceded this spec's durable admission; the client re-submits.
          ASSERT_EQ(server.Submit(spec, &error), FleetRc::kOk) << error;
        }
      }
      server.WaitIdle();
      for (const CampaignSpec& spec : specs) {
        std::optional<CampaignStatus> status = server.Status(spec.name);
        ASSERT_TRUE(status.has_value()) << spec.name;
        EXPECT_EQ(status->state, CampaignState::kDone) << spec.name;
        EXPECT_EQ(MaskedFleetReport(root, spec.name), goldens[spec.name].masked_report)
            << spec.name << ": recovery must converge to the standalone bytes";
      }
      // Zero re-execution, fleet-wide: journaled outcomes replayed, the rest ran live.
      PipelineCounters& counters = GlobalPipelineCounters();
      EXPECT_EQ(counters.tests_resumed.load(), expected_replayable);
      EXPECT_EQ(counters.concurrent_tests_run.load(), expected_live);
      server.Drain();
    }
    std::filesystem::remove_all(root);
  }
}

// Every route, status code, and error body of the HTTP surface, exercised socket-free
// through the dispatcher the socket layer ferries bytes to.
TEST(ServeFleetTest, HttpDispatchCoversEveryRouteAndStatusCode) {
  FleetOptions options;
  options.root = FreshDir("http");
  options.total_workers = 2;
  FleetServer server(options);
  ASSERT_TRUE(server.ok());
  bool drain = false;
  auto call = [&](const std::string& method, const std::string& path,
                  const std::string& body) {
    return DispatchFleetRequest(server, method, path, body, &drain);
  };

  HttpResponse response = call("GET", "/healthz", "");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(call("POST", "/healthz", "").status, 405);

  EXPECT_EQ(call("POST", "/campaigns", "this is not a spec").status, 400);
  CampaignSpec spec = TinySpec("http-a", 7, Strategy::kSInsPair);
  response = call("POST", "/campaigns", SerializeCampaignSpec(spec));
  EXPECT_EQ(response.status, 201);
  EXPECT_NE(response.body.find("\"id\": \"http-a\""), std::string::npos);
  EXPECT_EQ(call("POST", "/campaigns", SerializeCampaignSpec(spec)).status, 409);

  response = call("GET", "/campaigns", "");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"id\": \"http-a\""), std::string::npos);
  response = call("GET", "/fleet", "");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"workers_total\": 2"), std::string::npos);

  response = call("GET", "/campaigns/http-a/spec", "");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, SerializeCampaignSpec(spec));
  EXPECT_EQ(call("GET", "/campaigns/http-a", "").status, 200);
  EXPECT_EQ(call("GET", "/campaigns/ghost", "").status, 404);
  EXPECT_EQ(call("GET", "/campaigns/ghost/report", "").status, 404);
  EXPECT_EQ(call("POST", "/campaigns/ghost/cancel", "").status, 404);
  EXPECT_EQ(call("POST", "/campaigns/http-a", "").status, 405);

  server.WaitIdle();
  response = call("GET", "/campaigns/http-a/report", "");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"schema\": \"snowboard-report-v1\""), std::string::npos);
  EXPECT_EQ(call("POST", "/campaigns/http-a/cancel", "").status, 409)
      << "cancelling a finished campaign is a typed conflict";

  // Unknown endpoints answer with the route table itself.
  response = call("GET", "/totally/unknown", "");
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("POST /drain"), std::string::npos);
  EXPECT_NE(response.body.find("GET /campaigns/<id>/report"), std::string::npos);

  EXPECT_FALSE(drain);
  response = call("POST", "/drain", "");
  EXPECT_EQ(response.status, 202);
  EXPECT_TRUE(drain) << "the dispatcher reports drain; the caller executes it";
  server.Drain();
  EXPECT_EQ(call("POST", "/campaigns",
                 SerializeCampaignSpec(TinySpec("http-b", 11, Strategy::kSCh)))
                .status,
            503)
      << "a draining daemon refuses admission";
  std::filesystem::remove_all(options.root);
}

// Stops and joins an accept loop that is still running when its test returns early (a
// failed ASSERT_*). Destroying a joinable std::thread calls std::terminate, which would end
// the whole test binary instead of reporting one failed test.
class AcceptLoopGuard {
 public:
  AcceptLoopGuard(FleetHttpServer& http, std::thread& loop) : http_(http), loop_(loop) {}
  AcceptLoopGuard(const AcceptLoopGuard&) = delete;
  AcceptLoopGuard& operator=(const AcceptLoopGuard&) = delete;
  ~AcceptLoopGuard() {
    if (loop_.joinable()) {
      http_.Stop();
      loop_.join();
    }
  }

 private:
  FleetHttpServer& http_;
  std::thread& loop_;
};

// One real unix-socket round-trip: submit over the wire, watch it finish, drain — the
// same path `snowboard_serve request` and curl --unix-socket use.
TEST(ServeFleetTest, UnixSocketServesSubmitStatusAndDrain) {
  FleetOptions options;
  options.root = FreshDir("sock");
  options.total_workers = 2;
  FleetServer server(options);
  ASSERT_TRUE(server.ok());
  std::string socket_path = std::string(::testing::TempDir()) + "sb_serve_test_" +
                            std::to_string(::getpid()) + ".sock";
  FleetHttpServer http(&server, socket_path);
  ASSERT_TRUE(http.ok());
  std::thread accept_loop([&]() { http.Serve(); });
  AcceptLoopGuard guard(http, accept_loop);

  std::optional<HttpResponse> response =
      UnixHttpRequest(socket_path, "GET", "/healthz", "");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);

  CampaignSpec spec = TinySpec("sock-a", 7, Strategy::kSInsPair);
  response = UnixHttpRequest(socket_path, "POST", "/campaigns",
                             SerializeCampaignSpec(spec));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 201);
  server.WaitIdle();
  response = UnixHttpRequest(socket_path, "GET", "/campaigns/sock-a", "");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"state\": \"done\""), std::string::npos);

  response = UnixHttpRequest(socket_path, "POST", "/drain", "");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 202);
  accept_loop.join();  // Serve() returns once the drain response is on the wire.
  EXPECT_TRUE(http.drain_requested());
  server.Drain();
  std::filesystem::remove_all(options.root);
}

// A client that hangs up before reading its answer costs the daemon nothing: the
// response write fails with EPIPE instead of raising SIGPIPE, whose default action would
// kill the whole process and every campaign in it, and the next client is served.
TEST(ServeFleetTest, ClientThatHangsUpEarlyLeavesTheDaemonServing) {
  FleetOptions options;
  options.root = FreshDir("hangup");
  options.total_workers = 1;
  FleetServer server(options);
  ASSERT_TRUE(server.ok());
  std::string socket_path = std::string(::testing::TempDir()) + "sb_serve_hangup_" +
                            std::to_string(::getpid()) + ".sock";
  FleetHttpServer http(&server, socket_path);
  ASSERT_TRUE(http.ok());
  std::thread accept_loop([&]() { http.Serve(); });
  AcceptLoopGuard guard(http, accept_loop);

  // A raw client shuts its read side, so the daemon's answer cannot be delivered, sends a
  // request and closes without reading.
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  ASSERT_LT(socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::shutdown(fd, SHUT_RD), 0);
  const std::string request = "GET /fleet HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  ::close(fd);

  std::optional<HttpResponse> response =
      UnixHttpRequest(socket_path, "GET", "/healthz", "");
  ASSERT_TRUE(response.has_value()) << "the daemon stopped serving";
  EXPECT_EQ(response->status, 200);

  response = UnixHttpRequest(socket_path, "POST", "/drain", "");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 202);
  accept_loop.join();
  server.Drain();
  std::filesystem::remove_all(options.root);
}

// A body past the daemon's 8 MiB read cap gets an answer, not a transport error: the
// daemon stops reading, answers and closes, so the client's send fails with EPIPE while the
// answer waits in its receive queue.
TEST(ServeFleetTest, OversizedBodyGetsTheDaemonsAnswer) {
  FleetOptions options;
  options.root = FreshDir("oversized");
  options.total_workers = 1;
  FleetServer server(options);
  ASSERT_TRUE(server.ok());
  std::string socket_path = std::string(::testing::TempDir()) + "sb_serve_oversized_" +
                            std::to_string(::getpid()) + ".sock";
  FleetHttpServer http(&server, socket_path);
  ASSERT_TRUE(http.ok());
  std::thread accept_loop([&]() { http.Serve(); });
  AcceptLoopGuard guard(http, accept_loop);

  std::optional<HttpResponse> response =
      UnixHttpRequest(socket_path, "POST", "/campaigns", std::string(16u << 20, 'x'));
  EXPECT_TRUE(response.has_value()) << "the client lost the daemon's answer";
  if (response.has_value()) {
    EXPECT_EQ(response->status, 400);
  }

  response = UnixHttpRequest(socket_path, "POST", "/drain", "");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 202);
  accept_loop.join();
  server.Drain();
  std::filesystem::remove_all(options.root);
}

}  // namespace
}  // namespace snowboard
