// Round-trip and adversarial-input tests for the checkpoint serialization layer.
//
// The crash-safety story leans on one contract (serialize.h): a Deserialize* either
// returns the complete artifact or nullopt — truncation at any line boundary, a flipped
// version header, or junk bytes must be rejected, never crash, and never yield a silently
// half-loaded object. The same bar applies to the checkpoint journal (per-line checksums),
// to the atomic file primitives (a failed write leaves no partial file), and to the fleet's
// done marker.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "src/snowboard/checkpoint.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/serialize.h"
#include "src/snowboard/serve.h"
#include "src/util/fault.h"
#include "src/util/fs.h"
#include "src/util/log.h"

namespace snowboard {
namespace {

std::string TempPath(const std::string& name) {
  static int counter = 0;
  std::string path = std::string(::testing::TempDir()) + "sb_robust_" +
                     std::to_string(::getpid()) + "_" + std::to_string(counter++) + "_" +
                     name;
  std::filesystem::remove_all(path);  // A previous run's leftovers must not leak in.
  return path;
}

Program MakeProgram(uint32_t base_nr) {
  Program program;
  Call open;
  open.nr = base_nr;
  open.args[0] = Arg::Const(3);
  open.args[1] = Arg::Const(-7);
  program.calls.push_back(open);
  Call use;
  use.nr = base_nr + 1;
  use.args[0] = Arg::Result(0);
  use.args[1] = Arg::Const(0x7fffffff);
  program.calls.push_back(use);
  return program;
}

ConcurrentTest MakeTest() {
  ConcurrentTest test;
  test.writer = MakeProgram(1);
  test.reader = MakeProgram(2);
  test.write_test = 5;
  test.read_test = 9;
  test.hint.write = PmcSide{0x1000, 4, 0xf123456789abcdefull, 42};
  test.hint.read = PmcSide{0x1002, 2, 0x8000000000000001ull, 7};
  test.hint.df_leader = true;
  test.cluster_key = 0xffee000011223344ull;  // High bit set.
  test.cluster_size = 12;
  return test;
}

ReplayToken MakeToken() {
  ReplayToken token;
  token.issue_id = 13;
  token.write_test = 5;
  token.read_test = 9;
  token.trial_seed = 2021 + 7;
  token.max_instructions = 400'000;
  token.fingerprint = 0x0123456789abcdefull;
  token.schedule = *RecordedSchedule::FromString("..S.S..S");
  token.hint = MakeTest().hint;
  token.writer = MakeProgram(1);
  token.reader = MakeProgram(2);
  return token;
}

// Every counter away from its default; findings of several issues including the
// unclassified id 0, one with empty evidence and token, and a repeat that only counts.
OutcomeRecord MakeRecord() {
  OutcomeRecord record;
  record.test_index = 41;
  record.trials_run = 6;
  record.trials_pruned = 3;
  record.saturated = true;
  record.switch_decisions = 17;
  record.bug_found = true;
  record.channel_exercised = true;
  record.schedule_switches_orig = 9;
  record.schedule_switches_min = 2;
  // Execution-time findings ride along so journal replay never re-classifies (the site
  // name registry of a cold resumed process cannot reproduce these strings).
  Finding race;
  race.issue_id = 11;
  race.kind = FindingKind::kRace;
  race.test_index = 41;
  race.trial = 3;
  race.evidence = "data race: <ConfigfsLookup> / <ConfigfsRmdir> @0x1018";
  race.replay_token = FormatReplayToken(MakeToken());
  record.findings.Record(race);
  Finding panic;
  panic.issue_id = 1;
  panic.kind = FindingKind::kPanic;
  panic.test_index = 41;
  panic.trial = 3;
  panic.evidence = "BUG: unable to handle page fault at 0xdead";
  panic.replay_token = "sb-replay-v1 not-reparsed-here";
  record.findings.Record(panic);
  Finding unclassified;
  unclassified.issue_id = 0;
  unclassified.kind = FindingKind::kLivelock;
  unclassified.test_index = 41;
  unclassified.trial = -1;
  unclassified.duplicate_input = true;  // Empty evidence and token survive the "-" coding.
  record.findings.Record(unclassified);
  Finding repeat = race;  // Same issue, same test: counts, but is never written.
  repeat.evidence = "a later witness of the same issue";
  record.findings.Record(repeat);
  return record;
}

// `text`'s space-separated fields with field `index` replaced by `value`.
std::string WithField(const std::string& text, size_t index, const std::string& value) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (size_t space; (space = text.find(' ', start)) != std::string::npos; start = space + 1) {
    fields.push_back(text.substr(start, space - start));
  }
  fields.push_back(text.substr(start));
  EXPECT_LT(index, fields.size());
  fields[index] = value;
  std::string out = fields[0];
  for (size_t i = 1; i < fields.size(); i++) {
    out += ' ' + fields[i];
  }
  return out;
}

FindingsLog MakeFindings() {
  FindingsLog findings;
  Finding first;
  first.issue_id = 2;
  first.evidence = "data race: SbfsWrite / SbfsComputeChecksum @0x40";
  first.test_index = 4;
  first.trial = 1;
  first.duplicate_input = false;
  findings.Record(first);
  Finding unclassified;
  unclassified.issue_id = 0;
  unclassified.evidence = "";
  unclassified.test_index = 9;
  unclassified.trial = -1;
  unclassified.duplicate_input = true;
  findings.Record(unclassified);
  Finding repeat = first;  // Same issue, later test: bumps total only.
  repeat.test_index = 7;
  findings.Record(repeat);
  return findings;
}

PipelineResult MakeResult() {
  PipelineResult result;
  result.corpus_size = 8;
  result.profiled_ok = 7;
  result.shared_accesses = 512;
  result.pmc_count = 40;
  result.total_pmc_pairs = 999;
  result.cluster_count = 11;
  result.tests_generated = 6;
  result.tests_executed = 6;
  result.tests_with_bug = 2;
  result.channel_exercised = 5;
  result.total_trials = 36;
  result.pmc_table_digest = 0xfedcba9876543210ull;
  result.findings = MakeFindings();
  return result;
}

// --- Round trips. ---

TEST(SerializeRobustnessTest, OutcomeRecordRoundTrip) {
  const OutcomeRecord record = MakeRecord();
  std::string line = EncodeOutcomeRecord(record);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "journal records must be single-line";
  EXPECT_EQ(line.find(HexEncode("a later witness")), std::string::npos)
      << "a record carries at most one finding per issue id";
  std::optional<OutcomeRecord> loaded = DecodeOutcomeRecord(line);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->test_index, 41u);
  EXPECT_EQ(loaded->trials_run, 6);
  EXPECT_EQ(loaded->trials_pruned, 3);
  EXPECT_TRUE(loaded->saturated);
  EXPECT_EQ(loaded->switch_decisions, 17u);
  EXPECT_TRUE(loaded->bug_found);
  EXPECT_TRUE(loaded->channel_exercised);
  EXPECT_EQ(loaded->schedule_switches_orig, 9u);
  EXPECT_EQ(loaded->schedule_switches_min, 2u);
  EXPECT_EQ(loaded->findings.total_findings(), 4u);
  ASSERT_EQ(loaded->findings.first_findings().size(), 3u);
  for (const auto& [id, want] : record.findings.first_findings()) {
    ASSERT_TRUE(loaded->findings.Found(id)) << id;
    const Finding& got = loaded->findings.first_findings().at(id);
    EXPECT_EQ(got.issue_id, want.issue_id);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.test_index, want.test_index);
    EXPECT_EQ(got.trial, want.trial);
    EXPECT_EQ(got.duplicate_input, want.duplicate_input);
    EXPECT_EQ(got.evidence, want.evidence);
    EXPECT_EQ(got.replay_token, want.replay_token);
  }
  EXPECT_EQ(EncodeOutcomeRecord(*loaded), line);

  OutcomeRecord bare;  // Default counters and no findings round-trip too.
  bare.test_index = 7;
  std::string bare_line = EncodeOutcomeRecord(bare);
  std::optional<OutcomeRecord> bare_loaded = DecodeOutcomeRecord(bare_line);
  ASSERT_TRUE(bare_loaded.has_value());
  EXPECT_EQ(bare_loaded->findings.total_findings(), 0u);
  EXPECT_EQ(EncodeOutcomeRecord(*bare_loaded), bare_line);
}

TEST(SerializeRobustnessTest, PipelineResultRoundTrip) {
  PipelineResult result = MakeResult();
  std::string text = SerializePipelineResult(result);
  // Timings and resume bookkeeping are run-shape dependent and deliberately excluded, so
  // an uninterrupted and a resumed campaign write the same text.
  PipelineResult with_noise = result;
  with_noise.execute_seconds = 123.0;
  with_noise.tests_resumed = 5;
  with_noise.trials_retried = 9;
  EXPECT_EQ(SerializePipelineResult(with_noise), text);
}

TEST(SerializeRobustnessTest, HexCoding) {
  EXPECT_EQ(HexEncode(""), "");
  EXPECT_EQ(HexEncode(std::string("\x00\xff\x41", 3)), "00ff41");
  EXPECT_EQ(HexDecode("00ff41"), std::string("\x00\xff\x41", 3));
  EXPECT_EQ(HexDecode(""), "");
  EXPECT_FALSE(HexDecode("abc").has_value()) << "odd length";
  EXPECT_FALSE(HexDecode("zz").has_value()) << "non-hex digits";
  EXPECT_FALSE(HexDecode("aB").has_value()) << "uppercase is not canonical";
}

// --- Adversarial inputs: truncation sweep, flipped headers, junk. ---

TEST(SerializeRobustnessTest, OutcomeRecordAdversarial) {
  const std::string line = EncodeOutcomeRecord(MakeRecord());
  auto decodes = [](const std::string& t) { return DecodeOutcomeRecord(t).has_value(); };
  ASSERT_TRUE(decodes(line));
  // A record is one line, so the line-boundary sweep does not apply: every strict prefix,
  // cut at any byte, must fail.
  for (size_t cut = 0; cut < line.size(); cut++) {
    EXPECT_FALSE(decodes(line.substr(0, cut))) << "prefix of " << cut << " bytes";
  }
  EXPECT_FALSE(decodes(line + " junk")) << "trailing junk";
  EXPECT_FALSE(decodes(line + " end")) << "a second terminator";
  EXPECT_FALSE(decodes(line.substr(line.find(' ') + 1))) << "missing tag";
  EXPECT_FALSE(decodes(WithField(line, 0, "sb-outcome-v5"))) << "wrong tag";
  // A record written before the format dropped trials_retried: v5's tag and seven counters.
  EXPECT_FALSE(decodes(WithField(WithField(line, 0, "sb-outcome-v5"), 2, "6 0")))
      << "an sb-outcome-v5 record";
  EXPECT_FALSE(decodes("41 " + HexEncode("snowboard-outcome-v4\n") + " 0"))
      << "an earlier-format record fails on its first field";
  EXPECT_FALSE(decodes("complete garbage, not a record"));

  // Fields: 0 tag, 1 test index, 2-3 trials run/pruned, 4 saturated, 5 switch decisions,
  // 6 bug found, 7 channel exercised, 8-9 schedule switches, 10 total, 11 entries; then
  // seven per finding (issue ids 0, 1, 11 in map order): issue id, test index, trial,
  // duplicate, kind, evidence, token; then "end".
  struct Case {
    size_t field;
    const char* value;
    const char* what;
  };
  for (const Case& c : std::vector<Case>{
           {11, "4", "inflated finding count"},
           {10, "2", "more entries than the total"},
           {10, "-1", "negative total"},
           {2, "-1", "negative trial count"},
           {2, "4294967296", "trial count past int"},
           {4, "2", "saturated flag outside {0,1}"},
           {6, "2", "bug flag outside {0,1}"},
           {7, "-1", "channel flag outside {0,1}"},
           {19, "0", "duplicate issue id"},
           {20, "40", "a finding of another test"},
           {15, "2", "duplicate-input flag outside {0,1}"},
           {16, "6", "kind above 5"},
           {16, "-1", "negative kind"},
           {24, "abc", "odd-length evidence hex"},
           {25, "ZZ", "non-hex token"},
       }) {
    EXPECT_FALSE(decodes(WithField(line, c.field, c.value))) << c.what;
  }
}

TEST(SerializeRobustnessTest, ReplayTokenRoundTrip) {
  ReplayToken token = MakeToken();
  std::string text = FormatReplayToken(token);
  EXPECT_EQ(text.find('\n'), std::string::npos) << "tokens must be single-line";
  std::optional<ReplayToken> parsed = ParseReplayToken(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, token);
  EXPECT_EQ(FormatReplayToken(*parsed), text);

  ReplayToken bare = token;  // Empty schedule codes as "-" and must round-trip.
  bare.schedule = RecordedSchedule{};
  std::optional<ReplayToken> bare_parsed = ParseReplayToken(FormatReplayToken(bare));
  ASSERT_TRUE(bare_parsed.has_value());
  EXPECT_EQ(*bare_parsed, bare);
}

TEST(SerializeRobustnessTest, ReplayTokenAdversarial) {
  std::string text = FormatReplayToken(MakeToken());
  EXPECT_FALSE(ParseReplayToken("").has_value());
  EXPECT_FALSE(ParseReplayToken("sb-replay-v1").has_value());
  EXPECT_FALSE(ParseReplayToken("complete garbage, not a token").has_value());
  // Any truncation breaks the trailing checksum (or the field structure outright).
  for (size_t cut = 1; cut < 8; cut++) {
    EXPECT_FALSE(ParseReplayToken(text.substr(0, text.size() - cut)).has_value())
        << "truncated by " << cut;
  }
  // A flipped byte anywhere — header, body, or inside the crc itself — must not parse.
  for (size_t pos : {size_t{0}, text.size() / 2, text.size() - 4}) {
    std::string bad = text;
    bad[pos] = bad[pos] == 'x' ? 'y' : 'x';
    EXPECT_FALSE(ParseReplayToken(bad).has_value()) << "flipped byte at " << pos;
  }
  EXPECT_FALSE(ParseReplayToken(text + " junk").has_value()) << "trailing junk";
  EXPECT_FALSE(ParseReplayToken(text + std::string(2 << 20, '.')).has_value())
      << "oversized input";
}

TEST(SerializeRobustnessTest, FieldCorruptionRejected) {
  // The fleet's done marker is one line of two counts. Any text but that exact line must
  // read as no marker (the campaign then re-adopts as queued), never as other counts.
  const std::string text = FormatDoneMarker(DoneMarker{12, 3});
  EXPECT_EQ(text, "sb-done-v1 12 3\n");
  std::optional<DoneMarker> parsed = ParseDoneMarker(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tests_executed, 12u);
  EXPECT_EQ(parsed->findings, 3u);
  parsed = ParseDoneMarker(FormatDoneMarker(DoneMarker{UINT64_MAX, 0}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tests_executed, UINT64_MAX);

  for (size_t cut = 0; cut < text.size(); cut++) {
    EXPECT_FALSE(ParseDoneMarker(text.substr(0, cut)).has_value()) << "cut at " << cut;
  }
  for (const char* bad : {
           "complete garbage\n",
           "sb-done-v2 12 3\n",
           "sb-done-v1 12 3 7\n",       // A trailing field.
           "sb-done-v1 12 3\njunk\n",   // A trailing line.
           "sb-done-v1 12 3 \n",
           "sb-done-v1  12 3\n",
           "sb-done-v1 12 3\r\n",
           "sb-done-v1 -1 3\n",         // Negative counts.
           "sb-done-v1 12 -3\n",
           "sb-done-v1 +12 3\n",
           "sb-done-v1 0x1 3\n",
           "sb-done-v1 18446744073709551616 3\n",  // Past 2^64-1.
           "sb-done-v1 12 18446744073709551616\n",
       }) {
    EXPECT_FALSE(ParseDoneMarker(bad).has_value()) << bad;
  }
  // A marker written before this format held the whole serialized result.
  EXPECT_FALSE(ParseDoneMarker(SerializePipelineResult(MakeResult())).has_value());
}

// --- Atomic file primitives (satellite: failed writes never leave partial files). ---

TEST(SerializeRobustnessTest, AtomicWriteToBadDirectoryLeavesNothing) {
  std::string path = TempPath("no_such_dir") + "/file.txt";
  EXPECT_FALSE(WriteStringToFile(path, "contents"));
  EXPECT_FALSE(PathExists(path));
  EXPECT_FALSE(PathExists(path + ".tmp"));
}

TEST(SerializeRobustnessTest, CrashBeforeRenameKeepsOldContents) {
  std::string path = TempPath("atomic.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "old contents"));

  FaultInjector::Plan plan;
  plan.crash_at = 0;  // The very first fault point is this write's "fs.commit".
  FaultInjector fault(plan);
  EXPECT_FALSE(AtomicWriteFile(path, "new contents", &fault));
  EXPECT_TRUE(fault.crashed());
  EXPECT_EQ(fault.crash_site(), "fs.commit");

  // The target is untouched; the orphan .tmp holds the aborted attempt, as after a real
  // crash between write and rename.
  EXPECT_EQ(ReadFileToString(path), "old contents");
  EXPECT_EQ(ReadFileToString(path + ".tmp"), "new contents");
}

TEST(SerializeRobustnessTest, CrashAfterRenameIsDurable) {
  std::string path = TempPath("atomic_after.txt");
  FaultInjector::Plan plan;
  plan.crash_at = 1;  // "fs.committed" — died after the rename.
  FaultInjector fault(plan);
  EXPECT_FALSE(AtomicWriteFile(path, "contents", &fault));
  EXPECT_EQ(ReadFileToString(path), "contents") << "post-rename crash must be durable";
}

// --- Checkpoint journals. ---

TEST(SerializeRobustnessTest, CheckpointStoreRejectsBadNamesAndMissingEntries) {
  std::string dir = TempPath("store_names");
  CheckpointStore store(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store.AppendJournal("", "x"));
  EXPECT_FALSE(store.AppendJournal("../escape", "x"));
  EXPECT_FALSE(store.AppendJournal("has space", "x"));
  EXPECT_TRUE(store.ReadJournal("../escape").empty());
  EXPECT_TRUE(store.ReadJournal("never_written").empty()) << "a missing journal reads empty";
  EXPECT_TRUE(store.AppendJournal("ok-name_1.txt", "x"));
  EXPECT_EQ(store.ReadJournal("ok-name_1.txt"), (std::vector<std::string>{"x"}));
  EXPECT_FALSE(PathExists(dir + "/../escape.journal"));
}

TEST(SerializeRobustnessTest, JournalReplayStopsAtCorruptTail) {
  std::string dir = TempPath("journal");
  CheckpointStore store(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.AppendJournal("exec", "record zero"));
  ASSERT_TRUE(store.AppendJournal("exec", "record one"));
  ASSERT_TRUE(store.AppendJournal("exec", "record two"));
  EXPECT_EQ(store.ReadJournal("exec"),
            (std::vector<std::string>{"record zero", "record one", "record two"}));

  // A crash-truncated final line: everything before it still replays.
  std::optional<std::string> raw = ReadFileContents(dir + "/exec.journal");
  ASSERT_TRUE(raw.has_value());
  {
    std::ofstream f(dir + "/exec.journal", std::ios::trunc | std::ios::binary);
    f << raw->substr(0, raw->size() - 5);
  }
  EXPECT_EQ(store.ReadJournal("exec"),
            (std::vector<std::string>{"record zero", "record one"}));

  // A flipped byte mid-journal ends replay at the corruption, dropping the tail.
  {
    std::ofstream f(dir + "/exec.journal", std::ios::trunc | std::ios::binary);
    std::string tampered = *raw;
    tampered[tampered.find("record one")] = 'X';
    f << tampered;
  }
  EXPECT_EQ(store.ReadJournal("exec"), (std::vector<std::string>{"record zero"}));

  EXPECT_FALSE(store.AppendJournal("exec", "two\nlines")) << "records must be single-line";
}

// A status poll reads a journal while its campaign group-commits to it: a final line cut
// mid-record is a commit in flight, not corruption, so the read-only reader returns the
// complete records and says nothing.
TEST(SerializeRobustnessTest, TornJournalTailDropsWithoutWarning) {
  std::string dir = TempPath("journal_torn");
  {
    CheckpointStore store(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.AppendJournal("exec", "record zero"));
    ASSERT_TRUE(store.AppendJournal("exec", "record one"));
  }
  std::optional<std::string> raw = ReadFileContents(dir + "/exec.journal");
  ASSERT_TRUE(raw.has_value());
  // Cut inside the second line: its checksum prefix survives, its payload does not.
  {
    std::ofstream f(dir + "/exec.journal", std::ios::trunc | std::ios::binary);
    f << raw->substr(0, raw->size() - 4);
  }
  LogLevel level = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  std::vector<std::string> records = ReadJournalFile(dir, "exec");
  std::string logged = ::testing::internal::GetCapturedStderr();
  SetLogLevel(level);
  EXPECT_EQ(records, (std::vector<std::string>{"record zero"}));
  EXPECT_EQ(logged, "");
}

// A complete line whose checksum fails is real corruption: the read stops there AND warns.
TEST(SerializeRobustnessTest, CorruptJournalLineWarns) {
  std::string dir = TempPath("journal_corrupt");
  {
    CheckpointStore store(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.AppendJournal("exec", "record zero"));
    ASSERT_TRUE(store.AppendJournal("exec", "record one"));
  }
  std::optional<std::string> raw = ReadFileContents(dir + "/exec.journal");
  ASSERT_TRUE(raw.has_value());
  {
    std::ofstream f(dir + "/exec.journal", std::ios::trunc | std::ios::binary);
    std::string tampered = *raw;
    tampered[tampered.find("record one")] = 'X';
    f << tampered;
  }
  LogLevel level = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  std::vector<std::string> records = ReadJournalFile(dir, "exec");
  std::string logged = ::testing::internal::GetCapturedStderr();
  SetLogLevel(level);
  EXPECT_EQ(records, (std::vector<std::string>{"record zero"}));
  EXPECT_NE(logged.find("failed checksum"), std::string::npos) << logged;
}

}  // namespace
}  // namespace snowboard
