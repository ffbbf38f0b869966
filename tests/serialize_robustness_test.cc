// Round-trip and adversarial-input tests for the checkpoint serialization layer.
//
// The crash-safety story leans on one contract (serialize.h): a Deserialize* either
// returns the complete artifact or nullopt — truncation at any line boundary, a flipped
// version header, or junk bytes must be rejected, never crash, and never yield a silently
// half-loaded object. The same bar applies to CheckpointStore (manifest-hash verification)
// and to the atomic file primitives (a failed write leaves no partial file).
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <unistd.h>
#include <vector>

#include "src/snowboard/checkpoint.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/serialize.h"
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

SequentialProfile MakeProfile(int test_id) {
  SequentialProfile profile;
  profile.test_id = test_id;
  profile.ok = true;
  profile.program = MakeProgram(1);
  SharedAccess write;
  write.type = AccessType::kWrite;
  write.marked_atomic = false;
  write.df_leader = false;
  write.len = 8;
  write.addr = 0xfffffff8u;  // Exercises the full GuestAddr range.
  write.value = 0xdeadbeefcafef00dull;
  write.site = 0x9b3e02ad11aa77ccull;  // High bit set: must not parse as signed.
  write.index = 3;
  profile.accesses.push_back(write);
  SharedAccess read = write;
  read.type = AccessType::kRead;
  read.df_leader = true;
  read.len = 4;
  read.index = 4;
  profile.accesses.push_back(read);
  return profile;
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
  record.trials_retried = 2;
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

// Every proper prefix of `text` ending at a line boundary (and a mid-line cut) must be
// rejected. `deserializes` reports whether a candidate string parses.
void ExpectTruncationsRejected(const std::string& text,
                               const std::function<bool(const std::string&)>& deserializes) {
  ASSERT_TRUE(deserializes(text)) << "the untruncated text must parse";
  EXPECT_FALSE(deserializes("")) << "empty input";
  for (size_t pos = 0; pos + 1 < text.size(); pos++) {
    if (text[pos] != '\n') {
      continue;
    }
    std::string prefix = text.substr(0, pos + 1);
    EXPECT_FALSE(deserializes(prefix)) << "line-boundary truncation at byte " << (pos + 1);
  }
  EXPECT_FALSE(deserializes(text.substr(0, text.size() - 2))) << "mid-line truncation";
}

// A flipped version header and plain junk must be rejected without crashing.
void ExpectHeaderAndJunkRejected(const std::string& text,
                                 const std::function<bool(const std::string&)>& deserializes) {
  std::string flipped = text;
  size_t v = flipped.find("-v");  // Any "-v<digit>" header version, not just v1.
  while (v != std::string::npos && !(v + 2 < flipped.size() && isdigit(flipped[v + 2]))) {
    v = flipped.find("-v", v + 1);
  }
  ASSERT_NE(v, std::string::npos);
  flipped[v + 2] = '9';
  EXPECT_FALSE(deserializes(flipped)) << "flipped version header";
  EXPECT_FALSE(deserializes("complete garbage\nnot even close\n"));
  std::string binary;
  for (int i = 0; i < 256; i++) {
    binary.push_back(static_cast<char>(i));
  }
  EXPECT_FALSE(deserializes(binary));
}

// --- Round trips. ---

TEST(SerializeRobustnessTest, ProfilesRoundTrip) {
  std::vector<SequentialProfile> profiles = {MakeProfile(0), MakeProfile(3)};
  profiles[1].ok = false;
  profiles[1].accesses.clear();
  std::string text = SerializeProfiles(profiles);
  std::optional<std::vector<SequentialProfile>> loaded = DeserializeProfiles(text);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), profiles.size());
  for (size_t i = 0; i < profiles.size(); i++) {
    EXPECT_EQ((*loaded)[i].test_id, profiles[i].test_id);
    EXPECT_EQ((*loaded)[i].ok, profiles[i].ok);
    EXPECT_EQ((*loaded)[i].program, profiles[i].program);
    EXPECT_EQ((*loaded)[i].accesses, profiles[i].accesses);
  }
  // Serialization is canonical: a round trip reproduces the text bytes.
  EXPECT_EQ(SerializeProfiles(*loaded), text);
}

TEST(SerializeRobustnessTest, ConcurrentTestsRoundTrip) {
  std::vector<ConcurrentTest> tests = {MakeTest()};
  ConcurrentTest baseline;  // Baseline pairing: default hint (len 0), empty programs OK.
  baseline.write_test = 1;
  baseline.read_test = 1;
  baseline.writer = MakeProgram(1);
  baseline.reader = MakeProgram(1);
  tests.push_back(baseline);
  std::string text = SerializeConcurrentTests(tests, 17);
  std::optional<SerializedTests> loaded = DeserializeConcurrentTests(text);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cluster_count, 17u);
  ASSERT_EQ(loaded->tests.size(), tests.size());
  for (size_t i = 0; i < tests.size(); i++) {
    EXPECT_EQ(loaded->tests[i].writer, tests[i].writer);
    EXPECT_EQ(loaded->tests[i].reader, tests[i].reader);
    EXPECT_EQ(loaded->tests[i].write_test, tests[i].write_test);
    EXPECT_EQ(loaded->tests[i].read_test, tests[i].read_test);
    EXPECT_EQ(loaded->tests[i].hint, tests[i].hint);
    EXPECT_EQ(loaded->tests[i].cluster_key, tests[i].cluster_key);
    EXPECT_EQ(loaded->tests[i].cluster_size, tests[i].cluster_size);
  }
  EXPECT_EQ(SerializeConcurrentTests(loaded->tests, loaded->cluster_count), text);
}

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
  EXPECT_EQ(loaded->trials_retried, 2);
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

TEST(SerializeRobustnessTest, FindingsRoundTrip) {
  FindingsLog findings = MakeFindings();
  std::string text = SerializeFindings(findings);
  std::optional<FindingsLog> loaded = DeserializeFindings(text);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->total_findings(), findings.total_findings());
  ASSERT_EQ(loaded->first_findings().size(), findings.first_findings().size());
  for (const auto& [id, finding] : findings.first_findings()) {
    ASSERT_TRUE(loaded->Found(id));
    const Finding& got = loaded->first_findings().at(id);
    EXPECT_EQ(got.evidence, finding.evidence);
    EXPECT_EQ(got.test_index, finding.test_index);
    EXPECT_EQ(got.trial, finding.trial);
    EXPECT_EQ(got.duplicate_input, finding.duplicate_input);
  }
  EXPECT_EQ(SerializeFindings(*loaded), text);
}

TEST(SerializeRobustnessTest, PipelineResultRoundTrip) {
  PipelineResult result = MakeResult();
  std::string text = SerializePipelineResult(result);
  std::optional<PipelineResult> loaded = DeserializePipelineResult(text);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(SerializePipelineResult(*loaded), text);
  EXPECT_EQ(loaded->corpus_size, result.corpus_size);
  EXPECT_EQ(loaded->pmc_table_digest, result.pmc_table_digest);
  EXPECT_EQ(loaded->findings.total_findings(), result.findings.total_findings());
  // Timings and resume bookkeeping are run-shape dependent and deliberately excluded.
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

TEST(SerializeRobustnessTest, ProfilesAdversarial) {
  std::string text = SerializeProfiles({MakeProfile(0), MakeProfile(1)});
  auto parses = [](const std::string& t) { return DeserializeProfiles(t).has_value(); };
  ExpectTruncationsRejected(text, parses);
  ExpectHeaderAndJunkRejected(text, parses);
}

TEST(SerializeRobustnessTest, ConcurrentTestsAdversarial) {
  std::string text = SerializeConcurrentTests({MakeTest(), MakeTest()}, 3);
  auto parses = [](const std::string& t) {
    return DeserializeConcurrentTests(t).has_value();
  };
  ExpectTruncationsRejected(text, parses);
  ExpectHeaderAndJunkRejected(text, parses);
}

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
  EXPECT_FALSE(decodes(WithField(line, 0, "sb-outcome-v4"))) << "wrong tag";
  EXPECT_FALSE(decodes("41 " + HexEncode("snowboard-outcome-v4\n") + " 0"))
      << "an earlier-format record fails on its first field";
  EXPECT_FALSE(decodes("complete garbage, not a record"));

  // Fields: 0 tag, 1 test index, 2-4 trials run/retried/pruned, 5 saturated, 6 switch
  // decisions, 7 bug found, 8 channel exercised, 9-10 schedule switches, 11 total,
  // 12 entries; then seven per finding (issue ids 0, 1, 11 in map order): issue id,
  // test index, trial, duplicate, kind, evidence, token; then "end".
  struct Case {
    size_t field;
    const char* value;
    const char* what;
  };
  for (const Case& c : std::vector<Case>{
           {12, "4", "inflated finding count"},
           {11, "2", "more entries than the total"},
           {11, "-1", "negative total"},
           {2, "-1", "negative trial count"},
           {2, "4294967296", "trial count past int"},
           {5, "2", "saturated flag outside {0,1}"},
           {7, "2", "bug flag outside {0,1}"},
           {8, "-1", "channel flag outside {0,1}"},
           {20, "0", "duplicate issue id"},
           {21, "40", "a finding of another test"},
           {16, "2", "duplicate-input flag outside {0,1}"},
           {17, "6", "kind above 5"},
           {17, "-1", "negative kind"},
           {25, "abc", "odd-length evidence hex"},
           {26, "ZZ", "non-hex token"},
       }) {
    EXPECT_FALSE(decodes(WithField(line, c.field, c.value))) << c.what;
  }
}

TEST(SerializeRobustnessTest, FindingsAdversarial) {
  std::string text = SerializeFindings(MakeFindings());
  auto parses = [](const std::string& t) { return DeserializeFindings(t).has_value(); };
  ExpectTruncationsRejected(text, parses);
  ExpectHeaderAndJunkRejected(text, parses);
}

TEST(SerializeRobustnessTest, PipelineResultAdversarial) {
  std::string text = SerializePipelineResult(MakeResult());
  auto parses = [](const std::string& t) {
    return DeserializePipelineResult(t).has_value();
  };
  ExpectTruncationsRejected(text, parses);
  ExpectHeaderAndJunkRejected(text, parses);
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
  // Flipping a count or a bounded field must be caught by validation, not crash.
  std::string bad = SerializeFindings(MakeFindings());
  size_t entries_pos = bad.find("entries 2");
  ASSERT_NE(entries_pos, std::string::npos);
  bad.replace(entries_pos, 9, "entries 9");
  EXPECT_FALSE(DeserializeFindings(bad).has_value()) << "count larger than total";
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

// --- CheckpointStore verification. ---

TEST(SerializeRobustnessTest, CheckpointStoreRejectsCorruptAndTruncatedEntries) {
  std::string dir = TempPath("store");
  CheckpointStore store(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.Put("artifact", "precious bytes, hashed in the manifest"));
  ASSERT_TRUE(store.Get("artifact").has_value());

  {
    std::ofstream f(dir + "/artifact", std::ios::trunc);  // Truncate behind the manifest.
    f << "precious";
  }
  CheckpointStore reopened(dir);
  EXPECT_FALSE(reopened.Get("artifact").has_value()) << "truncated entry must not load";

  ASSERT_TRUE(store.Put("artifact", "precious bytes, hashed in the manifest"));
  {
    std::fstream f(dir + "/artifact", std::ios::in | std::ios::out);
    f.seekp(3);
    f.put('X');  // Same size, flipped byte: caught by the content hash.
  }
  CheckpointStore reopened2(dir);
  EXPECT_FALSE(reopened2.Get("artifact").has_value()) << "corrupt entry must not load";
}

TEST(SerializeRobustnessTest, CheckpointStoreRejectsBadNamesAndMissingEntries) {
  std::string dir = TempPath("store_names");
  CheckpointStore store(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store.Put("", "x"));
  EXPECT_FALSE(store.Put("../escape", "x"));
  EXPECT_FALSE(store.Put("has space", "x"));
  EXPECT_FALSE(store.Put("MANIFEST", "x")) << "the manifest name is reserved";
  EXPECT_FALSE(store.Get("never_written").has_value());
  EXPECT_TRUE(store.Put("ok-name_1.txt", "x"));
  EXPECT_EQ(store.Get("ok-name_1.txt"), "x");
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

TEST(SerializeRobustnessTest, TamperedManifestIsIgnoredWholesale) {
  std::string dir = TempPath("manifest");
  {
    CheckpointStore store(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.Put("a", "alpha"));
    ASSERT_TRUE(store.Put("b", "beta"));
  }
  std::optional<std::string> manifest = ReadFileContents(dir + "/MANIFEST");
  ASSERT_TRUE(manifest.has_value());
  {
    std::ofstream f(dir + "/MANIFEST", std::ios::trunc | std::ios::binary);
    f << *manifest << "entry ../evil 5 0123456789abcdef\n";
  }
  CheckpointStore reopened(dir);
  EXPECT_EQ(reopened.entry_count(), 0u)
      << "a manifest with any malformed line is fully suspect";
  EXPECT_FALSE(reopened.Get("a").has_value());
}

}  // namespace
}  // namespace snowboard
