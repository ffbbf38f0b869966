// Tests for deterministic bug reproduction (§6): schedule recording, the compact string
// form, replay fidelity, and end-to-end token replay of the Figure 1 panic.
#include <gtest/gtest.h>

#include "src/fuzz/generator.h"
#include "src/snowboard/minimize.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/replay.h"
#include "src/snowboard/serialize.h"

namespace snowboard {
namespace {

TEST(RecordedScheduleTest, StringRoundTrip) {
  RecordedSchedule schedule;
  schedule.switch_after = {false, false, true, false, true};
  EXPECT_EQ(schedule.ToString(), "..S.S");
  EXPECT_EQ(RecordedSchedule::FromString("..S.S"), schedule);
  EXPECT_EQ(RecordedSchedule::FromString(""), RecordedSchedule{});
}

TEST(RecordingSchedulerTest, RecordsInnerDecisions) {
  RandomPreemptScheduler inner(/*period=*/2);
  RecordingScheduler recorder(&inner);
  recorder.SeedTrial(3);
  Access access;
  access.type = AccessType::kRead;
  access.addr = 0x2000;
  access.len = 4;
  int switches = 0;
  for (int i = 0; i < 100; i++) {
    switches += recorder.AfterAccess(0, access) ? 1 : 0;
  }
  ASSERT_EQ(recorder.schedule().switch_after.size(), 100u);
  int recorded = 0;
  for (bool decision : recorder.schedule().switch_after) {
    recorded += decision ? 1 : 0;
  }
  EXPECT_EQ(recorded, switches);
  EXPECT_GT(switches, 10);  // Period 2: roughly half.
}

TEST(RecordedScheduleTest, FromStringRejectsJunk) {
  // Any character outside the '.'/'S' alphabet is adversarial input, not a recording.
  EXPECT_FALSE(RecordedSchedule::FromString("..X.S").has_value());
  EXPECT_FALSE(RecordedSchedule::FromString("..s").has_value());  // Lowercase.
  EXPECT_FALSE(RecordedSchedule::FromString(". S").has_value());
  EXPECT_FALSE(RecordedSchedule::FromString("..S\n").has_value());
  EXPECT_FALSE(RecordedSchedule::FromString(std::string(1, '\0')).has_value());
  // Oversized: past the instruction-budget bound, reject instead of allocating.
  EXPECT_FALSE(
      RecordedSchedule::FromString(std::string(kMaxScheduleLength + 1, '.')).has_value());
  ASSERT_TRUE(
      RecordedSchedule::FromString(std::string(kMaxScheduleLength, '.')).has_value());
}

TEST(ReplaySchedulerTest, ReappliesDecisionsThenStops) {
  ReplayScheduler replayer(*RecordedSchedule::FromString("S.S"));
  replayer.SeedTrial(0);
  Access access;
  EXPECT_TRUE(replayer.AfterAccess(0, access));
  EXPECT_FALSE(replayer.AfterAccess(1, access));
  EXPECT_TRUE(replayer.AfterAccess(0, access));
  EXPECT_FALSE(replayer.AfterAccess(0, access));  // Past the recording: never switch.
  EXPECT_FALSE(replayer.AfterAccess(1, access));
}

class ReplayE2eTest : public ::testing::Test {
 protected:
  // Builds the Figure 1 concurrent test with its registration-PMC hint.
  static ConcurrentTest BuildL2tpTest(KernelVm& vm) {
    std::vector<Program> seeds = SeedPrograms();
    std::vector<Program> corpus = {seeds[0], seeds[1]};
    std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
    std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
    ConcurrentTest test;
    test.writer = corpus[0];
    test.reader = corpus[1];
    GuestAddr list_head = vm.globals().l2tp + 4;
    for (const Pmc& pmc : pmcs) {
      if (pmc.key.write.addr == list_head && pmc.key.read.addr == list_head &&
          pmc.key.write.value != 0) {
        test.hint = pmc.key;
        break;
      }
    }
    return test;
  }
};

// The shippable-reproducer property: every finding the explorer records — after
// delta-debugging minimization — renders to a token whose textual round trip is the
// identity and whose replay produces the exact recorded detector fingerprint.
TEST_F(ReplayE2eTest, TokenRoundTripReproducesFingerprint) {
  KernelVm vm;
  ConcurrentTest test = BuildL2tpTest(vm);
  ExplorerOptions options;
  options.num_trials = 24;
  ExploreOutcome outcome = ExploreConcurrentTest(vm, test, /*matcher=*/nullptr, options);
  ASSERT_FALSE(outcome.findings.empty()) << "no finding recorded within the trial budget";
  for (const FindingRecord& record : outcome.findings) {
    EXPECT_LE(record.min_switches, record.orig_switches);
    std::optional<ReplayToken> token = MakeReplayToken(test, record, options);
    ASSERT_TRUE(token.has_value());

    std::string text = FormatReplayToken(*token);
    std::optional<ReplayToken> parsed = ParseReplayToken(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, *token);

    ReplayVerdict verdict = ReplayTokenTrial(vm, *parsed);
    EXPECT_TRUE(verdict.fingerprint_match)
        << "record kind " << FindingKindName(record.kind) << " trial " << record.trial
        << ": expected " << record.fingerprint << ", observed " << verdict.fingerprint;
  }
}

// Minimization must never return a schedule the probe did not accept: a probe that always
// fails leaves the original recording untouched, and a probe that accepts everything
// shrinks to the empty schedule.
TEST(MinimizeScheduleTest, ProbeContract) {
  RecordedSchedule schedule = *RecordedSchedule::FromString("..S.S..S.S..S...S..S");
  MinimizeOptions options;
  MinimizeStats stats;

  RecordedSchedule untouched = MinimizeSchedule(
      schedule, [](const RecordedSchedule&) { return false; }, options, &stats);
  EXPECT_EQ(untouched, schedule);
  EXPECT_FALSE(stats.reproduced);

  RecordedSchedule empty = MinimizeSchedule(
      schedule, [](const RecordedSchedule&) { return true; }, options, &stats);
  EXPECT_TRUE(stats.reproduced);
  EXPECT_EQ(empty.SwitchCount(), 0u);
  EXPECT_EQ(stats.min_switches, 0u);
  EXPECT_EQ(stats.orig_switches, 7u);
}

// ddmin against a ground-truth predicate: the finding "reproduces" iff switches survive at
// two specific positions; the minimizer must isolate exactly that 2-preemption core.
TEST(MinimizeScheduleTest, ShrinksToTheTwoLoadBearingSwitches) {
  RecordedSchedule schedule;
  schedule.switch_after.assign(64, false);
  for (size_t i = 3; i < 64; i += 7) {
    schedule.switch_after[i] = true;  // 9 switches; only two matter.
  }
  auto probe = [](const RecordedSchedule& candidate) {
    auto has = [&](size_t i) {
      return i < candidate.switch_after.size() && candidate.switch_after[i];
    };
    return has(10) && has(31);
  };
  MinimizeOptions options;
  options.max_probes = 64;
  MinimizeStats stats;
  RecordedSchedule minimized = MinimizeSchedule(schedule, probe, options, &stats);
  EXPECT_TRUE(stats.reproduced);
  EXPECT_EQ(minimized.SwitchCount(), 2u);
  EXPECT_EQ(stats.min_switches, 2u);
  EXPECT_EQ(minimized.switch_after.size(), 32u);  // Truncated right after position 31.
  EXPECT_TRUE(minimized.switch_after[10]);
  EXPECT_TRUE(minimized.switch_after[31]);
}

TEST_F(ReplayE2eTest, CorruptedScheduleDoesNotReproduce) {
  KernelVm vm;
  ConcurrentTest test = BuildL2tpTest(vm);
  ExplorerOptions options;
  options.num_trials = 64;
  options.target_issue = 12;
  ExploreOutcome outcome = ExploreConcurrentTest(vm, test, /*matcher=*/nullptr, options);
  std::optional<ReplayToken> token;
  for (const FindingRecord& record : outcome.findings) {
    if (record.kind == FindingKind::kPanic) {
      token = MakeReplayToken(test, record, options);
      break;
    }
  }
  ASSERT_TRUE(token.has_value()) << "no panic recorded within the trial budget";
  ASSERT_GT(token->schedule.SwitchCount(), 0u);
  ASSERT_TRUE(ReplayTokenTrial(vm, *token).fingerprint_match);
  // Remove every switch: the serialized no-preemption run cannot hit the window.
  ReplayToken broken = *token;
  broken.schedule.switch_after.assign(token->schedule.switch_after.size(), false);
  ReplayVerdict verdict = ReplayTokenTrial(vm, broken);
  EXPECT_FALSE(verdict.fingerprint_match);
  EXPECT_FALSE(verdict.detectors.panicked);
}

}  // namespace
}  // namespace snowboard
