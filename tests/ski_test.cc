// Tests for the SKI baseline schedulers and the §5.4 comparison harness.
#include <gtest/gtest.h>

#include "src/fuzz/generator.h"
#include "src/ski/baselines.h"
#include "src/snowboard/pipeline.h"

namespace snowboard {
namespace {

Access MakeAccess(AccessType type, GuestAddr addr, SiteId site, uint64_t value) {
  Access a;
  a.type = type;
  a.addr = addr;
  a.len = 4;
  a.site = site;
  a.value = value;
  return a;
}

TEST(SkiInstructionSchedulerTest, MatchesOnSiteRegardlessOfTarget) {
  PmcKey hint;
  hint.write = PmcSide{0x2000, 4, 11, 5};
  hint.read = PmcSide{0x3000, 4, 22, 0};
  SkiInstructionScheduler scheduler(hint);
  scheduler.SeedTrial(1);
  // Same site, totally different address AND value: SKI still considers a switch —
  // "regardless of memory targets" (§5.4).
  for (int i = 0; i < 64; i++) {
    scheduler.AfterAccess(0, MakeAccess(AccessType::kWrite, 0x9990, 11, 777));
  }
  EXPECT_EQ(scheduler.switches_considered(), 64u);
  // Unrelated site: never considered.
  scheduler.AfterAccess(0, MakeAccess(AccessType::kWrite, 0x2000, 99, 5));
  EXPECT_EQ(scheduler.switches_considered(), 64u);
}

TEST(SkiPctSchedulerTest, DeterministicChangePoints) {
  SkiPctScheduler a(3, 1000);
  SkiPctScheduler b(3, 1000);
  a.SeedTrial(5);
  b.SeedTrial(5);
  int switches_a = 0;
  int switches_b = 0;
  for (int i = 0; i < 1200; i++) {
    Access access = MakeAccess(AccessType::kRead, 0x2000, 1, 0);
    switches_a += a.AfterAccess(0, access) ? 1 : 0;
    switches_b += b.AfterAccess(0, access) ? 1 : 0;
  }
  EXPECT_EQ(switches_a, switches_b);
  EXPECT_LE(switches_a, 3);
  EXPECT_GE(switches_a, 1);
}

TEST(SkiPctSchedulerTest, DifferentSeedsDifferentSchedules) {
  SkiPctScheduler a(3, 10000);
  a.SeedTrial(1);
  SkiPctScheduler b(3, 10000);
  b.SeedTrial(2);
  std::vector<bool> decisions_a;
  std::vector<bool> decisions_b;
  for (int i = 0; i < 5000; i++) {
    Access access = MakeAccess(AccessType::kRead, 0x2000, 1, 0);
    decisions_a.push_back(a.AfterAccess(0, access));
    decisions_b.push_back(b.AfterAccess(0, access));
  }
  EXPECT_NE(decisions_a, decisions_b);
}

TEST(SkiPctSchedulerTest, ExploreCountsItsSwitches) {
  // The explorer counts a test's switch decisions whichever scheduler makes them, so a SKI
  // run's total covers at least the switches recorded by each of its findings' trials.
  KernelVm vm;
  std::vector<Program> seeds = SeedPrograms();
  ConcurrentTest test;
  test.writer = seeds[0];
  test.reader = seeds[1];
  test.write_test = 0;
  test.read_test = 1;
  ExplorerOptions options;
  options.num_trials = 8;
  SkiPctScheduler scheduler(3, 64);
  ExploreOutcome outcome =
      ExploreWithScheduler(vm, test, scheduler, /*check_channel=*/false, options);
  EXPECT_EQ(outcome.trials_run, 8);
  EXPECT_GT(outcome.switch_decisions, 0u);
  ASSERT_FALSE(outcome.findings.empty());
  for (const FindingRecord& record : outcome.findings) {
    EXPECT_GE(outcome.switch_decisions, record.orig_switches) << record.evidence;
  }
}

TEST(SkiComparisonTest, SnowboardExposesL2tpFasterThanSki) {
  // The §5.4 headline: PMC hints need far fewer interleavings than SKI's unguided search.
  KernelVm vm;
  std::vector<Program> seeds = SeedPrograms();
  std::vector<Program> corpus = {seeds[0], seeds[1]};
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  GuestAddr list_head = vm.globals().l2tp + 4;
  ConcurrentTest test;
  test.writer = corpus[0];
  test.reader = corpus[1];
  test.write_test = 0;
  test.read_test = 1;
  bool hint_found = false;
  for (const Pmc& pmc : pmcs) {
    if (pmc.key.write.addr == list_head && pmc.key.read.addr == list_head &&
        pmc.key.write.value != 0) {
      test.hint = pmc.key;
      hint_found = true;
      break;
    }
  }
  ASSERT_TRUE(hint_found);

  ExposeComparison comparison =
      CompareTrialsToExpose(vm, test, /*target_issue=*/12, /*max_trials=*/512, /*seed=*/3);
  EXPECT_TRUE(comparison.snowboard_found);
  // Snowboard's guided search must not be slower than SKI's unguided one; typically it is
  // one to two orders of magnitude faster (9.76 vs 826.29 interleavings in the paper).
  if (comparison.ski_found) {
    EXPECT_LE(comparison.snowboard_trials, comparison.ski_trials);
  } else {
    EXPECT_LT(comparison.snowboard_trials, 512);
  }
}

TEST(SkiHintsTest, InstructionHintedExplorationRuns) {
  KernelVm vm;
  std::vector<Program> seeds = SeedPrograms();
  ConcurrentTest test;
  test.writer = seeds[0];
  test.reader = seeds[1];
  test.write_test = 0;
  test.read_test = 1;
  ExplorerOptions options;
  options.num_trials = 4;
  ExploreOutcome outcome = ExploreWithSkiHints(vm, test, options);
  EXPECT_EQ(outcome.trials_run, 4);
}

}  // namespace
}  // namespace snowboard
