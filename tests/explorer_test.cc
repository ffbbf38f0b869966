// Tests for Algorithm 2: the PmcScheduler mechanics (flags, performed/coming matching,
// per-trial reseeding), the PmcMatcher, and end-to-end PMC-guided bug exposure.
#include <gtest/gtest.h>

#include "src/fuzz/generator.h"
#include "src/snowboard/explorer.h"
#include "src/snowboard/pipeline.h"

namespace snowboard {
namespace {

Access MakeAccess(VcpuId vcpu, AccessType type, GuestAddr addr, SiteId site, uint64_t value) {
  Access a;
  a.type = type;
  a.vcpu = vcpu;
  a.addr = addr;
  a.len = 4;
  a.site = site;
  a.value = value;
  return a;
}

PmcKey MakeHint() {
  PmcKey hint;
  hint.write = PmcSide{0x2000, 4, 11, 5};
  hint.read = PmcSide{0x2000, 4, 22, 0};
  return hint;
}

TEST(PmcSchedulerTest, PerformedPmcAccessAddsFlag) {
  PmcScheduler scheduler;
  scheduler.ResetForTest(MakeHint());
  scheduler.SeedTrial(1);
  EXPECT_EQ(scheduler.flag_count(), 0u);
  // Some unrelated access first (becomes last_access), then the PMC write.
  scheduler.AfterAccess(0, MakeAccess(0, AccessType::kRead, 0x9000, 77, 1));
  scheduler.AfterAccess(0, MakeAccess(0, AccessType::kWrite, 0x2000, 11, 5));
  EXPECT_EQ(scheduler.flag_count(), 1u);  // The previous access became a flag.
}

TEST(PmcSchedulerTest, NoFlagWithoutPreviousAccess) {
  PmcScheduler scheduler;
  scheduler.ResetForTest(MakeHint());
  scheduler.SeedTrial(1);
  scheduler.AfterAccess(0, MakeAccess(0, AccessType::kWrite, 0x2000, 11, 5));
  EXPECT_EQ(scheduler.flag_count(), 0u);  // First access of the thread: nothing to flag.
}

TEST(PmcSchedulerTest, FlagsPersistAcrossTrialsLastAccessDoesNot) {
  PmcScheduler scheduler;
  scheduler.ResetForTest(MakeHint());
  scheduler.SeedTrial(1);
  scheduler.AfterAccess(0, MakeAccess(0, AccessType::kRead, 0x9000, 77, 1));
  scheduler.AfterAccess(0, MakeAccess(0, AccessType::kWrite, 0x2000, 11, 5));
  ASSERT_EQ(scheduler.flag_count(), 1u);
  scheduler.SeedTrial(2);  // New trial: flags kept, last_access reset.
  EXPECT_EQ(scheduler.flag_count(), 1u);
  scheduler.AfterAccess(0, MakeAccess(0, AccessType::kWrite, 0x2000, 11, 5));
  EXPECT_EQ(scheduler.flag_count(), 1u);  // No previous access this trial: no new flag.
}

TEST(PmcSchedulerTest, SwitchDecisionsAreSeededCoinFlips) {
  // Run the same access sequence twice with the same trial seed: identical decisions.
  for (int rep = 0; rep < 2; rep++) {
    PmcScheduler a;
    PmcScheduler b;
    a.ResetForTest(MakeHint());
    b.ResetForTest(MakeHint());
    a.SeedTrial(42);
    b.SeedTrial(42);
    for (int i = 0; i < 50; i++) {
      Access access = MakeAccess(0, AccessType::kWrite, 0x2000, 11, 5);
      EXPECT_EQ(a.AfterAccess(0, access), b.AfterAccess(0, access));
    }
  }
}

TEST(PmcSchedulerTest, NonPmcAccessNeverSwitches) {
  PmcScheduler scheduler;
  scheduler.ResetForTest(MakeHint());
  scheduler.SeedTrial(3);
  for (int i = 0; i < 200; i++) {
    EXPECT_FALSE(
        scheduler.AfterAccess(0, MakeAccess(0, AccessType::kRead, 0x7000, 50, i)));
  }
}

TEST(PmcSchedulerTest, ValueMismatchDoesNotMatch) {
  PmcScheduler scheduler;
  scheduler.ResetForTest(MakeHint());
  scheduler.SeedTrial(3);
  scheduler.AfterAccess(0, MakeAccess(0, AccessType::kRead, 0x9000, 77, 1));
  // Same site/addr but different value: full-feature comparison must reject.
  scheduler.AfterAccess(0, MakeAccess(0, AccessType::kWrite, 0x2000, 11, 999));
  EXPECT_EQ(scheduler.flag_count(), 0u);
}

TEST(PmcSchedulerTest, AddPmcExtendsMatching) {
  PmcScheduler scheduler;
  scheduler.ResetForTest(MakeHint());
  scheduler.SeedTrial(3);
  PmcKey extra;
  extra.write = PmcSide{0x5000, 4, 33, 9};
  extra.read = PmcSide{0x5000, 4, 44, 1};
  scheduler.AddPmc(extra);
  scheduler.AfterAccess(1, MakeAccess(1, AccessType::kRead, 0x9000, 77, 1));
  scheduler.AfterAccess(1, MakeAccess(1, AccessType::kWrite, 0x5000, 33, 9));
  EXPECT_EQ(scheduler.flag_count(), 1u);
  EXPECT_EQ(scheduler.current_pmcs().size(), 2u);
}

TEST(PmcMatcherTest, FindsPmcsByWriteFeature) {
  std::vector<Pmc> pmcs;
  Pmc pmc;
  pmc.key = MakeHint();
  pmcs.push_back(pmc);
  PmcMatcher matcher(&pmcs);
  uint64_t h = AccessFeatureHash(AccessType::kWrite, 0x2000, 4, 11, 5);
  const std::vector<uint32_t>* candidates = matcher.CandidatesForWrite(h);
  ASSERT_NE(candidates, nullptr);
  EXPECT_EQ(candidates->size(), 1u);
  EXPECT_EQ(matcher.CandidatesForWrite(12345), nullptr);
}

// --- End-to-end exposure of the Figure 1 bug via Algorithm 2. ---

class ExplorerE2eTest : public ::testing::Test {
 protected:
  // Builds the l2tp concurrent test (Figure 1) with the real list-publish PMC as hint.
  ConcurrentTest BuildL2tpTest(KernelVm& vm) {
    std::vector<Program> seeds = SeedPrograms();
    std::vector<Program> corpus = {seeds[0], seeds[1]};  // Writer and reader tests.
    std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
    std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
    GuestAddr list_head = vm.globals().l2tp + 4;
    ConcurrentTest test;
    test.writer = corpus[0];
    test.reader = corpus[1];
    test.write_test = 0;
    test.read_test = 1;
    for (const Pmc& pmc : pmcs) {
      if (pmc.key.write.addr == list_head && pmc.key.read.addr == list_head &&
          pmc.key.write.value != 0) {
        test.hint = pmc.key;
        return test;
      }
    }
    ADD_FAILURE() << "l2tp publish PMC not identified";
    return test;
  }
};

TEST_F(ExplorerE2eTest, PmcHintExposesL2tpBugWithinBudget) {
  KernelVm vm;
  ConcurrentTest test = BuildL2tpTest(vm);
  ExplorerOptions options;
  options.num_trials = 64;
  options.seed = 2021;
  options.target_issue = 12;  // Stop once the l2tp panic itself fires.
  ExploreOutcome outcome = ExploreConcurrentTest(vm, test, nullptr, options);
  EXPECT_TRUE(outcome.bug_found);
  EXPECT_TRUE(outcome.target_found);
  ASSERT_FALSE(outcome.panic_messages.empty());
  bool saw_null_deref = false;
  for (const std::string& message : outcome.panic_messages) {
    saw_null_deref =
        saw_null_deref || message.find("NULL pointer dereference") != std::string::npos;
  }
  EXPECT_TRUE(saw_null_deref);
  EXPECT_LT(outcome.first_target_trial, 64);
}

TEST_F(ExplorerE2eTest, ChannelExercisedReported) {
  KernelVm vm;
  ConcurrentTest test = BuildL2tpTest(vm);
  ExplorerOptions options;
  options.num_trials = 64;
  options.seed = 5;
  ExploreOutcome outcome = ExploreConcurrentTest(vm, test, nullptr, options);
  EXPECT_TRUE(outcome.channel_exercised);  // The predicted channel actually carried data.
}

TEST_F(ExplorerE2eTest, DeterministicAcrossRuns) {
  KernelVm vm_a;
  KernelVm vm_b;
  ConcurrentTest test_a = BuildL2tpTest(vm_a);
  ConcurrentTest test_b = BuildL2tpTest(vm_b);
  ExplorerOptions options;
  options.num_trials = 16;
  options.seed = 99;
  ExploreOutcome a = ExploreConcurrentTest(vm_a, test_a, nullptr, options);
  ExploreOutcome b = ExploreConcurrentTest(vm_b, test_b, nullptr, options);
  EXPECT_EQ(a.bug_found, b.bug_found);
  EXPECT_EQ(a.first_bug_trial, b.first_bug_trial);
  EXPECT_EQ(a.trials_run, b.trials_run);
}

TEST_F(ExplorerE2eTest, BaselineSchedulerAlsoRuns) {
  KernelVm vm;
  ConcurrentTest test = BuildL2tpTest(vm);
  ExplorerOptions options;
  options.num_trials = 8;
  RandomPreemptScheduler scheduler;
  ExploreOutcome outcome =
      ExploreWithScheduler(vm, test, scheduler, /*check_channel=*/false, options);
  EXPECT_EQ(outcome.trials_run, 8);  // No early stop configured: all trials run.
}

}  // namespace
}  // namespace snowboard
