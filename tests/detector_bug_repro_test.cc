// End-to-end reproducers for the seeded deadlock / lost-wakeup / livelock issues
// (#18-#22): each test drives the two-vCPU explorer at the buggy kernel path with the
// baseline random-preempt scheduler and asserts that the matching hang-gated detector
// fires, that its witness names the right kernel objects, and that the triage classifier
// maps the witness to the right catalog id. Each witness comes from replaying the
// finding's record, which must reproduce the record's detector fingerprint. These are the
// `detectors`-label analog of bug_repro_test.cc: the campaign-level suite proves the 17
// Table 2 issues stay found, this suite proves the detector prey is found by the NEW
// detectors (the fuzzer's frozen vocabulary never reaches these syscalls, so only
// handcrafted tests can). The FindingRecordTest suite at the end pins where a targeted
// run stops and the order an outcome's finding records come in.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>

#include "src/fuzz/generator.h"
#include "src/fuzz/program.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/ipc/port.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscalls.h"
#include "src/sim/site.h"
#include "src/snowboard/explorer.h"
#include "src/snowboard/pmc.h"
#include "src/snowboard/profile.h"
#include "src/snowboard/replay.h"
#include "src/snowboard/report.h"

namespace snowboard {
namespace {

Call MakeCall(uint32_t nr, std::initializer_list<int64_t> args) {
  Call call;
  call.nr = nr;
  int i = 0;
  for (int64_t a : args) {
    call.args[i++] = Arg::Const(a);
  }
  return call;
}

Program MakeProgram(std::initializer_list<Call> calls) {
  Program p;
  p.calls = calls;
  return p;
}

// One explored test, with what replaying its records needs.
struct Explored {
  ConcurrentTest test;
  ExplorerOptions options;
  ExploreOutcome outcome;
};

// Explores writer-vs-reader with the PMC-blind random-preempt scheduler. The seeded
// windows are a handful of accesses wide, so a couple hundred preemption-randomized
// trials expose each one deterministically (fixed seed, serialized engine).
Explored Explore(const Program& writer, const Program& reader, uint64_t seed,
                 int trials = 256, uint64_t max_instructions = 400'000) {
  KernelVm vm;
  Explored explored;
  explored.test.writer = writer;
  explored.test.reader = reader;
  explored.test.write_test = 0;
  explored.test.read_test = 1;
  explored.options.num_trials = trials;
  explored.options.seed = seed;
  explored.options.max_instructions = max_instructions;
  RandomPreemptScheduler scheduler(/*period=*/8);
  explored.outcome = ExploreWithScheduler(vm, explored.test, scheduler,
                                          /*check_channel=*/false, explored.options);
  return explored;
}

// A witness: the detector output of a record's replay, and where the recorded finding sits
// in it.
struct Witness {
  DetectorResult replayed;
  uint32_t index = 0;  // Within the section of the record's kind.
};

// Replays every record of `explored` through its replay token, requiring each replay to
// reproduce the record's detector fingerprint and to report the recorded finding. Returns
// the witness of the first record of `kind`, or nullopt when there is none.
std::optional<Witness> ReplayRecords(const Explored& explored, FindingKind kind) {
  KernelVm vm;
  std::optional<Witness> witness;
  for (const FindingRecord& record : explored.outcome.findings) {
    std::optional<ReplayToken> token = MakeReplayToken(explored.test, record,
                                                       explored.options);
    if (!token.has_value()) {
      ADD_FAILURE() << "unparseable schedule in a " << FindingKindName(record.kind)
                    << " record";
      continue;
    }
    ReplayVerdict verdict = ReplayTokenTrial(vm, *token);
    EXPECT_EQ(verdict.fingerprint, record.fingerprint)
        << "replay of a " << FindingKindName(record.kind) << " record diverged";
    std::vector<FindingKey> keys;
    FindingKeys(verdict.detectors, &keys);
    auto found = std::find_if(keys.begin(), keys.end(), [&](const FindingKey& key) {
      return key.kind == record.kind && key.key == record.key;
    });
    if (found == keys.end()) {
      ADD_FAILURE() << "replay does not report the recorded "
                    << FindingKindName(record.kind);
      continue;
    }
    if (record.kind == kind && !witness.has_value()) {
      witness = Witness{std::move(verdict.detectors), found->index};
    }
  }
  return witness;
}

bool HasKind(const ExploreOutcome& outcome, FindingKind kind) {
  return std::any_of(outcome.findings.begin(), outcome.findings.end(),
                     [&](const FindingRecord& record) { return record.kind == kind; });
}

bool SiteNamed(SiteId site, const char* fn) {
  return site != kInvalidSite && SiteName(site).find(fn) != std::string::npos;
}

// --- #18: port_recv() re-samples the wait-channel generation after its empty check. ---
TEST(DetectorBugReproTest, Issue18LostWakeupRecvVsSend) {
  Program sender = MakeProgram({MakeCall(kSysPortSend, {0})});
  Program receiver = MakeProgram({MakeCall(kSysPortRecv, {0, kPortRecvWait})});
  Explored explored = Explore(sender, receiver, /*seed=*/2021);
  std::optional<Witness> witness = ReplayRecords(explored, FindingKind::kLostWakeup);
  ASSERT_TRUE(witness.has_value()) << "lost-wakeup detector never fired";
  const LostWakeupReport& report = witness->replayed.lost_wakeups[witness->index];
  EXPECT_TRUE(SiteNamed(report.wait_site, "PortRecv"))
      << "wait site: " << SiteName(report.wait_site);
  EXPECT_NE(report.channel, kGuestNull);
  EXPECT_EQ(ClassifyLostWakeup(report), 18);
  EXPECT_TRUE(explored.outcome.bug_found);
}

// --- #19: vfs_mount() vs vfs_umount() take mount_lock/sb_lock in opposite orders. ---
TEST(DetectorBugReproTest, Issue19DeadlockMountVsUmount) {
  Program mounter = MakeProgram({MakeCall(kSysMount, {}), MakeCall(kSysMount, {}),
                                 MakeCall(kSysMount, {})});
  Program umounter = MakeProgram({MakeCall(kSysUmount, {0}), MakeCall(kSysUmount, {0}),
                                  MakeCall(kSysUmount, {0})});
  Explored explored = Explore(mounter, umounter, /*seed=*/7);
  std::optional<Witness> witness = ReplayRecords(explored, FindingKind::kDeadlock);
  ASSERT_TRUE(witness.has_value()) << "lock-order detector never fired";
  const DeadlockReport& report = witness->replayed.deadlocks[witness->index];
  ASSERT_EQ(report.locks.size(), 2u) << "expected a two-lock ABBA witness";
  EXPECT_NE(report.locks[0], report.locks[1]);
  bool names_vfs = false;
  for (SiteId site : report.sites) {
    names_vfs = names_vfs || SiteNamed(site, "VfsMount") || SiteNamed(site, "VfsUmount");
  }
  EXPECT_TRUE(names_vfs) << "witness does not name the vfs mount path";
  EXPECT_EQ(ClassifyDeadlock(report), 19);
}

// --- #20: vfs_umount() leaks a superblock reference (unlocked RMW), then busy-waits. ---
TEST(DetectorBugReproTest, Issue20LivelockUmountSpinsOnLeakedRef) {
  // A trial that livelocks spins until the instruction budget trips, so keep the budget
  // small (the detector only needs the ~512-event tail window) and the trial count modest.
  Program cycle = MakeProgram({MakeCall(kSysMount, {}), MakeCall(kSysUmount, {kUmountWait})});
  Explored explored = Explore(cycle, cycle, /*seed=*/11, /*trials=*/64,
                              /*max_instructions=*/60'000);
  std::optional<Witness> witness = ReplayRecords(explored, FindingKind::kLivelock);
  ASSERT_TRUE(witness.has_value()) << "livelock detector never fired";
  const LivelockReport& report = witness->replayed.livelocks[witness->index];
  EXPECT_GE(report.window_events, LivelockDetector::kMinWindow);
  bool spins_in_umount = false;
  for (SiteId site : report.spin_sites) {
    spins_in_umount = spins_in_umount || SiteNamed(site, "VfsUmount");
  }
  EXPECT_TRUE(spins_in_umount) << "spin sites do not name VfsUmount";
  EXPECT_EQ(ClassifyLivelock(report), 20);
}

// --- #21: port_transfer() locks the port pair in argument order (AB vs BA). ---
TEST(DetectorBugReproTest, Issue21DeadlockTransferPair) {
  Program forward = MakeProgram({MakeCall(kSysPortTransfer, {0, 1}),
                                 MakeCall(kSysPortTransfer, {0, 1})});
  Program backward = MakeProgram({MakeCall(kSysPortTransfer, {1, 0}),
                                  MakeCall(kSysPortTransfer, {1, 0})});
  Explored explored = Explore(forward, backward, /*seed=*/3);
  std::optional<Witness> witness = ReplayRecords(explored, FindingKind::kDeadlock);
  ASSERT_TRUE(witness.has_value()) << "lock-order detector never fired";
  const DeadlockReport& report = witness->replayed.deadlocks[witness->index];
  ASSERT_EQ(report.locks.size(), 2u);
  bool names_transfer = false;
  for (SiteId site : report.sites) {
    names_transfer = names_transfer || SiteNamed(site, "PortTransfer");
  }
  EXPECT_TRUE(names_transfer) << "witness does not name PortTransfer";
  EXPECT_EQ(ClassifyDeadlock(report), 21);
}

// --- #22: port_recv() misses port_close()'s shutdown wake in the same seeded window. ---
TEST(DetectorBugReproTest, Issue22LostWakeupRecvVsClose) {
  Program closer = MakeProgram({MakeCall(kSysPortClose, {0})});
  Program receiver = MakeProgram({MakeCall(kSysPortRecv, {0, kPortRecvWait})});
  Explored explored = Explore(closer, receiver, /*seed=*/5);
  std::optional<Witness> witness = ReplayRecords(explored, FindingKind::kLostWakeup);
  ASSERT_TRUE(witness.has_value()) << "lost-wakeup detector never fired";
  const LostWakeupReport& report = witness->replayed.lost_wakeups[witness->index];
  EXPECT_TRUE(SiteNamed(report.wait_site, "PortRecv"));
  EXPECT_TRUE(SiteNamed(report.notify_site, "PortClose"))
      << "missed notify: " << SiteName(report.notify_site);
  EXPECT_EQ(ClassifyLostWakeup(report), 22);
}

// --- Negative control: the correct-protocol send/recv pairing without the seeded window
// never hangs when the receiver polls (no wait flag), so no hang-gated detector fires. ---
TEST(DetectorBugReproTest, PollingRecvNeverTripsHangDetectors) {
  Program sender = MakeProgram({MakeCall(kSysPortSend, {0})});
  Program poller = MakeProgram({MakeCall(kSysPortRecv, {0, 0})});
  ExploreOutcome outcome = Explore(sender, poller, /*seed=*/13, /*trials=*/64).outcome;
  EXPECT_FALSE(HasKind(outcome, FindingKind::kDeadlock));
  EXPECT_FALSE(HasKind(outcome, FindingKind::kLostWakeup));
  EXPECT_FALSE(HasKind(outcome, FindingKind::kLivelock));
  EXPECT_FALSE(outcome.any_hang);
}

// Every new detector finding ships a record (replay token material) of its kind, so
// campaign findings for #18-#22 are replayable like race findings.
TEST(DetectorBugReproTest, CapturesCarryDetectorKinds) {
  Program sender = MakeProgram({MakeCall(kSysPortSend, {0})});
  Program receiver = MakeProgram({MakeCall(kSysPortRecv, {0, kPortRecvWait})});
  ExploreOutcome outcome = Explore(sender, receiver, /*seed=*/2021).outcome;
  bool saw_lost_wakeup_record = false;
  for (const FindingRecord& record : outcome.findings) {
    if (record.kind == FindingKind::kLostWakeup) {
      saw_lost_wakeup_record = true;
      EXPECT_EQ(record.issue_id, 18);
      EXPECT_NE(record.fingerprint, 0u);
      EXPECT_FALSE(record.schedule.empty());
    }
  }
  EXPECT_TRUE(saw_lost_wakeup_record) << "no record for the lost wakeup";
}

// --- Finding records: where a targeted run stops, and the order records come in. ---

using ExploreFn = std::function<ExploreOutcome(const ExplorerOptions&)>;

// Explores the concurrent test under the PMC-blind random-preempt scheduler, as Explore.
ExploreFn RandomExplore(const Program& writer, const Program& reader) {
  ConcurrentTest test;
  test.writer = writer;
  test.reader = reader;
  test.write_test = 0;
  test.read_test = 1;
  return [test](const ExplorerOptions& options) {
    KernelVm vm;
    RandomPreemptScheduler scheduler(/*period=*/8);
    return ExploreWithScheduler(vm, test, scheduler, /*check_channel=*/false, options);
  };
}

// The Figure 1 l2tp test (#12) under Algorithm 2, hinted with its publish PMC.
ExploreFn L2tpExplore() {
  KernelVm vm;
  std::vector<Program> seeds = SeedPrograms();
  ConcurrentTest test;
  test.writer = seeds[0];
  test.reader = seeds[1];
  GuestAddr list_head = vm.globals().l2tp + 4;
  for (const Pmc& pmc : IdentifyPmcs(ProfileCorpus(vm, {seeds[0], seeds[1]}))) {
    if (pmc.key.write.addr == list_head && pmc.key.read.addr == list_head &&
        pmc.key.write.value != 0) {
      test.hint = pmc.key;
      break;
    }
  }
  EXPECT_NE(test.hint.write.addr, kGuestNull) << "l2tp publish PMC not identified";
  return [test](const ExplorerOptions& options) {
    KernelVm vm;
    return ExploreConcurrentTest(vm, test, /*matcher=*/nullptr, options);
  };
}

// For every issue an untargeted run records, a run targeting that issue must stop at the
// trial that first recorded it, holding exactly the untargeted run's records up to there.
void ExpectTargetedRunsStopAtFirstRecord(const ExploreFn& explore,
                                         const ExplorerOptions& options) {
  ExploreOutcome untargeted = explore(options);
  ASSERT_EQ(untargeted.trials_run, options.num_trials);
  std::map<int, int> first_trial;  // Issue -> first trial that recorded it.
  for (const FindingRecord& record : untargeted.findings) {
    if (record.issue_id == 0) {
      continue;
    }
    auto [it, fresh] = first_trial.try_emplace(record.issue_id, record.trial);
    it->second = std::min(it->second, record.trial);
  }
  ASSERT_FALSE(first_trial.empty()) << "seed " << options.seed << " records no issue";
  for (const auto& [issue, trial] : first_trial) {
    SCOPED_TRACE(testing::Message() << "seed " << options.seed << " target #" << issue);
    ExplorerOptions targeted_options = options;
    targeted_options.target_issue = issue;
    ExploreOutcome targeted = explore(targeted_options);
    EXPECT_TRUE(targeted.target_found);
    EXPECT_EQ(targeted.first_target_trial, trial);
    EXPECT_EQ(targeted.trials_run, trial + 1);
    std::vector<FindingRecord> expected;
    for (const FindingRecord& record : untargeted.findings) {
      if (record.trial <= trial) {
        expected.push_back(record);
      }
    }
    EXPECT_EQ(targeted.findings, expected);
  }
}

TEST(FindingRecordTest, TargetedRunStopsWhereItsTargetWasFirstRecorded) {
  struct Case {
    const char* name;
    ExploreFn explore;
    std::vector<uint64_t> seeds;
    int trials;
    uint64_t max_instructions;
  };
  const std::vector<Case> cases = {
      {"#12 l2tp", L2tpExplore(), {1, 2, 5, 7}, 64, 400'000},
      {"#18", RandomExplore(MakeProgram({MakeCall(kSysPortSend, {0})}),
                            MakeProgram({MakeCall(kSysPortRecv, {0, kPortRecvWait})})),
       {2021, 2022}, 256, 400'000},
      {"#19", RandomExplore(MakeProgram({MakeCall(kSysMount, {}), MakeCall(kSysMount, {}),
                                         MakeCall(kSysMount, {})}),
                            MakeProgram({MakeCall(kSysUmount, {0}), MakeCall(kSysUmount, {0}),
                                         MakeCall(kSysUmount, {0})})),
       {7, 11}, 256, 400'000},
      {"#20", RandomExplore(MakeProgram({MakeCall(kSysMount, {}),
                                         MakeCall(kSysUmount, {kUmountWait})}),
                            MakeProgram({MakeCall(kSysMount, {}),
                                         MakeCall(kSysUmount, {kUmountWait})})),
       {11, 2021}, 64, 60'000},
      {"#21", RandomExplore(MakeProgram({MakeCall(kSysPortTransfer, {0, 1}),
                                         MakeCall(kSysPortTransfer, {0, 1})}),
                            MakeProgram({MakeCall(kSysPortTransfer, {1, 0}),
                                         MakeCall(kSysPortTransfer, {1, 0})})),
       {3, 17}, 256, 400'000},
      {"#22", RandomExplore(MakeProgram({MakeCall(kSysPortClose, {0})}),
                            MakeProgram({MakeCall(kSysPortRecv, {0, kPortRecvWait})})),
       {5, 2021}, 256, 400'000},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (uint64_t seed : c.seeds) {
      ExplorerOptions options;
      options.num_trials = c.trials;
      options.seed = seed;
      options.max_instructions = c.max_instructions;
      ExpectTargetedRunsStopAtFirstRecord(c.explore, options);
    }
  }
}

// Records come ordered by kind, then by first sighting — pinned on configfs pairs whose
// console/panic findings are first seen trials before one of their races, so the
// first-sighting order differs from the kind order.
TEST(FindingRecordTest, RecordsAreKindFirstThenFirstSighting) {
  std::vector<Program> seeds = SeedPrograms();
  struct Case {
    size_t writer;
    size_t reader;
    uint64_t seed;
  };
  for (const Case& c : {Case{20, 21, 2021}, Case{11, 13, 1}}) {
    SCOPED_TRACE(testing::Message() << "pair " << c.writer << "/" << c.reader);
    ExplorerOptions options;
    options.num_trials = 32;
    options.seed = c.seed;
    ExploreOutcome outcome = RandomExplore(seeds[c.writer], seeds[c.reader])(options);
    const std::vector<FindingRecord>& records = outcome.findings;
    bool sighting_order_differs = false;
    for (size_t i = 1; i < records.size(); i++) {
      ASSERT_LE(records[i - 1].kind, records[i].kind) << "record " << i;
      if (records[i - 1].kind == records[i].kind) {
        EXPECT_LE(records[i - 1].trial, records[i].trial) << "record " << i;
      }
      for (size_t j = 0; j < i; j++) {
        sighting_order_differs = sighting_order_differs || records[j].trial > records[i].trial;
      }
    }
    EXPECT_TRUE(sighting_order_differs) << "no record was sighted after a later-kind record";
  }
}

}  // namespace
}  // namespace snowboard
