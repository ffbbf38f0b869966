// End-to-end reproducers for the seeded deadlock / lost-wakeup / livelock issues
// (#18-#22): each test drives the two-vCPU explorer at the buggy kernel path with the
// baseline random-preempt scheduler and asserts that the matching hang-gated detector
// fires, that its witness names the right kernel objects, and that the triage classifier
// maps the witness to the right catalog id. These are the `detectors`-label analog of
// bug_repro_test.cc: the campaign-level suite proves the 17 Table 2 issues stay found,
// this suite proves the detector prey is found by the NEW detectors (the fuzzer's frozen
// vocabulary never reaches these syscalls, so only handcrafted tests can).
#include <gtest/gtest.h>

#include <initializer_list>

#include "src/fuzz/program.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/ipc/port.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscalls.h"
#include "src/sim/site.h"
#include "src/snowboard/explorer.h"
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

// Explores writer-vs-reader with the PMC-blind random-preempt scheduler. The seeded
// windows are a handful of accesses wide, so a couple hundred preemption-randomized
// trials expose each one deterministically (fixed seed, serialized engine).
ExploreOutcome Explore(const Program& writer, const Program& reader, uint64_t seed,
                       int trials = 256, uint64_t max_instructions = 400'000) {
  KernelVm vm;
  ConcurrentTest test;
  test.writer = writer;
  test.reader = reader;
  test.write_test = 0;
  test.read_test = 1;
  ExplorerOptions options;
  options.num_trials = trials;
  options.seed = seed;
  options.max_instructions = max_instructions;
  RandomPreemptScheduler scheduler(/*period=*/8);
  return ExploreWithScheduler(vm, test, scheduler, /*check_channel=*/false, options);
}

bool SiteNamed(SiteId site, const char* fn) {
  return site != kInvalidSite && SiteName(site).find(fn) != std::string::npos;
}

// --- #18: port_recv() re-samples the wait-channel generation after its empty check. ---
TEST(DetectorBugReproTest, Issue18LostWakeupRecvVsSend) {
  Program sender = MakeProgram({MakeCall(kSysPortSend, {0})});
  Program receiver = MakeProgram({MakeCall(kSysPortRecv, {0, kPortRecvWait})});
  ExploreOutcome outcome = Explore(sender, receiver, /*seed=*/2021);
  ASSERT_FALSE(outcome.lost_wakeups.empty()) << "lost-wakeup detector never fired";
  const LostWakeupReport& report = outcome.lost_wakeups[0];
  EXPECT_TRUE(SiteNamed(report.wait_site, "PortRecv"))
      << "wait site: " << SiteName(report.wait_site);
  EXPECT_NE(report.channel, kGuestNull);
  EXPECT_EQ(ClassifyLostWakeup(report), 18);
  EXPECT_TRUE(outcome.bug_found);
}

// --- #19: vfs_mount() vs vfs_umount() take mount_lock/sb_lock in opposite orders. ---
TEST(DetectorBugReproTest, Issue19DeadlockMountVsUmount) {
  Program mounter = MakeProgram({MakeCall(kSysMount, {}), MakeCall(kSysMount, {}),
                                 MakeCall(kSysMount, {})});
  Program umounter = MakeProgram({MakeCall(kSysUmount, {0}), MakeCall(kSysUmount, {0}),
                                  MakeCall(kSysUmount, {0})});
  ExploreOutcome outcome = Explore(mounter, umounter, /*seed=*/7);
  ASSERT_FALSE(outcome.deadlocks.empty()) << "lock-order detector never fired";
  const DeadlockReport& report = outcome.deadlocks[0];
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
  ExploreOutcome outcome = Explore(cycle, cycle, /*seed=*/11, /*trials=*/64,
                                   /*max_instructions=*/60'000);
  ASSERT_FALSE(outcome.livelocks.empty()) << "livelock detector never fired";
  const LivelockReport& report = outcome.livelocks[0];
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
  ExploreOutcome outcome = Explore(forward, backward, /*seed=*/3);
  ASSERT_FALSE(outcome.deadlocks.empty()) << "lock-order detector never fired";
  const DeadlockReport& report = outcome.deadlocks[0];
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
  ExploreOutcome outcome = Explore(closer, receiver, /*seed=*/5);
  ASSERT_FALSE(outcome.lost_wakeups.empty()) << "lost-wakeup detector never fired";
  const LostWakeupReport& report = outcome.lost_wakeups[0];
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
  ExploreOutcome outcome = Explore(sender, poller, /*seed=*/13, /*trials=*/64);
  EXPECT_TRUE(outcome.deadlocks.empty());
  EXPECT_TRUE(outcome.lost_wakeups.empty());
  EXPECT_TRUE(outcome.livelocks.empty());
  EXPECT_FALSE(outcome.any_hang);
}

// Every new detector finding ships a capture (replay token material) whose kind matches
// the report, so campaign findings for #18-#22 are replayable like race findings.
TEST(DetectorBugReproTest, CapturesCarryDetectorKinds) {
  Program sender = MakeProgram({MakeCall(kSysPortSend, {0})});
  Program receiver = MakeProgram({MakeCall(kSysPortRecv, {0, kPortRecvWait})});
  ExploreOutcome outcome = Explore(sender, receiver, /*seed=*/2021);
  ASSERT_FALSE(outcome.lost_wakeups.empty());
  bool saw_lost_wakeup_capture = false;
  for (const TrialCapture& capture : outcome.captures) {
    if (capture.kind == static_cast<uint8_t>(FindingKind::kLostWakeup)) {
      saw_lost_wakeup_capture = true;
      EXPECT_EQ(capture.finding_key, outcome.lost_wakeups[0].Signature());
      EXPECT_NE(capture.fingerprint, 0u);
    }
  }
  EXPECT_TRUE(saw_lost_wakeup_capture) << "no capture recorded for the lost wakeup";
}

}  // namespace
}  // namespace snowboard
