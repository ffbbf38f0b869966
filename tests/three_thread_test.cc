// Tests for the §6 "Testing Thread Count" extension: three-vCPU engine runs, three-thread
// race detection, and three-threaded PMC exploration (fan-out and chain hints).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/fuzz/generator.h"
#include "src/kernel/net/netdev.h"
#include "src/kernel/task.h"
#include "src/sim/site.h"
#include "src/snowboard/pipeline.h"

namespace snowboard {
namespace {

class AlternatingScheduler : public Scheduler {
 public:
  bool AfterAccess(VcpuId vcpu, const Access& access) override { return true; }
};

TEST(ThreeThreadEngineTest, ThreeVcpusRunSerialized) {
  Engine engine(1 << 16);
  GuestAddr cells = engine.mem().StaticAlloc(16, 8);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  std::vector<std::thread::id> ran_on;
  auto writer = [&](int index) {
    return [&, index](Ctx& ctx) {
      ran_on.push_back(std::this_thread::get_id());
      for (int i = 0; i < 3; i++) {
        ctx.Store32(cells + 4 * static_cast<uint32_t>(index), static_cast<uint32_t>(i),
                    SB_SITE());
      }
    };
  };
  Engine::RunResult result = engine.Run({writer(0), writer(1), writer(2)}, opts);
  EXPECT_TRUE(result.completed);
  // Round-robin rotation across the three vCPUs.
  std::vector<VcpuId> order;
  for (const Event& e : result.trace) {
    if (e.kind == EventKind::kAccess) {
      order.push_back(e.vcpu);
    }
  }
  ASSERT_GE(order.size(), 6u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], 0);
  // All three vCPUs are fibers on the caller's thread.
  ASSERT_EQ(ran_on.size(), 3u);
  for (std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ThreeThreadEngineTest, BootHasThreeTasks) {
  KernelVm vm;
  for (int i = 0; i < kMaxTestVcpus; i++) {
    EXPECT_NE(vm.globals().tasks[i], kGuestNull);
  }
  EXPECT_NE(vm.globals().tasks[0], vm.globals().tasks[2]);
}

TEST(ThreeThreadDetectorTest, RaceBetweenVcpu0And2) {
  Trace trace;
  auto access = [](VcpuId vcpu, AccessType type, SiteId site) {
    Event e;
    e.kind = EventKind::kAccess;
    e.vcpu = vcpu;
    e.access.type = type;
    e.access.vcpu = vcpu;
    e.access.addr = 0x2000;
    e.access.len = 4;
    e.access.site = site;
    return e;
  };
  trace.push_back(access(0, AccessType::kWrite, 11));
  trace.push_back(access(2, AccessType::kRead, 22));
  std::vector<RaceReport> races = DetectRaces(trace);
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].write_site, 11u);
  EXPECT_EQ(races[0].other_site, 22u);
}

TEST(ThreeThreadExploreTest, FanOutWriteTwoReads) {
  // 1 writer (MAC setter) + 2 readers (MAC getters): both read channels share the write.
  KernelVm vm;
  std::vector<Program> seeds = SeedPrograms();
  std::vector<Program> corpus = {seeds[2], seeds[3]};  // setter, getter.
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);

  GuestAddr dev = kGuestNull;
  vm.engine().RunSequential([&](Ctx& ctx) {
    TaskEnter(ctx, vm.globals().tasks[0]);
    dev = DevGetByIndex(ctx, vm.globals(), 0);
  });
  const Pmc* channel = nullptr;
  for (const Pmc& pmc : pmcs) {
    if (pmc.key.write.addr >= dev + kDevAddr && pmc.key.write.addr < dev + kDevAddr + 6) {
      channel = &pmc;
      break;
    }
  }
  ASSERT_NE(channel, nullptr);

  ThreeThreadTest test;
  test.programs[0] = corpus[0];  // Writer.
  test.programs[1] = corpus[1];  // Reader A.
  test.programs[2] = corpus[1];  // Reader B.
  test.hint_a = channel->key;
  test.hint_b = channel->key;

  ExplorerOptions options;
  options.num_trials = 24;
  vm.RestoreSnapshot();
  ExploreOutcome outcome = ExploreThreeThreaded(vm, test, options);
  EXPECT_EQ(outcome.trials_run, 24);
  EXPECT_TRUE(outcome.bug_found);  // The #9 race fires with either reader.
  bool classified = false;
  for (const FindingRecord& finding : outcome.findings) {
    classified = classified || (finding.kind == FindingKind::kRace && finding.issue_id == 9);
  }
  EXPECT_TRUE(classified);
}

TEST(ThreeThreadExploreTest, L2tpFanOutPanics) {
  // §5.2 Case 2's DoS scenario: one process registers the tunnel while SEVERAL processes
  // request the same tunnel id — "some of them might dereference the sock field before it
  // is initialized". Writer + two readers, both readers racing into the ➊→➋ window.
  KernelVm vm;
  std::vector<Program> seeds = SeedPrograms();
  std::vector<Program> corpus = {seeds[0], seeds[1]};
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  GuestAddr list_head = vm.globals().l2tp + 4;
  const Pmc* channel = nullptr;
  for (const Pmc& pmc : pmcs) {
    if (pmc.key.write.addr == list_head && pmc.key.read.addr == list_head &&
        pmc.key.write.value != 0) {
      channel = &pmc;
      break;
    }
  }
  ASSERT_NE(channel, nullptr);

  ThreeThreadTest test;
  test.programs[0] = corpus[0];
  test.programs[1] = corpus[1];
  test.programs[2] = corpus[1];
  test.hint_a = channel->key;
  test.hint_b = channel->key;

  ExplorerOptions options;
  options.num_trials = 96;
  ExploreOutcome outcome = ExploreThreeThreaded(vm, test, options);
  bool panicked = false;
  for (const FindingRecord& finding : outcome.findings) {
    panicked = panicked || (finding.kind == FindingKind::kPanic &&
                            finding.evidence.find("L2tpXmit") != std::string::npos);
  }
  EXPECT_TRUE(panicked);
}

TEST(ThreeThreadExploreTest, DeterministicForSeed) {
  KernelVm vm;
  std::vector<Program> seeds = SeedPrograms();
  ThreeThreadTest test;
  test.programs[0] = seeds[0];
  test.programs[1] = seeds[1];
  test.programs[2] = seeds[1];
  ExplorerOptions options;
  options.num_trials = 8;
  options.seed = 5;
  ExploreOutcome a = ExploreThreeThreaded(vm, test, options);
  ExploreOutcome b = ExploreThreeThreaded(vm, test, options);
  EXPECT_EQ(a.bug_found, b.bug_found);
  EXPECT_EQ(a.first_bug_trial, b.first_bug_trial);
  EXPECT_EQ(a.findings, b.findings);
}

}  // namespace
}  // namespace snowboard
