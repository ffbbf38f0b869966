// Zero-allocation guarantee for the steady-state trial hot loop.
//
// This binary replaces the global operator new/delete with counting forwarders (which is
// why it is built as its own test executable, separate from sb_tests) and asserts that the
// distilled Algorithm 2 trial loop — restore snapshot, run both guest programs under the
// PMC scheduler, run the detectors — performs ZERO heap allocations once warmed up.
//
// Warm-up cycles the exact seed set that is later measured: identical seeds produce
// identical traces, so every recycled buffer (trace storage, detector scratch, engine
// per-run state, scheduler flags) reaches its high-water capacity during warm-up and the
// measured cycle has nothing left to grow.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/fuzz/generator.h"
#include "src/snowboard/equiv.h"
#include "src/snowboard/pipeline.h"
#include "src/util/counters.h"
#include "src/util/trace.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

uint64_t AllocationCount() { return g_allocations.load(std::memory_order_relaxed); }

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace snowboard {
namespace {

TEST(TrialAllocTest, SteadyStateTrialLoopIsAllocationFree) {
  KernelVm vm;
  const std::vector<Program> seeds = SeedPrograms();

  // Pick the first seed program whose duplicate-pair trials run clean: console hits are the
  // one detector outcome that inherently allocates (fresh std::string per hit), so the
  // steady-state guarantee is stated over clean trials — the overwhelmingly common case.
  constexpr uint64_t kTrialSeeds = 8;
  Engine::RunOptions opts;
  opts.max_instructions = 400'000;
  Engine::RunResult result;
  DetectorSuite suite;  // All five detectors enabled: the guarantee covers the full suite.
  DetectorResult detectors;
  PmcScheduler scheduler;

  bool found_clean = false;
  std::vector<Engine::GuestFn> fns;
  for (size_t i = 0; i < seeds.size() && !found_clean; i++) {
    SequentialProfile profile = ProfileTest(vm, seeds[i], 0);
    if (!profile.ok) {
      continue;
    }
    std::vector<Pmc> pmcs = IdentifyPmcs({profile});
    if (pmcs.empty()) {
      continue;
    }
    scheduler.ResetForTest(pmcs[0].key);
    fns.clear();
    fns.push_back(MakeProgramRunner(vm.globals(), seeds[i], 0));
    fns.push_back(MakeProgramRunner(vm.globals(), seeds[i], 1));
    opts.scheduler = &scheduler;

    found_clean = true;
    for (uint64_t s = 0; s < kTrialSeeds && found_clean; s++) {
      scheduler.SeedTrial(2021 + s);
      vm.RestoreSnapshot();
      vm.engine().RunInto(fns, opts, &result);
      suite.Run(result, &detectors);
      if (!detectors.console_hits.empty() || result.panicked || result.hang) {
        found_clean = false;
      }
    }
  }
  ASSERT_TRUE(found_clean) << "no seed program runs clean as a duplicate pair";

  auto run_cycle = [&]() {
    for (uint64_t s = 0; s < kTrialSeeds; s++) {
      scheduler.SeedTrial(2021 + s);
      vm.RestoreSnapshot();
      vm.engine().RunInto(fns, opts, &result);
      suite.Run(result, &detectors);
    }
  };

  // Warm-up: let every recycled buffer reach its high-water capacity for this seed set.
  for (int i = 0; i < 3; i++) {
    run_cycle();
  }

  uint64_t before = AllocationCount();
  run_cycle();
  uint64_t after = AllocationCount();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in a steady-state trial cycle";

  // Tracing runtime-ENABLED must not reintroduce allocations either: the per-thread
  // buffer is allocated once at registration (inside the warm-up cycle below) and every
  // span/counter after that is a fixed-size in-place push. This is the cost-model claim in
  // util/trace.h, proven against the same loop the zero-alloc guarantee covers.
  Tracer::Global().Start(/*per_thread_capacity=*/1 << 16);
  run_cycle();  // Warm-up: registers this thread's trace buffer.
  before = AllocationCount();
  run_cycle();
  after = AllocationCount();
  Tracer::Global().Stop();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in a traced steady-state trial cycle";

  // The per-worker counter shard the pool installs around every job must not cost heap
  // either: CounterShardScope is a stack object over a plain counter block, and flushing it
  // is a loop of atomic adds. This is the aggregation path the multi-core explore loop runs
  // once per trial batch — prove it rides along allocation-free.
  {
    CounterShardScope shard;
    run_cycle();  // Warm-up inside the scope (nothing shard-related should grow anyway).
    before = AllocationCount();
    run_cycle();
    FlushCounterShard();
    after = AllocationCount();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations in a sharded-counter trial cycle";
  }

  // Schedule-equivalence pruning rides the same loop: fingerprint every trace, probe the
  // seen-set, record edge sites in the adaptive table. All three structures clear keeping
  // capacity (the explorer reuses them across a test's trials), so once the warm-up cycle
  // reaches the high-water mark the pruned loop is as allocation-free as the plain one.
  {
    HbScratch hb_scratch;
    FlatSet<uint64_t> seen_fingerprints;
    AdaptiveSiteTable site_table;
    auto run_pruned_cycle = [&]() {
      seen_fingerprints.Clear();
      site_table.Clear();
      for (uint64_t s = 0; s < kTrialSeeds; s++) {
        scheduler.SeedTrial(2021 + s);
        vm.RestoreSnapshot();
        vm.engine().RunInto(fns, opts, &result);
        uint64_t hb = HbFingerprint(result.trace, &hb_scratch);
        if (seen_fingerprints.Insert(hb)) {
          for (SiteId site : hb_scratch.edge_sites) {
            site_table.Record(site);
          }
        }
        suite.Run(result, &detectors);
      }
    };
    run_pruned_cycle();  // Warm-up: seen-set, site table, and scratch reach capacity.
    before = AllocationCount();
    run_pruned_cycle();
    after = AllocationCount();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations in a fingerprinted trial cycle";
  }
}

}  // namespace
}  // namespace snowboard
