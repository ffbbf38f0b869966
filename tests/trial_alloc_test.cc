// Zero-allocation guarantee for the steady-state trial hot loop.
//
// This binary replaces the global operator new/delete with counting forwarders (which is
// why it is built as its own test executable, separate from sb_tests) and asserts that the
// distilled Algorithm 2 trial loop — restore snapshot, run both guest programs under the
// PMC scheduler wrapped in the schedule recorder, run the detectors, walk their findings
// through the per-kind first-seen sets, search for incidental PMCs and adopt one —
// performs ZERO heap allocations once warmed up.
//
// Warm-up cycles the exact seed set that is later measured: identical seeds produce
// identical traces, so every recycled buffer (trace storage, detector scratch, engine
// per-run state, scheduler PMC and flag sets, recorded schedule, search stamps) reaches
// its high-water capacity during warm-up and the measured cycle has nothing left to grow.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "src/fuzz/generator.h"
#include "src/snowboard/equiv.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/replay.h"
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
  // The first-seen walk, as RunTrialLoop holds it: one reused key vector, one set per kind.
  std::vector<FindingKey> trial_findings;
  std::array<FlatSet<uint64_t>, kFindingKindCount> seen_findings;
  size_t findings_walked = 0;
  PmcScheduler scheduler;
  // Every trial runs through a recorder, as in RunTrialLoop: it logs every access.
  RecordingScheduler recorder(&scheduler);
  opts.scheduler = &recorder;
  std::vector<Engine::GuestFn> fns;

  // Incidental-PMC adoption state, as RunTrialLoop holds it for one test: the matcher is
  // built once per campaign and the search sizes its stamps on a test's first trial, so
  // neither is rebuilt between cycles.
  std::vector<Pmc> pmcs;
  std::optional<PmcMatcher> matcher;
  PmcMatcher::Search search;
  FlatSet<uint64_t> current_keys;
  Rng adoption_rng;
  size_t adoptions = 0;

  // Schedule-equivalence pruning state: the edge scratch, the test's edge history and the
  // adaptive table all clear keeping capacity, as the explorer reuses them across a test.
  HbScratch hb_scratch;
  FlatSet<uint64_t> seen_edges;
  AdaptiveSiteTable site_table;

  // One test's trial loop, distilled from RunTrialLoop: reset the scheduler to the test's
  // PMC, then per trial seed the recorder, restore, run, (collect the edges, learn the new
  // ones and skip a trial with none,) detect, probe each finding's first-seen set, search
  // for incidental PMCs and adopt one. Returns true when every trial ran clean.
  auto run_cycle = [&](bool prune) {
    scheduler.ResetForTest(pmcs[0].key);
    scheduler.set_adaptive_sites(prune ? &site_table : nullptr);
    current_keys.Clear();
    current_keys.Insert(pmcs[0].key.Hash());
    adoption_rng.Seed(2021);
    seen_edges.Clear();
    site_table.Clear();
    for (FlatSet<uint64_t>& seen : seen_findings) {
      seen.Clear();
    }
    bool clean = true;
    for (uint64_t s = 0; s < kTrialSeeds; s++) {
      recorder.SeedTrial(2021 + s);
      vm.RestoreSnapshot();
      vm.engine().RunInto(fns, opts, &result);
      if (prune) {
        CollectHbEdges(result.trace, &hb_scratch);
        bool new_edge = false;
        for (const HbEdge& edge : hb_scratch.edges) {
          if (seen_edges.Insert(edge.Key())) {
            site_table.Record(edge.write_site);
            site_table.Record(edge.read_site);
            new_edge = true;
          }
        }
        if (s > 0 && !new_edge) {
          continue;
        }
      }
      suite.Run(result, &detectors);
      clean = clean && detectors.console_hits.empty() && !result.panicked && !result.hang;
      FindingKeys(detectors, &trial_findings);
      for (const FindingKey& finding : trial_findings) {
        seen_findings[static_cast<size_t>(finding.kind)].Insert(finding.key);
        findings_walked++;
      }
      matcher->FindIncidental(result.trace, current_keys, &search);
      const std::vector<uint32_t>& matches = search.matches();
      if (!matches.empty()) {
        const PmcKey& key = pmcs[matches[adoption_rng.Below(matches.size())]].key;
        if (current_keys.Insert(key.Hash())) {
          scheduler.AddPmc(key);
          adoptions++;
        }
      }
    }
    return clean;
  };

  bool found_clean = false;
  for (size_t i = 0; i < seeds.size() && !found_clean; i++) {
    SequentialProfile profile = ProfileTest(vm, seeds[i], 0);
    if (!profile.ok) {
      continue;
    }
    pmcs = IdentifyPmcs({profile});
    if (pmcs.empty()) {
      continue;
    }
    matcher.emplace(&pmcs);
    fns.clear();
    fns.push_back(MakeProgramRunner(vm.globals(), seeds[i], 0));
    fns.push_back(MakeProgramRunner(vm.globals(), seeds[i], 1));
    found_clean = run_cycle(false) && run_cycle(true);
  }
  ASSERT_TRUE(found_clean) << "no seed program runs clean as a duplicate pair";

  // Warm-up: let every recycled buffer reach its high-water capacity for this seed set.
  for (int i = 0; i < 3; i++) {
    run_cycle(false);
  }

  adoptions = 0;
  findings_walked = 0;
  uint64_t before = AllocationCount();
  run_cycle(false);
  uint64_t after = AllocationCount();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in a steady-state trial cycle";
  EXPECT_GT(adoptions, 0u) << "the measured cycle adopted no incidental PMC";
  EXPECT_GT(findings_walked, 0u) << "the measured cycle walked no finding";

  // Tracing runtime-ENABLED must not reintroduce allocations either: the per-thread
  // buffer is allocated once at registration (inside the warm-up cycle below) and every
  // span/counter after that is a fixed-size in-place push. This is the cost-model claim in
  // util/trace.h, proven against the same loop the zero-alloc guarantee covers.
  Tracer::Global().Start(/*per_thread_capacity=*/1 << 16);
  run_cycle(false);  // Warm-up: registers this thread's trace buffer.
  before = AllocationCount();
  run_cycle(false);
  after = AllocationCount();
  Tracer::Global().Stop();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in a traced steady-state trial cycle";

  // Schedule-equivalence pruning rides the same loop: collect every trace's edges, probe
  // the test's edge history, record new edges' sites in the adaptive table the scheduler
  // consults. Once the warm-up cycle reaches the high-water mark the pruned loop is as
  // allocation-free as the plain one.
  run_cycle(true);
  before = AllocationCount();
  run_cycle(true);
  after = AllocationCount();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in a pruned trial cycle";
}

}  // namespace
}  // namespace snowboard
