// Schedule-equivalence pruning (src/snowboard/equiv.h): property tests for the
// communication-edge collection and its keys, units for the adaptive site table and the
// trial loop's first-trial guard, and the prune-on vs prune-off A/B over the reference
// campaign.
//
// CollectHbEdges must list exactly a trace's cross-vCPU reads-from edges, in trace order:
// random traces are checked against an independently computed canonical sequence, and
// targeted mutations must (or must not) add an edge or change its key. Switch points are
// invariant by design — see equiv.h.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/fuzz/generator.h"
#include "src/snowboard/equiv.h"
#include "src/snowboard/explorer.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/report_html.h"
#include "src/util/counters.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "tests/golden.h"

namespace snowboard {
namespace {

// --- Edge list ⇔ canonical-sequence property on random traces. ---

// Independent oracle: the canonical communication description of a trace, one line per
// edge in trace order, computed with plain containers and no hashing.
std::string CanonicalSequence(const Trace& trace) {
  std::map<uint64_t, std::pair<SiteId, VcpuId>> last_write;  // addr -> (site, vcpu).
  std::string out;
  for (const Event& event : trace) {
    if (event.kind != EventKind::kAccess) continue;  // Yields are not communication.
    const Access& access = event.access;
    if (access.type == AccessType::kWrite) {
      last_write[access.addr] = {access.site, access.vcpu};
    } else {
      auto it = last_write.find(access.addr);
      if (it != last_write.end() && it->second.second != access.vcpu) {
        StrAppendf(&out, "E %llu %llu %llu %llu\n",
                   static_cast<unsigned long long>(it->second.first),
                   static_cast<unsigned long long>(access.site),
                   static_cast<unsigned long long>(access.addr),
                   static_cast<unsigned long long>(access.value));
      }
    }
  }
  return out;
}

std::string EdgeSequence(const std::vector<HbEdge>& edges) {
  std::string out;
  for (const HbEdge& edge : edges) {
    StrAppendf(&out, "E %llu %llu %llu %llu\n",
               static_cast<unsigned long long>(edge.write_site),
               static_cast<unsigned long long>(edge.read_site),
               static_cast<unsigned long long>(edge.addr),
               static_cast<unsigned long long>(edge.value));
  }
  return out;
}

Event AccessEvent(VcpuId vcpu, AccessType type, GuestAddr addr, uint64_t value,
                  SiteId site) {
  Event event;
  event.kind = EventKind::kAccess;
  event.vcpu = vcpu;
  event.access.type = type;
  event.access.vcpu = vcpu;
  event.access.addr = addr;
  event.access.len = 4;
  event.access.value = value;
  event.access.site = site;
  return event;
}

Event YieldEvent(VcpuId vcpu) {
  Event event;
  event.kind = EventKind::kYield;
  event.vcpu = vcpu;
  return event;
}

// Small pools everywhere so random traces collide: shared addresses, repeated sites,
// repeated values — the regime where the same edge recurs within and across traces.
Trace RandomTrace(Rng& rng) {
  Trace trace;
  size_t length = 4 + rng.Below(24);
  for (size_t i = 0; i < length; i++) {
    uint64_t roll = rng.Below(10);
    VcpuId vcpu = static_cast<VcpuId>(rng.Below(3));
    if (roll < 2) {
      trace.push_back(YieldEvent(vcpu));
    } else {
      AccessType type = rng.Coin() ? AccessType::kWrite : AccessType::kRead;
      GuestAddr addr = 0x1000 + 4 * static_cast<GuestAddr>(rng.Below(4));
      uint64_t value = rng.Below(3);
      SiteId site = 100 + rng.Below(5);
      trace.push_back(AccessEvent(vcpu, type, addr, value, site));
    }
  }
  return trace;
}

// The keys of a trace's edges, as the trial loop inserts them into a test's history.
std::vector<uint64_t> EdgeKeys(const Trace& trace, HbScratch* scratch) {
  CollectHbEdges(trace, scratch);
  std::vector<uint64_t> keys;
  for (const HbEdge& edge : scratch->edges) {
    keys.push_back(edge.Key());
  }
  return keys;
}

// Named for the happens-before fingerprint the edge history replaced; the oracle is the
// same canonical sequence.
class HbFingerprintProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HbFingerprintProperty, EqualityMatchesCanonicalSequence) {
  Rng rng(GetParam());
  HbScratch scratch;
  // Every distinct edge seen across the sweep, by key: equal keys must mean equal edges.
  std::map<uint64_t, std::string> key_to_edge;
  int repeated_edges = 0;
  for (int i = 0; i < 400; i++) {
    Trace trace = RandomTrace(rng);
    CollectHbEdges(trace, &scratch);
    ASSERT_EQ(EdgeSequence(scratch.edges), CanonicalSequence(trace));
    for (const HbEdge& edge : scratch.edges) {
      std::string line = EdgeSequence({edge});
      auto [it, fresh] = key_to_edge.try_emplace(edge.Key(), line);
      if (!fresh) {
        // Same key must mean the same edge (no collision observed).
        ASSERT_EQ(it->second, line) << "key=" << edge.Key();
        repeated_edges++;
      }
    }
  }
  // The pools are small enough that edges genuinely recur, so the key check above has
  // something to compare; if this ever fails, shrink the pools rather than deleting it.
  EXPECT_GT(repeated_edges, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HbFingerprintProperty, ::testing::Values(1, 2, 3, 4, 5));

// --- Targeted checks: what is, and what is not, an edge. ---

TEST(HbEdgeTest, IgnoresNonCommunicatingDetail) {
  Trace base = {
      AccessEvent(0, AccessType::kWrite, 0x1000, 7, 101),
      AccessEvent(1, AccessType::kRead, 0x1000, 7, 202),  // Cross-vCPU edge.
      YieldEvent(1),
  };
  HbScratch scratch;
  CollectHbEdges(base, &scratch);
  const std::vector<HbEdge> edges = {{101, 202, 0x1000, 7}};
  ASSERT_EQ(scratch.edges, edges);

  // Same-vCPU read-after-write on a fresh address adds no edge.
  Trace same_vcpu = base;
  same_vcpu.insert(same_vcpu.begin(),
                   {AccessEvent(2, AccessType::kWrite, 0x2000, 1, 300),
                    AccessEvent(2, AccessType::kRead, 0x2000, 1, 300)});
  CollectHbEdges(same_vcpu, &scratch);
  EXPECT_EQ(scratch.edges, edges);

  // Lock events carry no communication either.
  Trace with_lock = base;
  Event lock;
  lock.kind = EventKind::kLockAcquire;
  lock.vcpu = 0;
  lock.lock_addr = 0x3000;
  with_lock.insert(with_lock.begin(), lock);
  CollectHbEdges(with_lock, &scratch);
  EXPECT_EQ(scratch.edges, edges);

  // A read with no prior write is not an edge, whatever its value.
  Trace cold_read = base;
  cold_read.insert(cold_read.begin(), AccessEvent(1, AccessType::kRead, 0x4000, 9, 400));
  CollectHbEdges(cold_read, &scratch);
  EXPECT_EQ(scratch.edges, edges);

  // Switch points are schedule identity, not communication: adding, removing, or moving
  // yields never adds an edge (every seeded trial's schedule is unique, so counting yields
  // would make pruning vacuous — see equiv.h).
  Trace no_yield = {base[0], base[1]};
  CollectHbEdges(no_yield, &scratch);
  EXPECT_EQ(scratch.edges, edges);
  Trace other_yielder = base;
  other_yielder[2].vcpu = 0;
  CollectHbEdges(other_yielder, &scratch);
  EXPECT_EQ(scratch.edges, edges);
  Trace extra_yields = base;
  extra_yields.insert(extra_yields.begin(), YieldEvent(2));
  extra_yields.push_back(YieldEvent(0));
  CollectHbEdges(extra_yields, &scratch);
  EXPECT_EQ(scratch.edges, edges);
}

TEST(HbEdgeTest, KeySensitiveToEveryEdgeFeature) {
  const HbEdge base = {101, 202, 0x1000, 7};
  HbEdge other_value = base;
  other_value.value = 8;
  HbEdge other_read_site = base;
  other_read_site.read_site = 203;
  HbEdge other_write_site = base;
  other_write_site.write_site = 102;
  HbEdge other_addr = base;
  other_addr.addr = 0x2000;
  for (const HbEdge& changed : {other_value, other_read_site, other_write_site, other_addr}) {
    EXPECT_NE(changed.Key(), base.Key());
  }
  EXPECT_EQ((HbEdge{101, 202, 0x1000, 7}).Key(), base.Key());
}

TEST(HbEdgeTest, CollectsEveryEdgeInTraceOrder) {
  Trace trace = {
      AccessEvent(0, AccessType::kWrite, 0x1000, 7, 101),
      AccessEvent(1, AccessType::kRead, 0x1000, 7, 202),
      AccessEvent(1, AccessType::kWrite, 0x1000, 3, 203),
      AccessEvent(0, AccessType::kRead, 0x1000, 3, 104),
      AccessEvent(0, AccessType::kRead, 0x1000, 3, 104),  // The same edge again.
  };
  HbScratch scratch;
  CollectHbEdges(trace, &scratch);
  EXPECT_EQ(scratch.edges, (std::vector<HbEdge>{{101, 202, 0x1000, 7},
                                                 {203, 104, 0x1000, 3},
                                                 {203, 104, 0x1000, 3}}));
}

// Edge order is not communication: the same two edges in the opposite order add no key to
// the history the first order built. (The ordered-sequence fingerprint this rule replaced
// counted the second trial as new.)
TEST(HbEdgeTest, SwappedEdgeOrderAddsNoKey) {
  Trace ab = {
      AccessEvent(0, AccessType::kWrite, 0x1000, 1, 101),
      AccessEvent(1, AccessType::kRead, 0x1000, 1, 201),
      AccessEvent(0, AccessType::kWrite, 0x2000, 2, 102),
      AccessEvent(1, AccessType::kRead, 0x2000, 2, 202),
  };
  Trace ba = {ab[2], ab[3], ab[0], ab[1]};
  HbScratch scratch;
  FlatSet<uint64_t> history;
  for (uint64_t key : EdgeKeys(ab, &scratch)) {
    EXPECT_TRUE(history.Insert(key));
  }
  std::vector<uint64_t> swapped = EdgeKeys(ba, &scratch);
  ASSERT_EQ(swapped.size(), 2u);
  for (uint64_t key : swapped) {
    EXPECT_FALSE(history.Insert(key));
  }
}

// The observed value is part of the communication: repeating a known edge with a new value
// adds exactly one key.
TEST(HbEdgeTest, RepeatedEdgeWithNewValueAddsOneKey) {
  Trace first = {
      AccessEvent(0, AccessType::kWrite, 0x1000, 1, 101),
      AccessEvent(1, AccessType::kRead, 0x1000, 1, 201),
      AccessEvent(0, AccessType::kWrite, 0x2000, 2, 102),
      AccessEvent(1, AccessType::kRead, 0x2000, 2, 202),
  };
  Trace second = first;
  second[2].access.value = 5;
  second[3].access.value = 5;
  HbScratch scratch;
  FlatSet<uint64_t> history;
  for (uint64_t key : EdgeKeys(first, &scratch)) {
    history.Insert(key);
  }
  int added = 0;
  for (uint64_t key : EdgeKeys(second, &scratch)) {
    added += history.Insert(key) ? 1 : 0;
  }
  EXPECT_EQ(added, 1);
}

// --- AdaptiveSiteTable units. ---

TEST(AdaptiveSiteTableTest, RecordedSitesAreHotUntilClear) {
  AdaptiveSiteTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.IsHot(7));
  table.Record(7);
  EXPECT_FALSE(table.empty());
  table.Record(9);
  table.Record(7);
  EXPECT_TRUE(table.IsHot(7));
  EXPECT_TRUE(table.IsHot(9));
  EXPECT_FALSE(table.IsHot(8));
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.IsHot(7));
  EXPECT_FALSE(table.IsHot(9));
  table.Record(8);  // A cleared table learns afresh.
  EXPECT_TRUE(table.IsHot(8));
  EXPECT_FALSE(table.IsHot(7));
}

// --- The trial loop's first trial. ---

// A test whose first trial realizes accesses but no cross-vCPU edge, as random pairing
// often builds: that trial adds nothing to an empty edge history, yet it must still be
// analyzed, or the test would end with no trial analyzed.
TEST(PruneLoopTest, EdgelessFirstTrialIsAnalyzed) {
  KernelVm vm;
  const std::vector<Program> seeds = SeedPrograms();
  ConcurrentTest test;
  test.writer = seeds[8];
  test.reader = seeds[27];
  ExplorerOptions options;
  options.num_trials = 8;
  options.prune.enabled = true;

  // The loop's first trial, replayed outside it: the same programs under the same seed.
  std::vector<Engine::GuestFn> fns = {MakeProgramRunner(vm.globals(), test.writer, 0),
                                      MakeProgramRunner(vm.globals(), test.reader, 1)};
  RandomPreemptScheduler scheduler;
  scheduler.SeedTrial(options.seed);
  Engine::RunOptions run_options;
  run_options.scheduler = &scheduler;
  Engine::RunResult run;
  vm.RestoreSnapshot();
  vm.engine().RunInto(fns, run_options, &run);
  HbScratch scratch;
  CollectHbEdges(run.trace, &scratch);
  ASSERT_FALSE(run.trace.empty());
  ASSERT_TRUE(scratch.edges.empty());

  ExploreOutcome outcome =
      ExploreWithScheduler(vm, test, scheduler, /*check_channel=*/false, options);
  // Trial 0 is analyzed; trial 1, edgeless too, is the pruned trial that ends the test.
  EXPECT_EQ(outcome.trials_run, 2);
  EXPECT_EQ(outcome.trials_pruned, 1);
  EXPECT_TRUE(outcome.saturated);
}

// --- Prune-on vs prune-off A/B over the reference campaign. ---

PipelineOptions ReferenceOptions(bool prune, int num_workers = 2) {
  PipelineOptions options = ReferenceCampaignOptions(num_workers);
  options.explorer.prune.enabled = prune;
  return options;
}

TEST(PruneAbTest, PruneFindsSameIssuesWithFewerTrials) {
  ResetPipelineCounters();
  PipelineResult off = RunSnowboardPipeline(ReferenceOptions(false));
  ResetPipelineCounters();
  PipelineResult on = RunSnowboardPipeline(ReferenceOptions(true));

  // Identical masked issue set: pruning skips only detector-equivalent trials and ends
  // only saturated tests, so every distinct issue the unpruned campaign finds survives.
  ASSERT_FALSE(off.findings.first_findings().empty());
  std::vector<int> issues_off, issues_on;
  for (const auto& [issue, finding] : off.findings.first_findings()) {
    issues_off.push_back(issue);
  }
  for (const auto& [issue, finding] : on.findings.first_findings()) {
    issues_on.push_back(issue);
  }
  EXPECT_EQ(issues_on, issues_off);

  // The budget criterion: >= 25% fewer trial executions, and the funnel knows why.
  EXPECT_GT(on.trials_pruned, 0u);
  EXPECT_GT(on.tests_saturated, 0u);
  EXPECT_LE(on.total_trials * 4, off.total_trials * 3)
      << "prune-on ran " << on.total_trials << " trials vs " << off.total_trials;
  EXPECT_EQ(off.trials_pruned, 0u);
  EXPECT_EQ(off.tests_saturated, 0u);
  EXPECT_EQ(off.tests_executed, on.tests_executed);
}

// Pruning must not cost the determinism bar: the masked report of a prune-on campaign is
// byte-identical across worker counts (each test's prune state lives in its own trial
// loop, and outcomes fold in test-index order whichever worker ran them). Compared against
// the 1-worker run, not a golden, so the prune lane stays independent of the checkout path.
TEST(PruneAbTest, PruneOnMaskedReportInvariantAcrossWorkers) {
  auto masked_report = [](int workers) {
    ResetPipelineCounters();
    PipelineOptions options = ReferenceOptions(true, workers);
    PipelineResult result = RunSnowboardPipeline(options);
    CampaignReport report = BuildCampaignReport(options, result);
    return MaskReportVolatile(RenderReportJson(report));
  };
  std::string base = masked_report(1);
  ASSERT_FALSE(base.empty());
  for (int workers : {2, 4, 8}) {
    EXPECT_EQ(masked_report(workers), base) << "workers=" << workers;
  }
  // The funnel carries the prune rows.
  EXPECT_NE(base.find("\"stage\": \"trials_pruned\""), std::string::npos);
  EXPECT_NE(base.find("\"stage\": \"tests_saturated\""), std::string::npos);
  EXPECT_NE(base.find("\"switch_decisions\""), std::string::npos);
}

}  // namespace
}  // namespace snowboard
