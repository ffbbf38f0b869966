// Edge cases of the pipeline and its options: degenerate budgets, tiny corpora, PMC
// identification caps, hot-cell pruning, and matcher bounds.
#include <gtest/gtest.h>

#include <numeric>
#include <utility>

#include "src/fuzz/generator.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/serialize.h"

namespace snowboard {
namespace {

// ResolvedWorkers is the single interpretation of num_workers shared by every stage:
// non-positive values (unset / nonsense from a caller) resolve to one worker, explicit
// counts pass through.
TEST(PipelineEdgeTest, ResolvedWorkersClampsNonPositiveCounts) {
  PipelineOptions options;
  EXPECT_EQ(options.ResolvedWorkers(), 1);  // Default num_workers = 1.
  options.num_workers = 0;
  EXPECT_EQ(options.ResolvedWorkers(), 1);
  options.num_workers = -3;
  EXPECT_EQ(options.ResolvedWorkers(), 1);
  options.num_workers = 8;
  EXPECT_EQ(options.ResolvedWorkers(), 8);
}

// A zero or negative worker count must behave exactly like one worker, end to end.
TEST(PipelineEdgeTest, NonPositiveWorkerCountRunsLikeOneWorker) {
  PipelineOptions base;
  base.corpus.max_iterations = 10;
  base.corpus.target_size = 8;
  base.max_concurrent_tests = 4;
  base.explorer.num_trials = 2;
  base.num_workers = 1;
  PipelineResult golden = RunSnowboardPipeline(base);
  for (int workers : {0, -1}) {
    SCOPED_TRACE(testing::Message() << "num_workers=" << workers);
    PipelineOptions options = base;
    options.num_workers = workers;
    PipelineResult result = RunSnowboardPipeline(options);
    EXPECT_EQ(result.tests_executed, golden.tests_executed);
    EXPECT_EQ(result.total_trials, golden.total_trials);
    EXPECT_EQ(result.pmc_count, golden.pmc_count);
  }
}

// Fewer tests than workers: the workers with nothing to claim wait on the engine's
// condition variable, so a campaign ends only if the worker that finishes the last
// explore item wakes them. Each run must end with the 1-worker result. Tests run enough
// trials to outlast the idle workers' trip to the wait, or the campaign could end before
// any of them waits.
TEST(PipelineEdgeTest, MoreWorkersThanTestsFinishes) {
  PipelineOptions base;
  base.corpus.max_iterations = 10;
  base.corpus.target_size = 8;
  base.explorer.num_trials = 40;
  for (size_t budget : {0, 1, 3}) {
    SCOPED_TRACE(testing::Message() << "budget=" << budget);
    PipelineOptions options = base;
    options.max_concurrent_tests = budget;
    options.num_workers = 1;
    PipelineResult one = RunSnowboardPipeline(options);
    EXPECT_EQ(one.tests_executed, budget);
    options.num_workers = 8;
    EXPECT_EQ(SerializePipelineResult(RunSnowboardPipeline(options)),
              SerializePipelineResult(one));
  }

  PipelineOptions options = base;
  options.max_concurrent_tests = 2;
  PreparedCampaign campaign = PrepareCampaign(options);
  std::vector<ConcurrentTest> tests = GenerateTestsForStrategy(campaign, options, nullptr);
  ASSERT_EQ(tests.size(), 2u);
  PmcMatcher matcher(&campaign.pmcs);
  auto execute = [&](int workers) {
    PipelineOptions run = options;
    run.num_workers = workers;
    PipelineResult result;
    ExecuteCampaign(tests, /*use_pmc_hints=*/true, &matcher, run, &result);
    EXPECT_EQ(result.tests_executed, tests.size());
    return SerializePipelineResult(result);
  };
  EXPECT_EQ(execute(8), execute(1));
}

TEST(PipelineEdgeTest, ZeroBudgetExecutesNothing) {
  PipelineOptions options;
  options.corpus.max_iterations = 10;
  options.corpus.target_size = 10;
  options.max_concurrent_tests = 0;
  PipelineResult result = RunSnowboardPipeline(options);
  EXPECT_EQ(result.tests_generated, 0u);
  EXPECT_EQ(result.tests_executed, 0u);
  EXPECT_EQ(result.findings.total_findings(), 0u);
  EXPECT_GT(result.pmc_count, 0u);  // Identification still ran.
}

TEST(PipelineEdgeTest, SingleTestCorpusStillWorks) {
  // One sequential test: all PMCs are self-pairs; duplicate-style concurrent tests result.
  KernelVm vm;
  std::vector<Program> corpus = {SeedPrograms()[1]};  // l2tp reader (connect+sendmsg).
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  EXPECT_GT(pmcs.size(), 0u);
  for (const Pmc& pmc : pmcs) {
    for (const PmcTestPair& pair : pmc.pairs) {
      EXPECT_EQ(pair.write_test, 0);
      EXPECT_EQ(pair.read_test, 0);
    }
  }
  std::vector<PmcCluster> clusters = ClusterPmcs(pmcs, Strategy::kSInsPair);
  SelectOptions select;
  std::vector<ConcurrentTest> tests = SelectConcurrentTests(pmcs, clusters, corpus, select);
  ASSERT_GT(tests.size(), 0u);
  EXPECT_EQ(tests[0].write_test, tests[0].read_test);
}

TEST(PipelineEdgeTest, MaxPmcCapStopsIdentification) {
  KernelVm vm;
  std::vector<Program> corpus = {SeedPrograms()[0], SeedPrograms()[1]};
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  PmcIdentifyOptions options;
  options.max_pmcs = 5;
  EXPECT_EQ(IdentifyPmcs(profiles, options).size(), 5u);
}

TEST(PipelineEdgeTest, HotCellPruningReducesPmcs) {
  KernelVm vm;
  std::vector<Program> corpus = CorpusPrograms(BuildCorpus(vm, CorpusOptions{}));
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  std::vector<Pmc> unpruned = IdentifyPmcs(profiles);
  PmcIdentifyOptions pruned_options;
  pruned_options.max_keys_per_address = 2;  // Drop hot cells (counters, lock words).
  std::vector<Pmc> pruned = IdentifyPmcs(profiles, pruned_options);
  EXPECT_LT(pruned.size(), unpruned.size());
  EXPECT_GT(pruned.size(), 0u);
}

TEST(PipelineEdgeTest, MatcherIndexBoundRespected) {
  std::vector<Pmc> pmcs;
  Trace trace;
  for (uint32_t i = 0; i < 100; i++) {
    Pmc pmc;
    pmc.key.write = PmcSide{0x1000 + 4 * i, 4, 100 + i, 1};
    pmc.key.read = PmcSide{0x1000 + 4 * i, 4, 200 + i, 2};
    pmcs.push_back(pmc);
    for (const auto& [type, side] : {std::pair{AccessType::kWrite, pmc.key.write},
                                     std::pair{AccessType::kRead, pmc.key.read}}) {
      Event event;
      event.access = {.type = type, .len = side.len, .addr = side.addr, .value = side.value,
                      .site = side.site};
      trace.push_back(event);
    }
  }
  PmcMatcher matcher(&pmcs, /*max_indexed=*/10);
  PmcMatcher::Search search;
  // Every PMC occurred in full, but only the indexed prefix is findable.
  matcher.FindIncidental(trace, FlatSet<uint64_t>(), &search);
  std::vector<uint32_t> indexed(10);
  std::iota(indexed.begin(), indexed.end(), 0u);
  EXPECT_EQ(search.matches(), indexed);
}

TEST(PipelineEdgeTest, ExplorerZeroTrials) {
  KernelVm vm;
  ConcurrentTest test;
  test.writer = SeedPrograms()[0];
  test.reader = SeedPrograms()[1];
  ExplorerOptions options;
  options.num_trials = 0;
  ExploreOutcome outcome = ExploreConcurrentTest(vm, test, nullptr, options);
  EXPECT_EQ(outcome.trials_run, 0);
  EXPECT_FALSE(outcome.bug_found);
}

TEST(PipelineEdgeTest, BudgetLargerThanClusterCountIsClamped) {
  PipelineOptions options;
  options.corpus.max_iterations = 20;
  options.corpus.target_size = 20;
  options.max_concurrent_tests = 1'000'000;
  options.explorer.num_trials = 2;
  options.strategy = Strategy::kSMem;
  PipelineResult result = RunSnowboardPipeline(options);
  EXPECT_EQ(result.tests_generated, result.cluster_count);  // One exemplar per cluster.
  EXPECT_EQ(result.tests_executed, result.tests_generated);
}

TEST(PipelineEdgeTest, FindingsSurviveWorkerCountChange) {
  // The set of found issue ids must not depend on worker parallelism (order may).
  PipelineOptions options;
  options.corpus.max_iterations = 30;
  options.corpus.target_size = 30;
  options.max_concurrent_tests = 25;
  options.explorer.num_trials = 6;
  options.strategy = Strategy::kSIns;

  options.num_workers = 1;
  PipelineResult one = RunSnowboardPipeline(options);
  options.num_workers = 8;
  PipelineResult eight = RunSnowboardPipeline(options);
  std::set<int> ids_one;
  std::set<int> ids_eight;
  for (const auto& [id, finding] : one.findings.first_findings()) {
    ids_one.insert(id);
  }
  for (const auto& [id, finding] : eight.findings.first_findings()) {
    ids_eight.insert(id);
  }
  EXPECT_EQ(ids_one, ids_eight);
}

}  // namespace
}  // namespace snowboard
