// §5.4 reproduction — pipeline performance.
//
// The paper reports: profiling 129,876 sequential tests in ~40h, PMC identification +
// clustering in <5h without S-FULL (~80h with it), concurrent-test generation at >1000
// tests/second, and execution throughput of 193.8 (Snowboard) vs 170.3 (SKI) executions
// per minute — SKI being slower because it "yields thread execution whenever it observes
// the write or read instruction involved in a PMC (regardless of memory targets)".
//
// Our absolute numbers are simulator-scale; the reproduced *shape* is: generation is orders
// of magnitude faster than execution, S-FULL dominates clustering cost, and Snowboard's
// precise PMC matching yields at least SKI-instruction-matching throughput.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/fuzz/generator.h"
#include "src/ski/baselines.h"

namespace snowboard {
namespace {

const PreparedCampaign& Campaign() {
  static const PreparedCampaign* campaign =
      new PreparedCampaign(bench::CanonicalCampaign());
  return *campaign;
}

std::vector<ConcurrentTest> HintedTests(size_t count) {
  PipelineOptions options = bench::CanonicalOptions(Strategy::kSInsPair, count, 1);
  return GenerateTestsForStrategy(Campaign(), options, nullptr);
}

// --- Stage benchmarks. ---

// Campaign preparation (stages 1-2: sharded profiling + sharded PMC identification) at
// several worker counts. The determinism harness proves the outputs are byte-identical
// across counts; this measures the wall-clock payoff (≥2× at 4 workers on ≥4 host cores —
// corpus construction is excluded from the reported counter since it stays sequential).
void BM_CampaignPreparation(benchmark::State& state) {
  int workers = static_cast<int>(state.range(0));
  double prep_seconds = 0;
  for (auto _ : state) {
    PipelineOptions options = bench::CanonicalOptions(Strategy::kSInsPair, 0, workers);
    PreparedCampaign campaign = PrepareCampaign(options);
    prep_seconds += campaign.profile_seconds + campaign.identify_seconds;
    benchmark::DoNotOptimize(campaign);
  }
  state.counters["profile+identify_s"] =
      benchmark::Counter(prep_seconds, benchmark::Counter::kAvgIterations);
  state.SetLabel(workers == 1 ? "sequential baseline" : "sharded preparation");
}
BENCHMARK(BM_CampaignPreparation)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Multi-strategy preparation with a shared profile cache: the second strategy's profiling
// stage is served entirely from the cache (Table 3 runs 5+ strategies over one corpus).
void BM_PreparationWithProfileCache(benchmark::State& state) {
  for (auto _ : state) {
    ProfileCache cache;
    PipelineOptions options = bench::CanonicalOptions(Strategy::kSInsPair, 0, 1);
    options.profile_cache = &cache;
    PreparedCampaign first = PrepareCampaign(options);
    options.strategy = Strategy::kSCh;
    PreparedCampaign second = PrepareCampaign(options);
    benchmark::DoNotOptimize(first);
    benchmark::DoNotOptimize(second);
  }
  state.SetLabel("2 strategies, 1 profiling pass");
}
BENCHMARK(BM_PreparationWithProfileCache)->Unit(benchmark::kMillisecond);

void BM_SequentialProfiling(benchmark::State& state) {
  KernelVm vm;
  const std::vector<Program>& corpus = Campaign().corpus;
  size_t tests = 0;
  for (auto _ : state) {
    SequentialProfile profile =
        ProfileTest(vm, corpus[tests % corpus.size()], static_cast<int>(tests));
    benchmark::DoNotOptimize(profile);
    tests++;
  }
  state.counters["tests/s"] =
      benchmark::Counter(static_cast<double>(tests), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialProfiling);

void BM_PmcIdentificationAndClustering(benchmark::State& state) {
  bool with_sfull = state.range(0) != 0;
  for (auto _ : state) {
    std::vector<Pmc> pmcs = IdentifyPmcs(Campaign().profiles);
    for (Strategy strategy : kAllClusteringStrategies) {
      if (!with_sfull && strategy == Strategy::kSFull) {
        continue;  // "Removing S-FULL ... completes all clustering in under 5 hours."
      }
      std::vector<PmcCluster> clusters = ClusterPmcs(pmcs, strategy);
      benchmark::DoNotOptimize(clusters);
    }
  }
  state.SetLabel(with_sfull ? "all strategies" : "without S-FULL");
}
BENCHMARK(BM_PmcIdentificationAndClustering)->Arg(0)->Arg(1);

void BM_ConcurrentTestGeneration(benchmark::State& state) {
  // ">1000 tests per second, significantly higher than the execution throughput."
  static const std::vector<Pmc>& pmcs = Campaign().pmcs;
  static const std::vector<PmcCluster>* clusters =
      new std::vector<PmcCluster>(ClusterPmcs(pmcs, Strategy::kSInsPair));
  size_t generated = 0;
  for (auto _ : state) {
    SelectOptions select;
    select.seed = 7 + generated;
    std::vector<ConcurrentTest> tests =
        SelectConcurrentTests(pmcs, *clusters, Campaign().corpus, select);
    generated += tests.size();
    benchmark::DoNotOptimize(tests);
  }
  state.counters["tests/s"] =
      benchmark::Counter(static_cast<double>(generated), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConcurrentTestGeneration);

// --- End-to-end campaign wall clock. ---

// Full RunSnowboardPipeline wall clock at several worker counts: profiles fold into PMC
// identification while the profile tail runs, and exploration overlaps the remaining
// preparation.
void BM_PipelineEndToEnd(benchmark::State& state) {
  int workers = static_cast<int>(state.range(0));
  uint64_t trials = 0;
  for (auto _ : state) {
    PipelineResult result =
        RunSnowboardPipeline(bench::CanonicalOptions(Strategy::kSInsPair, 48, workers));
    trials += result.total_trials;
    benchmark::DoNotOptimize(result);
  }
  state.counters["trials"] =
      benchmark::Counter(static_cast<double>(trials), benchmark::Counter::kAvgIterations);
  state.SetLabel(std::to_string(workers) + " worker(s)");
}
BENCHMARK(BM_PipelineEndToEnd)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// --- Execution throughput: Snowboard (precise PMC match) vs SKI (instruction match). ---

void BM_ExecutionThroughputSnowboard(benchmark::State& state) {
  KernelVm vm;
  static const std::vector<ConcurrentTest>* tests =
      new std::vector<ConcurrentTest>(HintedTests(64));
  ExplorerOptions options;
  options.num_trials = 4;
  options.adopt_incidental = false;
  size_t executions = 0;
  size_t i = 0;
  for (auto _ : state) {
    ExploreOutcome outcome =
        ExploreConcurrentTest(vm, (*tests)[i % tests->size()], nullptr, options);
    executions += static_cast<size_t>(outcome.trials_run);
    i++;
  }
  state.counters["exec/min"] = benchmark::Counter(static_cast<double>(executions) * 60.0,
                                                  benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecutionThroughputSnowboard);

void BM_ExecutionThroughputSki(benchmark::State& state) {
  KernelVm vm;
  static const std::vector<ConcurrentTest>* tests =
      new std::vector<ConcurrentTest>(HintedTests(64));
  ExplorerOptions options;
  options.num_trials = 4;
  size_t executions = 0;
  size_t i = 0;
  for (auto _ : state) {
    ExploreOutcome outcome = ExploreWithSkiHints(vm, (*tests)[i % tests->size()], options);
    executions += static_cast<size_t>(outcome.trials_run);
    i++;
  }
  state.counters["exec/min"] = benchmark::Counter(static_cast<double>(executions) * 60.0,
                                                  benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecutionThroughputSki);

}  // namespace
}  // namespace snowboard

int main(int argc, char** argv) {
  snowboard::bench::PrintHeader("§5.4 — pipeline performance (see counters below)");
  benchmark::Initialize(&argc, argv);
  snowboard::bench::ReportEnvironment();
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\npaper reference points: generation >1000 tests/s ≫ execution; Snowboard "
              "193.8 vs SKI 170.3 exec/min;\nclustering dominated by S-FULL.\n");
  return 0;
}
