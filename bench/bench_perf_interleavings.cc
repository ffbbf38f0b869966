// §5.4 reproduction — interleavings to expose.
//
// "We execute all 9 concurrent tests that found bugs ... with Snowboard and SKI. SKI
// requires 84 times more interleavings than Snowboard on average to expose the concurrency
// bug (826.29 interleavings/test for SKI, versus only 9.76 for Snowboard). Since Snowboard
// uses SKI for its fine-grained scheduling control, its advantage comes solely from its use
// of PMCs as scheduling hints and the scheduling algorithm."
//
// This bench regenerates the experiment: it takes the bug-triggering concurrent tests found
// by a campaign, re-runs each to exposure of ITS issue under (a) Algorithm 2 with the PMC
// hint and (b) SKI PCT-style unguided exploration, and reports per-test and average
// interleaving counts plus the ratio. Exits 1 unless SKI needs more than twice Snowboard's
// average.
#include <set>
#include <string>

#include "bench/bench_common.h"
#include "src/ski/baselines.h"

namespace snowboard {
namespace {

struct BugTest {
  ConcurrentTest test;
  int issue_id;
};

int Run() {
  bench::PrintHeader("§5.4 — interleavings to expose: Snowboard (PMC hints) vs SKI");
  const int kMaxTrials = 4096;

  // Phase 1: run a campaign and harvest bug-triggering tests (one per issue).
  PipelineOptions options = bench::CanonicalOptions(Strategy::kSInsPair, 400, 4);
  PreparedCampaign campaign = PrepareCampaign(options);
  std::vector<ConcurrentTest> tests = GenerateTestsForStrategy(campaign, options, nullptr);

  std::vector<BugTest> bug_tests;
  {
    KernelVm vm;
    std::set<int> covered;
    for (size_t i = 0; i < tests.size() && bug_tests.size() < 9; i++) {
      ExplorerOptions probe;
      probe.num_trials = 24;
      probe.seed = options.explorer.seed + i * 1000003ull;
      ExploreOutcome outcome = ExploreConcurrentTest(vm, tests[i], nullptr, probe);
      int issue = bench::HarvestedIssue(outcome);
      if (issue != 0 && covered.insert(issue).second) {
        bug_tests.push_back(BugTest{tests[i], issue});
      }
    }
  }
  std::printf("harvested %zu bug-triggering concurrent tests\n\n", bug_tests.size());
  std::printf("%-8s %-12s %-12s %s\n", "issue", "snowboard", "ski", "(interleavings to expose)");

  KernelVm vm;
  double snowboard_sum = 0;
  double ski_sum = 0;
  int both = 0;
  for (const BugTest& bug : bug_tests) {
    ExposeComparison comparison =
        CompareTrialsToExpose(vm, bug.test, bug.issue_id, kMaxTrials, /*seed=*/17);
    std::printf("#%-7d %-12s %-12s\n", bug.issue_id,
                comparison.snowboard_found
                    ? std::to_string(comparison.snowboard_trials).c_str()
                    : "not found",
                comparison.ski_found ? std::to_string(comparison.ski_trials).c_str()
                                     : ">budget");
    if (comparison.snowboard_found) {
      snowboard_sum += comparison.snowboard_trials;
      ski_sum += comparison.ski_found ? comparison.ski_trials : kMaxTrials;
      both++;
    }
  }
  if (both == 0) {
    std::printf("no comparable tests\n");
    return 1;
  }
  double snowboard_avg = snowboard_sum / both;
  double ski_avg = ski_sum / both;
  std::printf("\naverage interleavings/test: Snowboard %.2f vs SKI %.2f  (ratio %.1fx)\n",
              snowboard_avg, ski_avg, ski_avg / snowboard_avg);
  std::printf("paper: 9.76 vs 826.29 (84x). Shape check: ratio > 2x ... %s\n",
              ski_avg > 2 * snowboard_avg ? "HOLDS" : "VIOLATED");
  return ski_avg > 2 * snowboard_avg ? 0 : 1;
}

}  // namespace
}  // namespace snowboard

int main() { return snowboard::Run(); }
