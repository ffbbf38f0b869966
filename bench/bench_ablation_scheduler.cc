// Ablation study: which parts of Algorithm 2's scheduling actually buy the exposure speed?
//
// The §5.4 comparison attributes Snowboard's advantage to "its use of PMCs as scheduling
// hints and the scheduling algorithm (Algorithm 2)". This bench decomposes that: for the
// bug-triggering tests of a campaign, it measures trials-to-expose under
//   (a) full Algorithm 2 (precise PMC matching + flags + incidental adoption),
//   (b) no flags (pmc_access_coming disabled — only performed_pmc_access switches),
//   (c) instruction-only matching (the SKI-style hint: site match, targets ignored),
//   (d) unguided random preemption.
// Expected shape: (a) <= (b) << (d); (c) lands between (b) and (d).
#include <set>
#include <string>

#include "bench/bench_common.h"
#include "src/ski/ski_scheduler.h"

namespace snowboard {
namespace {

struct AblationRow {
  int issue_id = 0;
  int full = 0;
  int no_flags = 0;
  int ins_only = 0;
  int random = 0;
};

int Run() {
  bench::PrintHeader("Ablation — Algorithm 2 components vs trials-to-expose");
  const int kMaxTrials = 2048;

  PipelineOptions options = bench::CanonicalOptions(Strategy::kSInsPair, 400, 4);
  PreparedCampaign campaign = PrepareCampaign(options);
  std::vector<ConcurrentTest> tests = GenerateTestsForStrategy(campaign, options, nullptr);

  // Harvest one bug-triggering test per issue (as bench_perf_interleavings does).
  struct BugTest {
    ConcurrentTest test;
    int issue_id;
  };
  std::vector<BugTest> bug_tests;
  {
    KernelVm vm;
    std::set<int> covered;
    for (size_t i = 0; i < tests.size() && bug_tests.size() < 6; i++) {
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

  std::printf("%-8s %10s %10s %10s %10s\n", "issue", "full", "no-flags", "ins-only",
              "random");
  KernelVm vm;
  double sums[4] = {0, 0, 0, 0};
  for (const BugTest& bug : bug_tests) {
    AblationRow row;
    row.issue_id = bug.issue_id;

    {
      // (a) Full Algorithm 2.
      ExplorerOptions eo;
      eo.num_trials = kMaxTrials;
      eo.seed = 17;
      eo.target_issue = bug.issue_id;
      ExploreOutcome outcome = ExploreConcurrentTest(vm, bug.test, nullptr, eo);
      row.full = outcome.target_found ? outcome.first_target_trial + 1 : kMaxTrials;
    }
    {
      // (b) No flags: a PmcScheduler with the flags mechanism disabled.
      PmcScheduler scheduler;
      scheduler.set_flags_enabled(false);
      scheduler.ResetForTest(bug.test.hint);
      ExplorerOptions eo;
      eo.num_trials = kMaxTrials;
      eo.seed = 17;
      eo.target_issue = bug.issue_id;
      ExploreOutcome outcome =
          ExploreWithScheduler(vm, bug.test, scheduler, /*check_channel=*/false, eo);
      row.no_flags = outcome.target_found ? outcome.first_target_trial + 1 : kMaxTrials;
    }
    {
      // (c) Instruction-only matching (SKI's hint usage).
      SkiInstructionScheduler scheduler(bug.test.hint);
      ExplorerOptions eo;
      eo.num_trials = kMaxTrials;
      eo.seed = 17;
      eo.target_issue = bug.issue_id;
      ExploreOutcome outcome =
          ExploreWithScheduler(vm, bug.test, scheduler, /*check_channel=*/false, eo);
      row.ins_only = outcome.target_found ? outcome.first_target_trial + 1 : kMaxTrials;
    }
    {
      // (d) Unguided random preemption.
      RandomPreemptScheduler scheduler;
      ExplorerOptions eo;
      eo.num_trials = kMaxTrials;
      eo.seed = 17;
      eo.target_issue = bug.issue_id;
      ExploreOutcome outcome =
          ExploreWithScheduler(vm, bug.test, scheduler, /*check_channel=*/false, eo);
      row.random = outcome.target_found ? outcome.first_target_trial + 1 : kMaxTrials;
    }

    std::printf("#%-7d %10d %10d %10d %10d\n", row.issue_id, row.full, row.no_flags,
                row.ins_only, row.random);
    sums[0] += row.full;
    sums[1] += row.no_flags;
    sums[2] += row.ins_only;
    sums[3] += row.random;
  }
  size_t n = bug_tests.empty() ? 1 : bug_tests.size();
  std::printf("%-8s %10.1f %10.1f %10.1f %10.1f\n", "avg",
              sums[0] / static_cast<double>(n), sums[1] / static_cast<double>(n),
              sums[2] / static_cast<double>(n), sums[3] / static_cast<double>(n));
  bool shape = sums[0] <= sums[3] && sums[1] <= sums[3];
  std::printf("\nshape check: PMC-guided variants expose no slower than unguided random "
              "... %s\n",
              shape ? "HOLDS" : "VIOLATED");
  return shape ? 0 : 1;
}

}  // namespace
}  // namespace snowboard

int main() { return snowboard::Run(); }
