// Shared setup for the bench binaries: a canonical corpus/campaign configuration so every
// table/figure is regenerated from the same inputs (the paper runs all strategies against
// one profiled corpus per kernel version).
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>

#include "src/snowboard/pipeline.h"

namespace snowboard {
namespace bench {

inline PipelineOptions CanonicalOptions(Strategy strategy, size_t budget, int workers) {
  PipelineOptions options;
  options.seed = 1;
  options.corpus.seed = 42;
  options.corpus.max_iterations = 300;
  options.corpus.target_size = 80;
  options.strategy = strategy;
  options.max_concurrent_tests = budget;
  options.explorer.num_trials = 24;
  options.num_workers = workers;
  return options;
}

inline PreparedCampaign CanonicalCampaign() {
  return PrepareCampaign(CanonicalOptions(Strategy::kSInsPair, 0, 1));
}

// Finds the Figure 1 l2tp publish PMC in an identified set; returns false if absent.
inline bool FindL2tpHint(const KernelVm& vm, const std::vector<Pmc>& pmcs, PmcKey* hint) {
  GuestAddr list_head = vm.globals().l2tp + 4;  // kL2tpListHead.
  for (const Pmc& pmc : pmcs) {
    if (pmc.key.write.addr == list_head && pmc.key.read.addr == list_head &&
        pmc.key.write.value != 0) {
      *hint = pmc.key;
      return true;
    }
  }
  return false;
}

// The issue a harvest probe credits to a test: its highest race issue other than the
// ubiquitous #13, overridden by a classified panic.
inline int HarvestedIssue(const ExploreOutcome& outcome) {
  int issue = 0;
  for (const FindingRecord& finding : outcome.findings) {
    if (finding.kind == FindingKind::kRace && finding.issue_id > issue &&
        finding.issue_id != 13) {
      issue = finding.issue_id;
    } else if (finding.kind == FindingKind::kPanic && finding.issue_id != 0) {
      issue = finding.issue_id;
    }
  }
  return issue;
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n"
              "%s\n"
              "================================================================\n",
              title);
}

}  // namespace bench
}  // namespace snowboard

#endif  // BENCH_BENCH_COMMON_H_
