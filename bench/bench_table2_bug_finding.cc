// Table 2 reproduction: the full Snowboard campaign ("all clustering strategies combined",
// as for Linux 5.3.10 in §5.1) against the mini-kernel, reporting every Table 2 issue with
// its type, subsystem, harmful/benign triage, the input kind (distinct/duplicate test
// pair), and when it was first found. The paper found 17 issues; this bench regenerates the
// same 17-row table from scratch, and exits 1 unless each of #1-#17 is found and every
// finding is classified.
#include <set>

#include "bench/bench_common.h"

namespace snowboard {
namespace {

int Run() {
  bench::PrintHeader(
      "Table 2 — issues found by the full campaign (all strategies combined)");

  // Stages 1-2 once.
  PipelineOptions base = bench::CanonicalOptions(Strategy::kSInsPair, 120, 4);
  PreparedCampaign campaign = PrepareCampaign(base);
  PmcMatcher matcher(&campaign.pmcs);

  // Iterate strategies with a per-strategy budget, merging findings (§4.3: "this approach
  // can be applied iteratively: choose predicate A, test one exemplar from each A-cluster,
  // then choose predicate B, ...").
  PipelineResult merged;
  static constexpr Strategy kCombined[] = {
      Strategy::kSIns,      Strategy::kSInsPair,  Strategy::kSCh,
      Strategy::kSChNull,   Strategy::kSChDouble, Strategy::kSChUnaligned,
      Strategy::kSMem,      Strategy::kSFull,
  };
  size_t cumulative_tests = 0;
  for (Strategy strategy : kCombined) {
    PipelineOptions options = base;
    options.strategy = strategy;
    size_t clusters = 0;
    std::vector<ConcurrentTest> tests = GenerateTestsForStrategy(campaign, options, &clusters);
    PipelineResult stage;
    ExecuteCampaign(tests, /*use_pmc_hints=*/true, &matcher, options, &stage);
    // Shift test indices so "first found" is cumulative across the battery.
    FindingsLog shifted;
    for (const auto& [id, finding] : stage.findings.first_findings()) {
      Finding f = finding;
      f.test_index += cumulative_tests;
      shifted.Record(f);
    }
    merged.findings.Merge(shifted);
    merged.tests_executed += stage.tests_executed;
    merged.tests_with_bug += stage.tests_with_bug;
    merged.channel_exercised += stage.channel_exercised;
    merged.total_trials += stage.total_trials;
    cumulative_tests += stage.tests_executed;
  }

  std::printf("executed %zu concurrent tests (%llu trials); %zu triggered a detector\n\n",
              merged.tests_executed, static_cast<unsigned long long>(merged.total_trials),
              merged.tests_with_bug);
  std::printf("%-3s %-5s %-14s %-9s %-10s %-11s %s\n", "ID", "Type", "Subsystem", "Class",
              "Input", "FoundAt", "Summary");

  int found_count = 0;
  int harmful_found = 0;
  int benign_found = 0;
  for (const IssueInfo& issue : IssueCatalog()) {
    const auto& findings = merged.findings.first_findings();
    auto it = findings.find(issue.id);
    bool found = it != findings.end();
    if (found && issue.id <= 17) {  // #18-#22 are detector-tier prey, not Table 2 rows.
      found_count++;
      harmful_found += issue.harmful ? 1 : 0;
      benign_found += issue.benign ? 1 : 0;
    }
    std::printf("#%-2d %-5s %-14s %-9s %-10s %-11s %s\n", issue.id,
                IssueTypeName(issue.type), issue.subsystem,
                issue.benign ? "benign" : (issue.harmful ? "HARMFUL" : "reported"),
                found ? (it->second.duplicate_input ? "duplicate" : "distinct") : "-",
                found ? ("test " + std::to_string(it->second.test_index)).c_str()
                      : "NOT FOUND",
                issue.summary);
  }
  std::printf("\nfound %d/17 issues (%d harmful, %d benign data races)\n", found_count,
              harmful_found, benign_found);
  std::printf("paper: 17 issues = 14 concurrency bugs + 3 benign data races "
              "(12 confirmed, 6 fixed)\n");
  bool unclassified = merged.findings.Found(0);
  if (unclassified) {
    std::printf("unclassified finding present: %s\n",
                merged.findings.first_findings().at(0).evidence.c_str());
  }
  bool holds = found_count == 17 && !unclassified;
  std::printf("shape check: each of #1-#17 found, no unclassified finding ... %s\n",
              holds ? "HOLDS" : "VIOLATED");
  return holds ? 0 : 1;
}

}  // namespace
}  // namespace snowboard

int main() { return snowboard::Run(); }
