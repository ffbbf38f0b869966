// Quickstart: the whole Snowboard pipeline in ~60 lines.
//
//   1. Boot the mini-kernel VM and snapshot its fixed initial state.
//   2. Write two sequential tests (here: the Figure 1 l2tp writer/reader programs).
//   3. Profile them and identify PMCs (Algorithm 1).
//   4. Cluster + select concurrent tests (S-INS-PAIR), then explore interleavings with the
//      PMC as a scheduling hint (Algorithm 2).
//   5. Print what the bug detectors caught.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "src/fuzz/generator.h"
#include "src/snowboard/pipeline.h"

using namespace snowboard;

int main() {
  // 1. A booted VM: kernel state lives in the arena; the snapshot is taken at construction.
  KernelVm vm;

  // 2. Two sequential tests. SeedPrograms()[0]/[1] are exactly Figure 1's test 1 & 2:
  //      r0 = socket(PX_PROTO_OL2TP); r1 = socket(AF_INET); connect(r0, tid=1) [; sendmsg].
  std::vector<Program> corpus = {SeedPrograms()[0], SeedPrograms()[1]};
  std::printf("--- sequential tests ---\n%s\n---\n%s\n---\n", corpus[0].Format().c_str(),
              corpus[1].Format().c_str());

  // 3. Profile from the fixed initial state, then run Algorithm 1.
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  std::printf("identified %zu PMCs from %zu + %zu shared accesses\n", pmcs.size(),
              profiles[0].accesses.size(), profiles[1].accesses.size());

  // 4. Cluster (S-INS-PAIR), prioritize uncommon-first, and build concurrent tests.
  std::vector<PmcCluster> clusters = ClusterPmcs(pmcs, Strategy::kSInsPair);
  SelectOptions select;
  select.seed = 7;
  std::vector<ConcurrentTest> tests = SelectConcurrentTests(pmcs, clusters, corpus, select);
  std::printf("%zu clusters -> %zu concurrent tests\n", clusters.size(), tests.size());

  // 5. Explore each test's interleavings with its PMC hint; report findings.
  FindingsLog findings;
  ExplorerOptions explorer;
  explorer.num_trials = 32;
  for (size_t i = 0; i < tests.size(); i++) {
    explorer.seed = 2021 + i * 1000003ull;
    ExploreOutcome outcome = ExploreConcurrentTest(vm, tests[i], nullptr, explorer);
    findings.Merge(ExtractFindings(tests[i], outcome, i, explorer));
  }
  std::printf("\n--- findings (%zu raw) ---\n%s", findings.total_findings(),
              findings.Summarize().c_str());
  return 0;
}
