// A guided walk through the paper's Figure 1 case study (§5.2 Case 2, Table 2 issue #12):
// the l2tp order-violation bug — a kernel NULL pointer dereference that involves NO data
// race, found through the PMC between tunnel registration and retrieval.
//
// The example shows each pipeline stage's view of the bug, then demonstrates why the PMC
// scheduling hint matters: Algorithm 2 exposes the panic in a handful of trials, while
// SKI-style unguided exploration needs far more.
#include <cstdio>

#include "src/fuzz/generator.h"
#include "src/kernel/net/l2tp.h"
#include "src/sim/site.h"
#include "src/ski/baselines.h"
#include "src/snowboard/pipeline.h"

using namespace snowboard;

int main() {
  KernelVm vm;
  const KernelGlobals& g = vm.globals();

  std::vector<Program> corpus = {SeedPrograms()[0], SeedPrograms()[1]};
  std::printf("Test 1 (writer):\n%s\n\nTest 2 (reader):\n%s\n\n",
              corpus[0].Format().c_str(), corpus[1].Format().c_str());

  // Stage 1-2: profile + identify. Among the PMCs is the Figure 1 channel: the writer's
  // list_add_rcu publish into l2tp_tunnel_list vs the reader's list-head load.
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  GuestAddr list_head = g.l2tp + kL2tpListHead;
  const Pmc* channel = nullptr;
  for (const Pmc& pmc : pmcs) {
    if (pmc.key.write.addr == list_head && pmc.key.read.addr == list_head &&
        pmc.key.write.value != 0) {
      channel = &pmc;
      break;
    }
  }
  if (channel == nullptr) {
    std::printf("ERROR: the tunnel-registration PMC was not identified\n");
    return 1;
  }
  std::printf("PMC channel (the ➊→➌ data flow of Figure 1):\n"
              "  write: %s  [0x%x..+%u] value=0x%llx  (tunnel published)\n"
              "  read:  %s  [0x%x..+%u] value=0x%llx  (reader saw an empty list "
              "sequentially)\n\n",
              SiteName(channel->key.write.site).c_str(), channel->key.write.addr,
              channel->key.write.len,
              static_cast<unsigned long long>(channel->key.write.value),
              SiteName(channel->key.read.site).c_str(), channel->key.read.addr,
              channel->key.read.len,
              static_cast<unsigned long long>(channel->key.read.value));

  ConcurrentTest test;
  test.writer = corpus[0];
  test.reader = corpus[1];
  test.write_test = 0;
  test.read_test = 1;
  test.hint = channel->key;

  // Stage 4: Algorithm 2 vs SKI, counting interleavings to the #12 panic (§5.4's
  // "9.76 vs 826.29 interleavings per test").
  ExposeComparison comparison =
      CompareTrialsToExpose(vm, test, /*target_issue=*/12, /*max_trials=*/1024, /*seed=*/3);
  std::printf("Snowboard (PMC hint): %s after %d interleaving(s)\n",
              comparison.snowboard_found ? "panic exposed" : "not exposed",
              comparison.snowboard_trials);
  std::printf("SKI (unguided PCT):   %s after %d interleaving(s)\n",
              comparison.ski_found ? "panic exposed" : "not exposed",
              comparison.ski_trials);

  // Show the actual panic for the record.
  ExplorerOptions options;
  options.num_trials = 64;
  options.target_issue = 12;
  ExploreOutcome outcome = ExploreConcurrentTest(vm, test, nullptr, options);
  for (const FindingRecord& finding : outcome.findings) {
    if (finding.kind == FindingKind::kPanic) {
      std::printf("\nguest console: %s\n", finding.evidence.c_str());
    }
  }
  std::printf("\nNote: no data race is involved — the list is RCU-protected and "
              "tunnel->sock uses WRITE_ONCE/READ_ONCE;\nthe bug is the publish ORDER "
              "(sock initialized after the tunnel becomes visible).\n");
  return outcome.target_found ? 0 : 1;
}
