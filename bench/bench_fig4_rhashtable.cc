// Figure 4 reproduction: the rhashtable conditional-with-omitted-operands bug (#1).
//
// Compares the two "compiler options" of the figure — rht_ptr emitting a double fetch
// (gcc -O2, the buggy codegen) vs a single fetch (gcc -O1 -fno-tree-dominator-opts
// -fno-tree-fre) — by running the msgget()/msgctl(IPC_RMID) syscall pair through Snowboard's
// own machinery against BOTH kernel builds: profile, identify the bucket-word PMCs, and
// explore each cluster exemplar with Algorithm 2 (flags + incidental adoption), exactly as a
// campaign would. The buggy build must reach the "BUG: unable to handle page fault /
// NULL pointer dereference" panic; the single-fetch build must survive every schedule.
//
// "In this case, the interleaving vulnerability window is extremely narrow — a single
// assembly instruction — hence hard for a tool to find at random."
#include <string>

#include "bench/bench_common.h"
#include "src/fuzz/generator.h"
#include "src/kernel/ipc/msg.h"
#include "src/kernel/rhashtable.h"
#include "src/sim/site.h"

namespace snowboard {
namespace {

struct ModeResult {
  int hints_explored = 0;
  int trials = 0;
  int panics = 0;
  std::string first_panic;
};

ModeResult RunMode(uint32_t fetch_mode, int trials_per_hint) {
  KernelVm vm;
  // Flip the "compiler option" in the booted image and make it the fixed initial state.
  GuestAddr ht = static_cast<GuestAddr>(
      vm.engine().mem().ReadRaw(vm.globals().msgipc + kMsgHt, 4));
  vm.engine().mem().WriteRaw(ht + kRhtFetchMode, 4, fetch_mode);
  vm.RefreshSnapshot();

  std::vector<Program> seeds = SeedPrograms();
  // Writer: msgget(2); msgctl(IPC_RMID) — executes rht_assign_unlock(bkt, 0).
  // Reader: msgget(2); msgsnd — the lookup-HIT path whose profile reads the occupied bucket.
  std::vector<Program> corpus = {seeds[9], seeds[10]};
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  PmcMatcher matcher(&pmcs);

  // Explore every bucket-word PMC exemplar, as the campaign's per-cluster loop does.
  ModeResult result;
  for (const Pmc& pmc : pmcs) {
    const PmcKey& key = pmc.key;
    if (key.write.addr < ht + kRhtBuckets || key.write.addr >= ht + kRhtBuckets + 32) {
      continue;
    }
    ConcurrentTest test;
    test.writer = corpus[0];
    test.reader = corpus[1];
    test.write_test = 0;
    test.read_test = 1;
    test.hint = key;

    // Sweep several exploration seeds per exemplar: the window is a single instruction
    // wide, so exposure rates are on the order of one panic per ~10k guided trials — a
    // campaign reaches that volume through its many tests; the bench reaches it through
    // seeds. The single-fetch build must survive the IDENTICAL schedule budget.
    for (uint64_t seed : {99ull, 7ull, 2021ull, 12345ull}) {
      ExplorerOptions options;
      options.num_trials = trials_per_hint;
      options.seed = seed;
      ExploreOutcome outcome = ExploreConcurrentTest(vm, test, &matcher, options);
      result.trials += outcome.trials_run;
      for (const FindingRecord& finding : outcome.findings) {
        if (finding.kind != FindingKind::kPanic) {
          continue;
        }
        result.panics++;
        if (result.first_panic.empty()) {
          result.first_panic = finding.evidence;
        }
      }
    }
    result.hints_explored++;
  }
  return result;
}

int Run() {
  bench::PrintHeader("Figure 4 — rhashtable double fetch (issue #1), both compiler options");
  std::printf("concurrent test: msgget(2)+msgctl(IPC_RMID)  ||  msgget(2)+msgsnd\n\n");
  const int kTrialsPerHint = 512;

  ModeResult buggy = RunMode(kRhtDoubleFetch, kTrialsPerHint);
  std::printf("compiler option 2 (gcc -O2, DOUBLE fetch):\n"
              "  %d bucket-PMC exemplars, %d guided trials -> %d panic(s)\n",
              buggy.hints_explored, buggy.trials, buggy.panics);
  if (!buggy.first_panic.empty()) {
    std::printf("  guest console: %s\n", buggy.first_panic.c_str());
  }

  ModeResult fixed = RunMode(kRhtSingleFetch, kTrialsPerHint);
  std::printf("\ncompiler option 1 (single READ_ONCE fetch):\n"
              "  %d bucket-PMC exemplars, %d guided trials -> %d panic(s)\n",
              fixed.hints_explored, fixed.trials, fixed.panics);

  std::printf("\nshape check: double fetch panics, single fetch immune ... %s\n",
              buggy.panics > 0 && fixed.panics == 0 ? "HOLDS" : "VIOLATED");
  return buggy.panics > 0 && fixed.panics == 0 ? 0 : 1;
}

}  // namespace
}  // namespace snowboard

int main() { return snowboard::Run(); }
