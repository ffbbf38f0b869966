// Figure 1 reproduction: the l2tp non-data-race concurrency bug (#12).
//
// Regenerates the figure's content programmatically: the two tests, the PMC between
// l2tp_tunnel_register's publish (➊) and pppol2tp_connect's retrieval (➌), and the panic
// that fires when the ➊→➋ window is interposed. Also verifies the §5.2 Case 2 claims: the
// tunnel id is user-controlled, and no data race is involved.
#include "bench/bench_common.h"
#include "src/fuzz/generator.h"
#include "src/sim/site.h"

namespace snowboard {
namespace {

int Run() {
  bench::PrintHeader("Figure 1 — l2tp order violation (issue #12)");
  KernelVm vm;
  std::vector<Program> corpus = {SeedPrograms()[0], SeedPrograms()[1]};
  std::printf("Test 1                          Test 2\n"
              "r0 = socket(PX_PROTO_OL2TP)     r0 = socket(PX_PROTO_OL2TP)\n"
              "r1 = socket(AF_INET)            r1 = socket(AF_INET)\n"
              "connect(r0, tid=1)              connect(r0, tid=1)\n"
              "                                sendmsg(r0, ...)\n\n");

  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  PmcKey hint;
  if (!bench::FindL2tpHint(vm, pmcs, &hint)) {
    std::printf("FAIL: registration PMC not identified\n");
    return 1;
  }
  std::printf("PMC identified from sequential profiles (%zu PMCs total):\n"
              "  ➊ write %s value=0x%llx\n  ➌ read  %s value=0x%llx\n\n",
              pmcs.size(), SiteName(hint.write.site).c_str(),
              static_cast<unsigned long long>(hint.write.value),
              SiteName(hint.read.site).c_str(),
              static_cast<unsigned long long>(hint.read.value));

  ConcurrentTest test;
  test.writer = corpus[0];
  test.reader = corpus[1];
  test.write_test = 0;
  test.read_test = 1;
  test.hint = hint;

  ExplorerOptions options;
  options.num_trials = 64;
  options.target_issue = 12;
  ExploreOutcome outcome = ExploreConcurrentTest(vm, test, nullptr, options);

  std::printf("exploration: %d trials, target %s\n", outcome.trials_run,
              outcome.target_found ? "EXPOSED" : "not exposed");
  for (const FindingRecord& finding : outcome.findings) {
    if (finding.kind == FindingKind::kPanic) {
      std::printf("  guest console: %s\n", finding.evidence.c_str());
    }
  }

  // §5.2 Case 2: "concurrency bugs ... also occur when there are no data races involved".
  // A race's evidence names the functions of both sites.
  bool l2tp_race = false;
  for (const FindingRecord& finding : outcome.findings) {
    l2tp_race = l2tp_race || (finding.kind == FindingKind::kRace &&
                              finding.evidence.find("L2tp") != std::string::npos);
  }
  std::printf("\nno l2tp data race reported by the race oracle: %s (the bug is an order "
              "violation)\n",
              l2tp_race ? "VIOLATED" : "HOLDS");
  return outcome.target_found && !l2tp_race ? 0 : 1;
}

}  // namespace
}  // namespace snowboard

int main() { return snowboard::Run(); }
