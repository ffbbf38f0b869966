// Figure 3 reproduction: the eth_commit_mac_addr_change()/dev_ifsioc_locked() data race
// (#9) — "the kernel can send a partially updated MAC address to the user."
//
// Runs the MAC writer/reader test pair through the full Snowboard machinery (profile ->
// PMC -> hint-guided exploration), then quantifies the harm: across trials, how often does
// the reader receive a TORN MAC (neither the old nor the new address)?
#include "bench/bench_common.h"
#include "src/fuzz/generator.h"
#include "src/kernel/net/netdev.h"
#include "src/kernel/task.h"
#include "src/sim/site.h"

namespace snowboard {
namespace {

int Run() {
  bench::PrintHeader("Figure 3 — torn MAC address data race (issue #9)");
  KernelVm vm;
  std::vector<Program> seeds = SeedPrograms();
  std::vector<Program> corpus = {seeds[2], seeds[3]};  // MAC setter / getter tests.
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);

  // The PMC over dev->dev_addr bytes.
  GuestAddr dev = kGuestNull;
  vm.engine().RunSequential([&](Ctx& ctx) {
    TaskEnter(ctx, vm.globals().tasks[0]);
    dev = DevGetByIndex(ctx, vm.globals(), 0);
  });
  const Pmc* channel = nullptr;
  for (const Pmc& pmc : pmcs) {
    if (pmc.key.write.addr >= dev + kDevAddr && pmc.key.write.addr < dev + kDevAddr + 6) {
      channel = &pmc;
      break;
    }
  }
  if (channel == nullptr) {
    std::printf("FAIL: dev_addr PMC not identified\n");
    return 1;
  }
  std::printf("PMC on dev->dev_addr: write %s / read %s\n\n",
              SiteName(channel->key.write.site).c_str(),
              SiteName(channel->key.read.site).c_str());

  ConcurrentTest test;
  test.writer = corpus[0];
  test.reader = corpus[1];
  test.write_test = 0;
  test.read_test = 1;
  test.hint = channel->key;

  // Detection: the race oracle must classify the pair as issue #9.
  ExplorerOptions options;
  options.num_trials = 64;
  ExploreOutcome outcome = ExploreConcurrentTest(vm, test, nullptr, options);
  size_t races = 0;
  bool classified = false;
  for (const FindingRecord& finding : outcome.findings) {
    if (finding.kind == FindingKind::kRace) {
      races++;
      classified = classified || finding.issue_id == 9;
    }
  }
  std::printf("race oracle: %zu distinct races; issue #9 classified: %s\n", races,
              classified ? "yes" : "NO");

  // Harm quantification: count torn reads across hinted trials (old MAC AA*6; new pattern
  // from seed 1 is 0x21..0x26 per FillMacPattern).
  int torn = 0;
  int clean_old = 0;
  int clean_new = 0;
  const int kTrials = 64;
  PmcScheduler scheduler;
  scheduler.ResetForTest(channel->key);
  for (int trial = 0; trial < kTrials; trial++) {
    scheduler.SeedTrial(1000 + static_cast<uint64_t>(trial));
    vm.RestoreSnapshot();
    int64_t observed = -1;
    Engine::RunOptions run_opts;
    run_opts.scheduler = &scheduler;
    vm.engine().Run(
        {[&](Ctx& ctx) {
           TaskEnter(ctx, vm.globals().tasks[0]);
           // Same seed as the profiled writer test, so the stores match the PMC hint and
           // performed_pmc_access fires mid-copy. Pattern bytes: 0x21..0x26.
           DevIoctlSetMac(ctx, vm.globals(), 0, 1);
         },
         [&](Ctx& ctx) {
           TaskEnter(ctx, vm.globals().tasks[1]);
           observed = DevIoctlGetMac(ctx, vm.globals(), 0);
         }},
        run_opts);
    bool all_old = true;
    bool all_new = true;
    for (int byte = 0; byte < 6; byte++) {
      uint8_t b = static_cast<uint8_t>(observed >> (8 * byte));
      all_old = all_old && b == 0xAA;
      all_new = all_new && b == 0x21 + byte;
    }
    torn += (!all_old && !all_new) ? 1 : 0;
    clean_old += all_old ? 1 : 0;
    clean_new += all_new ? 1 : 0;
  }
  std::printf("\nacross %d PMC-guided trials the reader observed:\n"
              "  old MAC   : %d\n  new MAC   : %d\n  TORN MAC  : %d  <- the corrupted "
              "address sent to the user\n",
              kTrials, clean_old, clean_new, torn);
  return classified && torn > 0 ? 0 : 1;
}

}  // namespace
}  // namespace snowboard

int main() { return snowboard::Run(); }
