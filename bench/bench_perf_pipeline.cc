// §5.4 reproduction — concurrent-test generation far outpaces execution.
//
// The paper generates concurrent tests at ">1000 tests per second, significantly higher than
// the execution throughput" (193.8 executions per minute per VM). This bench generates the
// canonical S-INS-PAIR tests, executes them once at one worker, and charges each side the
// process CPU it spends (getrusage, so pool threads count too). It exits 1 unless
// generation's tests per CPU second are at least 10x execution's.
#include <sys/resource.h>

#include "bench/bench_common.h"

namespace snowboard {
namespace {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

int Run() {
  bench::PrintHeader("§5.4 — concurrent-test generation vs execution (process CPU)");
  PipelineOptions options = bench::CanonicalOptions(Strategy::kSInsPair, 64, 1);
  PreparedCampaign campaign = PrepareCampaign(options);

  // One generation pass takes a fraction of a millisecond, so repeat passes until the
  // reading is far above the CPU clock's resolution.
  std::vector<ConcurrentTest> tests;
  size_t generated = 0;
  int passes = 0;
  double start = ProcessCpuSeconds();
  double generate_cpu = 0;
  while (generate_cpu < 0.1) {
    tests = GenerateTestsForStrategy(campaign, options, nullptr);
    generated += tests.size();
    passes++;
    generate_cpu = ProcessCpuSeconds() - start;
  }

  PmcMatcher matcher(&campaign.pmcs);
  PipelineResult result;
  start = ProcessCpuSeconds();
  ExecuteCampaign(tests, /*use_pmc_hints=*/true, &matcher, options, &result);
  double execute_cpu = ProcessCpuSeconds() - start;

  double generate_rate = static_cast<double>(generated) / generate_cpu;
  double execute_rate = static_cast<double>(result.tests_executed) / execute_cpu;
  std::printf("generation: %zu tests x %d passes in %.1f ms CPU -> %.0f tests/CPU-s  "
              "(paper: >1000 tests/s)\n",
              tests.size(), passes, 1e3 * generate_cpu, generate_rate);
  std::printf("execution:  %zu tests, %llu trials in %.1f ms CPU at 1 worker -> %.0f "
              "tests/CPU-s, %.0f exec/CPU-min  (paper: 193.8 exec/min)\n",
              result.tests_executed, static_cast<unsigned long long>(result.total_trials),
              1e3 * execute_cpu, execute_rate,
              60.0 * static_cast<double>(result.total_trials) / execute_cpu);
  bool holds = result.tests_executed > 0 && generate_rate >= 10 * execute_rate;
  std::printf("\nshape check: generation >= 10x execution (%.0fx) ... %s\n",
              generate_rate / execute_rate, holds ? "HOLDS" : "VIOLATED");
  return holds ? 0 : 1;
}

}  // namespace
}  // namespace snowboard

int main() { return snowboard::Run(); }
