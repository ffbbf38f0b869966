// Sequential test profiling (§4.1) for corpora that no fuzzer run produced: the staged CLI's
// `identify --corpus F`, the examples, benches and tests. A campaign's fuzzer profiles each
// program in the run that admitted it (fuzz/corpus.h); ProfileTest runs and extracts the
// same way (fuzz/sequential.h).
#ifndef SRC_SNOWBOARD_PROFILE_H_
#define SRC_SNOWBOARD_PROFILE_H_

#include <vector>

#include "src/fuzz/program.h"
#include "src/fuzz/sequential.h"
#include "src/kernel/kernel.h"
#include "src/util/workpool.h"

namespace snowboard {

struct SequentialProfile {
  int test_id = -1;   // Index into the corpus.
  bool ok = false;    // Test completed sequentially.
  std::vector<SharedAccess> accesses;
};

// Profiles one test from the fixed initial state.
SequentialProfile ProfileTest(KernelVm& vm, const Program& program, int test_id);

// The pool worker's lazily-booted KernelVm: boots on the worker's first VM-needing work
// item and is then reused across stages, campaigns, and strategies for the process
// lifetime (GlobalPipelineCounters().vm_boots observes the boot-once invariant).
KernelVm& PoolWorkerVm(PoolWorker& worker);

// Profiles a whole corpus (restoring the snapshot before each test) on one caller-owned VM.
std::vector<SequentialProfile> ProfileCorpus(KernelVm& vm, const std::vector<Program>& corpus);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_PROFILE_H_
