#include "src/snowboard/profile.h"

#include "src/snowboard/stats.h"
#include "src/util/trace.h"

namespace snowboard {

KernelVm& PoolWorkerVm(PoolWorker& worker) {
  return worker.State<KernelVm>([]() { return std::make_unique<KernelVm>(); });
}

SequentialProfile ProfileTest(KernelVm& vm, const Program& program, int test_id) {
  // One span per program profiled outside a fuzzer run. A campaign opens none: its corpus
  // item profiles inside the fuzz window.
  TRACE_SPAN("profile.program", static_cast<uint64_t>(test_id));
  SequentialProfile profile;
  profile.test_id = test_id;

  GlobalPipelineCounters().vm_profile_runs.fetch_add(1, std::memory_order_relaxed);
  Engine::RunResult run;
  RunProgramAlone(vm, program, &run);
  profile.ok = run.completed;
  if (!profile.ok) {
    return profile;
  }
  profile.accesses = ExtractSharedAccesses(run.trace, /*vcpu=*/0);
  ComputeDoubleFetchLeaders(&profile.accesses);
  return profile;
}

std::vector<SequentialProfile> ProfileCorpus(KernelVm& vm, const std::vector<Program>& corpus) {
  std::vector<SequentialProfile> profiles;
  profiles.reserve(corpus.size());
  for (size_t i = 0; i < corpus.size(); i++) {
    profiles.push_back(ProfileTest(vm, corpus[i], static_cast<int>(i)));
  }
  return profiles;
}

}  // namespace snowboard
