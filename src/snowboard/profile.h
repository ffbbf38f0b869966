// Sequential test profiling (§4.1).
//
// Each sequential test is executed alone, from the fixed post-boot snapshot, on vCPU 0, and
// its memory accesses are recorded: "address range accessed, type of access, value
// read/written, and corresponding instruction addresses". Two filters reproduce §4.1.1:
//   * CR3 analog — only events from the test's vCPU are kept (the engine may host other
//     activity in multi-vCPU runs).
//   * ESP stack filter — accesses inside the current task's 8 KiB-aligned kernel stack are
//     dropped using the paper's mask formula (sim/stackfilter.h).
// The profiler also computes the df_leader flag (§4.3, S-CH-DOUBLE): the first of two reads
// of the same range by different instructions with no intervening write and equal values.
#ifndef SRC_SNOWBOARD_PROFILE_H_
#define SRC_SNOWBOARD_PROFILE_H_

#include <vector>

#include "src/fuzz/program.h"
#include "src/kernel/kernel.h"
#include "src/sim/access.h"
#include "src/util/workpool.h"

namespace snowboard {

// A shared (non-stack) memory access, reduced to the PMC features of Algorithm 1.
struct SharedAccess {
  AccessType type = AccessType::kRead;
  bool marked_atomic = false;
  bool df_leader = false;  // First read of a double fetch (set on reads only).
  uint8_t len = 0;
  GuestAddr addr = kGuestNull;
  uint64_t value = 0;
  SiteId site = kInvalidSite;
  uint32_t index = 0;  // Position within the profile (program order).

  bool operator==(const SharedAccess&) const = default;
};

struct SequentialProfile {
  int test_id = -1;   // Index into the corpus.
  Program program;
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

// Shared-access extraction from a raw trace (exposed for tests and incidental-PMC search):
// keeps kAccess events of `vcpu` that are outside the stack range implied by their ESP.
std::vector<SharedAccess> ExtractSharedAccesses(const Trace& trace, VcpuId vcpu);

// Marks df_leader on the first read of each qualifying double-fetch pair (§4.3).
void ComputeDoubleFetchLeaders(std::vector<SharedAccess>* accesses);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_PROFILE_H_
