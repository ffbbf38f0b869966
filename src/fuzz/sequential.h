// One program run alone, and the shared accesses its trace holds (§4.1).
//
// A sequential test runs alone: from the fixed post-boot snapshot, as task 0 on vCPU 0,
// under one instruction cap. The fuzzer runs every candidate this way and keeps the profile
// of each program it admits (fuzz/corpus.h); ProfileTest (snowboard/profile.h) runs a
// program that no fuzzer run admitted in the same way. A profile records the run's memory
// accesses: "address range accessed, type of access, value read/written, and corresponding
// instruction addresses". Two filters reproduce §4.1.1:
//   * CR3 analog — only events from the test's vCPU are kept (the engine may host other
//     activity in multi-vCPU runs).
//   * ESP stack filter — accesses inside the current task's 8 KiB-aligned kernel stack are
//     dropped using the paper's mask formula (sim/stackfilter.h).
// A profile also carries the df_leader flag (§4.3, S-CH-DOUBLE): the first of two reads of
// the same range by different instructions with no intervening write and equal values.
#ifndef SRC_FUZZ_SEQUENTIAL_H_
#define SRC_FUZZ_SEQUENTIAL_H_

#include <cstdint>
#include <vector>

#include "src/fuzz/program.h"
#include "src/kernel/kernel.h"
#include "src/sim/access.h"

namespace snowboard {

// Restores `vm`'s boot snapshot and runs `program` alone into `run`, recycling its buffers.
// `run->completed` is false when the program did not finish within the sequential cap.
void RunProgramAlone(KernelVm& vm, const Program& program, Engine::RunResult* run);

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

// Shared-access extraction from a raw trace (exposed for tests and incidental-PMC search):
// keeps kAccess events of `vcpu` that are outside the stack range implied by their ESP.
std::vector<SharedAccess> ExtractSharedAccesses(const Trace& trace, VcpuId vcpu);

// Marks df_leader on the first read of each qualifying double-fetch pair (§4.3).
void ComputeDoubleFetchLeaders(std::vector<SharedAccess>* accesses);

}  // namespace snowboard

#endif  // SRC_FUZZ_SEQUENTIAL_H_
