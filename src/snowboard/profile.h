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

#include <mutex>
#include <unordered_map>
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

// Thread-safe memo of sequential profiles keyed by program content (Program::Hash, with a
// full-program equality check against collisions). Profiling is deterministic — the same
// program from the same boot snapshot always yields the same access list — so a multi-
// strategy campaign (Table 3 runs every strategy against one corpus) can profile each
// distinct program once instead of once per strategy. Hits/misses are counted in
// GlobalPipelineCounters().
class ProfileCache {
 public:
  // On hit, copies the cached profile into `out` with test_id rewritten to `test_id` (the
  // profile content is position-independent; only the corpus index differs between runs).
  bool Lookup(const Program& program, int test_id, SequentialProfile* out) const;
  void Insert(const SequentialProfile& profile);
  size_t size() const;

 private:
  mutable std::mutex mutex_;
  // Hash buckets hold full entries so colliding programs coexist.
  std::unordered_map<uint64_t, std::vector<SequentialProfile>> by_hash_;
};

struct ProfileOptions {
  uint64_t max_instructions = 1'000'000;
  ProfileCache* cache = nullptr;  // Optional cross-run memo; nullptr = always execute.
};

// Profiles one test from the fixed initial state.
SequentialProfile ProfileTest(KernelVm& vm, const Program& program, int test_id,
                              const ProfileOptions& options = ProfileOptions{});

// Cache-aware single-test step shared by the serial walk and the campaign engine (which
// schedules corpus indices itself): consults `options.cache`, executes on a miss, inserts
// the result.
SequentialProfile ProfileTestCached(KernelVm& vm, const Program& program, int test_id,
                                    const ProfileOptions& options);

// The pool worker's lazily-booted KernelVm: boots on the worker's first VM-needing work
// item and is then reused across stages, campaigns, and strategies for the process
// lifetime (GlobalPipelineCounters().vm_boots observes the boot-once invariant).
KernelVm& PoolWorkerVm(PoolWorker& worker);

// Profiles a whole corpus (restoring the snapshot before each test) on one caller-owned VM,
// consulting `options.cache` if set.
std::vector<SequentialProfile> ProfileCorpus(KernelVm& vm, const std::vector<Program>& corpus,
                                             const ProfileOptions& options = ProfileOptions{});

// Shared-access extraction from a raw trace (exposed for tests and incidental-PMC search):
// keeps kAccess events of `vcpu` that are outside the stack range implied by their ESP.
std::vector<SharedAccess> ExtractSharedAccesses(const Trace& trace, VcpuId vcpu);

// Marks df_leader on the first read of each qualifying double-fetch pair (§4.3).
void ComputeDoubleFetchLeaders(std::vector<SharedAccess>* accesses);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_PROFILE_H_
