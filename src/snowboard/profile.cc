#include "src/snowboard/profile.h"

#include <unordered_map>

#include "src/sim/stackfilter.h"
#include "src/snowboard/stats.h"
#include "src/util/hash.h"
#include "src/util/trace.h"

namespace snowboard {

namespace {

// A sequential test that runs longer than this did not complete.
constexpr uint64_t kProfileMaxInstructions = 1'000'000;

}  // namespace

KernelVm& PoolWorkerVm(PoolWorker& worker) {
  return worker.State<KernelVm>([]() { return std::make_unique<KernelVm>(); });
}

std::vector<SharedAccess> ExtractSharedAccesses(const Trace& trace, VcpuId vcpu) {
  std::vector<SharedAccess> accesses;
  uint32_t index = 0;
  for (const Event& event : trace) {
    if (event.kind != EventKind::kAccess || event.vcpu != vcpu) {
      continue;
    }
    const Access& a = event.access;
    // §4.1.1: "only non-stack accesses are potentially shared" — the ESP-mask filter.
    if (IsStackAccess(a.esp, a.addr, a.len)) {
      continue;
    }
    SharedAccess shared;
    shared.type = a.type;
    shared.marked_atomic = a.marked_atomic;
    shared.len = a.len;
    shared.addr = a.addr;
    shared.value = a.value;
    shared.site = a.site;
    shared.index = index++;
    accesses.push_back(shared);
  }
  return accesses;
}

void ComputeDoubleFetchLeaders(std::vector<SharedAccess>* accesses) {
  // Tracks, per exact (addr, len) range, the most recent read that has not been separated
  // from the present by an overlapping write. Exact-range tracking is sufficient here:
  // double fetches re-read the same object through the same-width loads.
  struct LastRead {
    size_t access_index;
    SiteId site;
    uint64_t value;
  };
  std::unordered_map<uint64_t, LastRead> last_reads;

  auto range_key = [](const SharedAccess& a) {
    return HashCombine(a.addr, a.len);
  };

  for (size_t i = 0; i < accesses->size(); i++) {
    SharedAccess& a = (*accesses)[i];
    if (a.type == AccessType::kWrite) {
      // Invalidate reads whose range the write overlaps. Exact-key erase plus a sweep for
      // partial overlaps (rare; ranges are <= 8 bytes).
      for (auto it = last_reads.begin(); it != last_reads.end();) {
        const SharedAccess& read = (*accesses)[it->second.access_index];
        bool overlap = a.addr < read.addr + read.len && read.addr < a.addr + a.len;
        it = overlap ? last_reads.erase(it) : ++it;
      }
      continue;
    }
    uint64_t key = range_key(a);
    auto it = last_reads.find(key);
    if (it != last_reads.end() && it->second.site != a.site && it->second.value == a.value) {
      // "two read accesses by different instructions occur sequentially with no intervening
      // write ... and the values read are identical. The feature is set on the first."
      (*accesses)[it->second.access_index].df_leader = true;
    }
    last_reads[key] = LastRead{i, a.site, a.value};
  }
}

SequentialProfile ProfileTest(KernelVm& vm, const Program& program, int test_id) {
  // One span per corpus program: the single site both the serial walk and every engine
  // worker funnel through.
  TRACE_SPAN("profile.program", static_cast<uint64_t>(test_id));
  SequentialProfile profile;
  profile.test_id = test_id;
  profile.program = program;

  GlobalPipelineCounters().vm_profile_runs.fetch_add(1, std::memory_order_relaxed);
  vm.RestoreSnapshot();
  Engine::RunOptions opts;
  opts.max_instructions = kProfileMaxInstructions;
  Engine::RunResult result =
      vm.engine().Run({MakeProgramRunner(vm.globals(), program, /*task_index=*/0)}, opts);
  profile.ok = result.completed;
  if (!profile.ok) {
    return profile;
  }
  profile.accesses = ExtractSharedAccesses(result.trace, /*vcpu=*/0);
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
