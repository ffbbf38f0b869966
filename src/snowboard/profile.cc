#include "src/snowboard/profile.h"

#include <unordered_map>

#include "src/sim/stackfilter.h"
#include "src/snowboard/stats.h"
#include "src/util/hash.h"
#include "src/util/trace.h"

namespace snowboard {

bool ProfileCache::Lookup(const Program& program, int test_id, SequentialProfile* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_hash_.find(program.Hash());
  if (it == by_hash_.end()) {
    return false;
  }
  for (const SequentialProfile& cached : it->second) {
    if (cached.program == program) {
      *out = cached;
      out->test_id = test_id;
      return true;
    }
  }
  return false;
}

void ProfileCache::Insert(const SequentialProfile& profile) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SequentialProfile>& bucket = by_hash_[profile.program.Hash()];
  for (const SequentialProfile& cached : bucket) {
    if (cached.program == profile.program) {
      return;  // First insertion wins (all insertions carry identical content anyway).
    }
  }
  bucket.push_back(profile);
}

size_t ProfileCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const auto& [hash, bucket] : by_hash_) {
    total += bucket.size();
  }
  return total;
}

KernelVm& PoolWorkerVm(PoolWorker& worker) {
  return worker.State<KernelVm>([]() { return std::make_unique<KernelVm>(); });
}

SequentialProfile ProfileTestCached(KernelVm& vm, const Program& program, int test_id,
                                    const ProfileOptions& options) {
  // One span per corpus program, covering cache lookup and (on miss) the VM run — the
  // single site both the serial loop and every parallel worker funnel through.
  TRACE_SPAN("profile.program", static_cast<uint64_t>(test_id));
  SequentialProfile profile;
  if (options.cache != nullptr && options.cache->Lookup(program, test_id, &profile)) {
    GlobalPipelineCounters().profile_cache_hits.fetch_add(1, std::memory_order_relaxed);
    return profile;
  }
  if (options.cache != nullptr) {
    GlobalPipelineCounters().profile_cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
  profile = ProfileTest(vm, program, test_id, options);
  if (options.cache != nullptr) {
    options.cache->Insert(profile);
  }
  return profile;
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

SequentialProfile ProfileTest(KernelVm& vm, const Program& program, int test_id,
                              const ProfileOptions& options) {
  SequentialProfile profile;
  profile.test_id = test_id;
  profile.program = program;

  GlobalPipelineCounters().vm_profile_runs.fetch_add(1, std::memory_order_relaxed);
  vm.RestoreSnapshot();
  Engine::RunOptions opts;
  opts.max_instructions = options.max_instructions;
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

std::vector<SequentialProfile> ProfileCorpus(KernelVm& vm, const std::vector<Program>& corpus,
                                             const ProfileOptions& options) {
  std::vector<SequentialProfile> profiles;
  profiles.reserve(corpus.size());
  for (size_t i = 0; i < corpus.size(); i++) {
    profiles.push_back(ProfileTestCached(vm, corpus[i], static_cast<int>(i), options));
  }
  return profiles;
}

}  // namespace snowboard
