// Process-wide pipeline counters.
//
// Lives in util (not snowboard/stats.h, which re-exports it) so that low layers — the
// simulator's snapshot-restore path and the kernel VM wrapper — can report into the same
// counter block the pipeline and its tests observe. VM profiling runs are the §5.4 cost
// center (40 machine-hours in the paper) and snapshot restore is the Algorithm 2 line-8
// inner-loop cost, so both are accounted here.
//
// Sharded accumulation: the per-trial hot path (one snapshot restore + several counter
// bumps per trial, on every worker) used to contend on this one global cache line block.
// Hot sites therefore report through ActiveCounters(): a thread running inside a
// CounterShardScope accumulates into a thread-local PipelineCounters shard (uncontended —
// the atomics live on a cache line only that thread touches) which is drained into the
// global block with plain additions. Addition is commutative, so totals are independent of
// worker count and flush order — the reason sharding cannot perturb any determinism
// assertion stated over counter totals. Threads outside any scope (tests, tools, the
// coordinator) write the global block directly, as before.
#ifndef SRC_UTIL_COUNTERS_H_
#define SRC_UTIL_COUNTERS_H_

#include <atomic>
#include <cstdint>

namespace snowboard {

// Process-wide counters over the expensive preparation and execution work. Cache efficacy
// is asserted in these terms (a multi-strategy campaign over one corpus must pay
// `vm_profile_runs == corpus_size` once); restore efficacy likewise (delta restores must
// copy a small fraction of `full` bytes on the standard campaign workload).
struct PipelineCounters {
  // KernelVm constructions (full kernel boots). The unified campaign engine parks one VM
  // per pool worker for the process lifetime, so this stays at ~max worker count no matter
  // how many stages or campaigns run — the boot-once invariant workpool_test asserts.
  std::atomic<uint64_t> vm_boots{0};
  std::atomic<uint64_t> vm_profile_runs{0};     // Sequential tests actually executed on a VM.
  std::atomic<uint64_t> profile_cache_hits{0};  // Profiles served from a ProfileCache.
  std::atomic<uint64_t> profile_cache_misses{0};

  // --- Snapshot restore (KernelVm::RestoreSnapshot; Algorithm 2 line 8). ---
  std::atomic<uint64_t> snapshot_full_restores{0};   // Whole-arena memcpy restores.
  std::atomic<uint64_t> snapshot_delta_restores{0};  // Dirty-page-only restores.
  std::atomic<uint64_t> snapshot_restored_bytes{0};  // Bytes actually copied, both kinds.
  std::atomic<uint64_t> snapshot_restored_pages{0};  // Dirty pages copied by delta restores.
  // Dirty pages whose live bytes still equaled the snapshot, so the delta restore skipped
  // the copy-back (the hash-skip fast path in sim::Memory::RestoreDirty).
  std::atomic<uint64_t> snapshot_skipped_pages{0};
  std::atomic<uint64_t> snapshot_restore_nanos{0};   // Wall time summed across workers.

  // --- Checkpoint/resume (CheckpointStore; crash-safe campaign state). ---
  // The resume-equivalence proof is stated in these terms: after a resume,
  // `concurrent_tests_run` must equal total tests minus `tests_resumed` — a resumed run
  // re-executes zero already-journaled tests.
  std::atomic<uint64_t> concurrent_tests_run{0};  // Concurrent tests explored live.
  std::atomic<uint64_t> tests_resumed{0};         // Outcomes replayed from a journal.
  // Journal records that decoded but referenced a test index outside the current test
  // list (a foreign or truncated campaign's journal). They are skipped — the test runs
  // live — but silently dropping them hides real corruption, so they are counted and
  // warned about.
  std::atomic<uint64_t> journal_records_dropped{0};
  std::atomic<uint64_t> trials_retried{0};        // Hung-trial retries in the explorer.
  std::atomic<uint64_t> checkpoint_writes{0};     // CheckpointStore::Put commits.
  std::atomic<uint64_t> checkpoint_bytes{0};      // Payload bytes across those commits.
  std::atomic<uint64_t> checkpoint_loads{0};      // Verified Get hits (stage skips).
  // --- Journal group commit (CheckpointStore::AppendJournal batching). ---
  std::atomic<uint64_t> journal_batch_flushes{0};  // Group commits (one fsync each).
  std::atomic<uint64_t> journal_batch_records{0};  // Records written across those commits.
  std::atomic<uint64_t> journal_flush_nanos{0};    // Wall time inside group commits.
};

PipelineCounters& GlobalPipelineCounters();
void ResetPipelineCounters();  // Zeroes all counters (test/bench isolation).

// The current thread's counter sink: its installed shard, or the global block. Hot paths
// (restore accounting, per-trial and per-test bumps) report here so that pool workers never
// touch shared cache lines mid-trial.
PipelineCounters& ActiveCounters();

// Installs a zeroed thread-local PipelineCounters shard as this thread's ActiveCounters()
// sink for the scope's lifetime; the destructor drains it into GlobalPipelineCounters().
// Scopes nest (the inner shard drains into the outer one's view of ActiveCounters — i.e.
// still the global block, since draining targets the global directly; nesting is allowed
// but pointless and the inner scope simply shadows the outer). WorkerPool installs one per
// job instance, so flushed totals are globally visible before WorkerPool::Run returns —
// every existing read-after-join of the global block keeps observing exact totals.
class CounterShardScope {
 public:
  CounterShardScope();
  ~CounterShardScope();

  CounterShardScope(const CounterShardScope&) = delete;
  CounterShardScope& operator=(const CounterShardScope&) = delete;

  // Drains the shard's accumulated deltas into the global block mid-scope (zeroing the
  // shard). The campaign engine calls this at work-item boundaries so cross-stage
  // diagnostics that read the global block mid-job (restore-time stage attribution) stay
  // item-accurate.
  void Flush();

 private:
  PipelineCounters local_;
  CounterShardScope* previous_;  // Restored on destruction (scopes may nest).
};

// Flush() on this thread's installed shard; no-op when the thread has none (in which case
// its counter writes already landed in the global block).
void FlushCounterShard();

}  // namespace snowboard

#endif  // SRC_UTIL_COUNTERS_H_
