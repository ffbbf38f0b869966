// Process-wide pipeline counters.
//
// Lives in util (not snowboard/stats.h, which re-exports it) so that low layers — the
// simulator's snapshot-restore path and the kernel VM wrapper — can report into the same
// counter block the pipeline and its tests observe. VM profiling runs are the §5.4 cost
// center (40 machine-hours in the paper) and snapshot restore is the Algorithm 2 line-8
// inner-loop cost, so both are accounted here.
//
// Workers add into this one block with relaxed atomics, and every total is a sum, so
// totals depend on neither the worker count nor the order of the adds.
#ifndef SRC_UTIL_COUNTERS_H_
#define SRC_UTIL_COUNTERS_H_

#include <atomic>
#include <cstdint>

namespace snowboard {

// Process-wide counters over the expensive preparation and execution work. Profiling cost
// is asserted in these terms (a campaign pays `vm_profile_runs == corpus_size` at any
// worker count); restore efficacy likewise (delta restores must copy a small fraction of
// `full` bytes on the standard campaign workload).
struct PipelineCounters {
  // KernelVm constructions (full kernel boots). The unified campaign engine parks one VM
  // per pool worker for the process lifetime, so this stays at ~max worker count no matter
  // how many stages or campaigns run — the boot-once invariant workpool_test asserts.
  std::atomic<uint64_t> vm_boots{0};
  std::atomic<uint64_t> vm_profile_runs{0};  // Sequential tests actually executed on a VM.

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
  std::atomic<uint64_t> checkpoint_writes{0};  // Campaign guards written by admission.
  // Bytes committed to checkpoint directories: each guard, and each journal group commit
  // (lines with their checksum prefix and newline).
  std::atomic<uint64_t> checkpoint_bytes{0};
  std::atomic<uint64_t> checkpoint_loads{0};  // Guard reads that admitted a resume.
  // --- Journal group commit (CheckpointStore::AppendJournal batching). ---
  std::atomic<uint64_t> journal_batch_flushes{0};  // Group commits (one fsync each).
  std::atomic<uint64_t> journal_batch_records{0};  // Records written across those commits.
  std::atomic<uint64_t> journal_flush_nanos{0};    // Wall time inside group commits.
};

PipelineCounters& GlobalPipelineCounters();
void ResetPipelineCounters();  // Zeroes all counters (test/bench isolation).

}  // namespace snowboard

#endif  // SRC_UTIL_COUNTERS_H_
