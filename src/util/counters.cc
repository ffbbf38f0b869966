#include "src/util/counters.h"

namespace snowboard {

PipelineCounters& GlobalPipelineCounters() {
  static PipelineCounters* counters = new PipelineCounters();
  return *counters;
}

void ResetPipelineCounters() {
  PipelineCounters& counters = GlobalPipelineCounters();
  counters.vm_boots = 0;
  counters.vm_profile_runs = 0;
  counters.profile_cache_hits = 0;
  counters.profile_cache_misses = 0;
  counters.snapshot_full_restores = 0;
  counters.snapshot_delta_restores = 0;
  counters.snapshot_restored_bytes = 0;
  counters.snapshot_restored_pages = 0;
  counters.snapshot_skipped_pages = 0;
  counters.snapshot_restore_nanos = 0;
  counters.concurrent_tests_run = 0;
  counters.tests_resumed = 0;
  counters.journal_records_dropped = 0;
  counters.checkpoint_writes = 0;
  counters.checkpoint_bytes = 0;
  counters.checkpoint_loads = 0;
  counters.journal_batch_flushes = 0;
  counters.journal_batch_records = 0;
  counters.journal_flush_nanos = 0;
}

}  // namespace snowboard
