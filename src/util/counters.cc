#include "src/util/counters.h"

namespace snowboard {

namespace {

// The thread's installed shard; null = report straight into the global block.
thread_local CounterShardScope* t_shard_scope = nullptr;
thread_local PipelineCounters* t_shard = nullptr;

// One relaxed drain of every field: exchange the shard's value for zero, add it to the
// sink. Addition commutes, so totals are independent of which worker flushed when.
void DrainInto(PipelineCounters* from, PipelineCounters* into) {
  auto drain = [](std::atomic<uint64_t>& src, std::atomic<uint64_t>& dst) {
    uint64_t delta = src.exchange(0, std::memory_order_relaxed);
    if (delta != 0) {
      dst.fetch_add(delta, std::memory_order_relaxed);
    }
  };
  drain(from->vm_boots, into->vm_boots);
  drain(from->vm_profile_runs, into->vm_profile_runs);
  drain(from->profile_cache_hits, into->profile_cache_hits);
  drain(from->profile_cache_misses, into->profile_cache_misses);
  drain(from->snapshot_full_restores, into->snapshot_full_restores);
  drain(from->snapshot_delta_restores, into->snapshot_delta_restores);
  drain(from->snapshot_restored_bytes, into->snapshot_restored_bytes);
  drain(from->snapshot_restored_pages, into->snapshot_restored_pages);
  drain(from->snapshot_skipped_pages, into->snapshot_skipped_pages);
  drain(from->snapshot_restore_nanos, into->snapshot_restore_nanos);
  drain(from->concurrent_tests_run, into->concurrent_tests_run);
  drain(from->tests_resumed, into->tests_resumed);
  drain(from->journal_records_dropped, into->journal_records_dropped);
  drain(from->trials_retried, into->trials_retried);
  drain(from->checkpoint_writes, into->checkpoint_writes);
  drain(from->checkpoint_bytes, into->checkpoint_bytes);
  drain(from->checkpoint_loads, into->checkpoint_loads);
  drain(from->journal_batch_flushes, into->journal_batch_flushes);
  drain(from->journal_batch_records, into->journal_batch_records);
  drain(from->journal_flush_nanos, into->journal_flush_nanos);
}

}  // namespace

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
  counters.trials_retried = 0;
  counters.checkpoint_writes = 0;
  counters.checkpoint_bytes = 0;
  counters.checkpoint_loads = 0;
  counters.journal_batch_flushes = 0;
  counters.journal_batch_records = 0;
  counters.journal_flush_nanos = 0;
}

PipelineCounters& ActiveCounters() {
  return t_shard != nullptr ? *t_shard : GlobalPipelineCounters();
}

CounterShardScope::CounterShardScope() : previous_(t_shard_scope) {
  t_shard_scope = this;
  t_shard = &local_;
}

CounterShardScope::~CounterShardScope() {
  Flush();
  t_shard_scope = previous_;
  t_shard = previous_ != nullptr ? &previous_->local_ : nullptr;
}

void CounterShardScope::Flush() { DrainInto(&local_, &GlobalPipelineCounters()); }

void FlushCounterShard() {
  if (t_shard_scope != nullptr) {
    t_shard_scope->Flush();
  }
}

}  // namespace snowboard
