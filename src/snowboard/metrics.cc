#include "src/snowboard/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/snowboard/pipeline.h"
#include "src/snowboard/stats.h"
#include "src/util/strings.h"

namespace snowboard {

double MetricsSnapshot::Value(const std::string& key, double fallback) const {
  for (const Metric& metric : metrics) {
    if (metric.key == key) {
      return metric.value;
    }
  }
  return fallback;
}

MetricsSnapshot CollectCampaignMetrics(const PipelineOptions& options,
                                       const PipelineResult& result) {
  MetricsSnapshot snapshot;
  auto add = [&](const char* key, double value) {
    snapshot.metrics.push_back({key, value});
  };

  // --- Deterministic funnel (worker-count invariant; the determinism harness's terms). ---
  add("funnel.corpus_programs", static_cast<double>(result.corpus_size));
  add("funnel.profiled_ok", static_cast<double>(result.profiled_ok));
  add("funnel.shared_accesses", static_cast<double>(result.shared_accesses));
  add("funnel.pmcs_identified", static_cast<double>(result.pmc_count));
  add("funnel.pmc_pairs_total", static_cast<double>(result.total_pmc_pairs));
  add("funnel.clusters", static_cast<double>(result.cluster_count));
  add("funnel.tests_generated", static_cast<double>(result.tests_generated));
  add("funnel.tests_executed", static_cast<double>(result.tests_executed));
  add("funnel.tests_with_findings", static_cast<double>(result.tests_with_bug));
  add("funnel.channel_exercised", static_cast<double>(result.channel_exercised));
  add("funnel.trials_total", static_cast<double>(result.total_trials));
  add("funnel.trials_pruned", static_cast<double>(result.trials_pruned));
  add("funnel.tests_saturated", static_cast<double>(result.tests_saturated));
  add("funnel.switch_decisions", static_cast<double>(result.switch_decisions));
  add("funnel.schedule_switches_orig", static_cast<double>(result.schedule_switches_orig));
  add("funnel.schedule_switches_min", static_cast<double>(result.schedule_switches_min));
  add("funnel.findings_total", static_cast<double>(result.findings.total_findings()));
  add("funnel.distinct_issues", static_cast<double>(result.findings.first_findings().size()));
  add("execute.trials_retried", static_cast<double>(result.trials_retried));

  // --- Run-shape metrics ("run." prefix: masked by invariance tests and CI diffs). ---
  const PipelineCounters& counters = GlobalPipelineCounters();
  auto counter = [](const std::atomic<uint64_t>& c) {
    return static_cast<double>(c.load(std::memory_order_relaxed));
  };
  add("run.num_workers", static_cast<double>(options.num_workers));
  add("run.corpus_seconds", result.corpus_seconds);
  add("run.profile_seconds", result.profile_seconds);
  add("run.identify_seconds", result.identify_seconds);
  add("run.cluster_seconds", result.cluster_seconds);
  add("run.execute_seconds", result.execute_seconds);
  add("run.profile_restore_seconds", result.profile_restore_seconds);
  add("run.execute_restore_seconds", result.execute_restore_seconds);
  add("run.tests_resumed", static_cast<double>(result.tests_resumed));
  add("run.vm_profile_runs", counter(counters.vm_profile_runs));
  // Always 0: nothing caches profiles. Kept because snowboard-report-v1 prints them.
  add("run.profile_cache_hits", 0);
  add("run.profile_cache_misses", 0);
  add("run.snapshot_full_restores", counter(counters.snapshot_full_restores));
  add("run.snapshot_delta_restores", counter(counters.snapshot_delta_restores));
  add("run.snapshot_restored_bytes", counter(counters.snapshot_restored_bytes));
  add("run.snapshot_restored_pages", counter(counters.snapshot_restored_pages));
  add("run.snapshot_skipped_pages", counter(counters.snapshot_skipped_pages));
  add("run.snapshot_restore_seconds", counter(counters.snapshot_restore_nanos) * 1e-9);
  add("run.concurrent_tests_run", counter(counters.concurrent_tests_run));
  add("run.checkpoint_writes", counter(counters.checkpoint_writes));
  add("run.checkpoint_bytes", counter(counters.checkpoint_bytes));
  add("run.checkpoint_loads", counter(counters.checkpoint_loads));
  // Journal group-commit health: flushes, records amortized across them, and time inside
  // the fsyncs — a batching regression shows up as flushes approaching records (no
  // amortization) or flush seconds growing toward execute_seconds.
  add("run.journal_batch_flushes", counter(counters.journal_batch_flushes));
  add("run.journal_batch_records", counter(counters.journal_batch_records));
  add("run.journal_flush_seconds", counter(counters.journal_flush_nanos) * 1e-9);

  std::sort(snapshot.metrics.begin(), snapshot.metrics.end(),
            [](const Metric& a, const Metric& b) { return a.key < b.key; });
  return snapshot;
}

std::string SerializeMetricsJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n";
  for (size_t i = 0; i < snapshot.metrics.size(); i++) {
    const Metric& metric = snapshot.metrics[i];
    double integral = 0;
    bool is_integral = std::modf(metric.value, &integral) == 0.0 &&
                       std::fabs(metric.value) < 1e15;
    if (is_integral) {
      StrAppendf(&out, "  \"%s\": %lld", metric.key.c_str(),
                 static_cast<long long>(integral));
    } else {
      StrAppendf(&out, "  \"%s\": %.6f", metric.key.c_str(), metric.value);
    }
    out += i + 1 == snapshot.metrics.size() ? "\n" : ",\n";
  }
  out += "}\n";
  return out;
}

}  // namespace snowboard
