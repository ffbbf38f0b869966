// snowboard_perfbench — the repository's end-to-end benchmark.
//
//   snowboard_perfbench --workload campaign_pmc|baseline_wide|fleet_ops --seed N
//                       --seconds S --trace 0|1 [--work-dir DIR]
//
// Everything runs in this one process through the public entry points a user has:
// RunSnowboardPipeline/CampaignPipelineOptions for campaigns, FleetServer +
// DispatchFleetRequest for the fleet service, and ParseReplayToken + ReplayTokenTrial for
// reproducers. A run is
//   1. set-up (setup_s): boot the VMs a fresh worker pool would boot and run one warm-up op
//      per input, which also records the oracle's reference for that input;
//   2. a closed loop of timed ops for --seconds, each checked against its reference.
// With --trace 1 the loop is split: an untraced half, then a traced half whose spans feed
// the per-layer ledger (ledger.h). End-to-end metrics come only from untraced ops.
//
// Human-readable progress and the metric table go to stderr; the last line of stdout is
// the JSON result {"correct", "attempted", "failed", "metrics"}. perfbench/README.md
// documents the workloads, every metric, and the ledger rules.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/ledger.h"
#include "src/kernel/kernel.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/replay.h"
#include "src/snowboard/report_html.h"
#include "src/snowboard/serialize.h"
#include "src/snowboard/serve.h"
#include "src/snowboard/serve_http.h"
#include "src/util/counters.h"
#include "src/util/strings.h"
#include "src/util/trace.h"

namespace perfbench {
namespace {

using snowboard::CampaignSpec;
using snowboard::FleetServer;
using snowboard::HttpResponse;
using snowboard::KernelVm;
using snowboard::PipelineOptions;
using snowboard::PipelineResult;
using snowboard::StrPrintf;
using snowboard::Tracer;
using snowboard::TraceSpan;

// Two explore workers in every workload, unpinned: each worker is a worker thread plus vCPU
// threads that hand off through a condvar, so two workers keep at most two guest threads
// runnable on the 4-core shared host (README.md, "Sizing").
constexpr int kWorkers = 2;
// Trace records per emitting thread per traced op (64 bytes each). The busiest thread of
// the busiest op emits about 10k records; a drop shows in trace.dropped_records.
constexpr size_t kTraceCapacity = 1 << 16;
// Operator status-poll cadence of a fleet client: 10 ms on average, each gap drawn from
// [5, 15) ms. A fixed gap would round every op up to a 10 ms lattice, and the op median
// would jump a whole step whenever the input mix shifted it across one.
constexpr int64_t kPollMinUs = 5000;
constexpr int64_t kPollSpreadUs = 10000;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Whole-process CPU (every thread: workers, vCPU threads, fleet runners), never thread CPU.
double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-3;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double at = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(at);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- Workloads ----------------------------------------------------------------------------

struct Workload {
  const char* name = nullptr;
  bool fleet = false;
  size_t inputs = 0;  // Distinct campaigns per run, cycled by the timed loop.
  CampaignSpec spec;
  bool minimize = true;  // ExplorerOptions::minimize_schedules.
};

Workload MakeWorkload(const std::string& name) {
  Workload w;
  // The campaign-spec defaults: S-INS-PAIR under Algorithm 2, all five detectors, pruning
  // and adaptive sites on, no checkpoint directory.
  w.spec.workers = kWorkers;
  if (name == "campaign_pmc") {
    w.name = "campaign_pmc";
    w.inputs = 8;
    w.spec.budget = 40;
  } else if (name == "baseline_wide") {
    w.name = "baseline_wide";
    w.inputs = 8;
    w.spec.strategy = snowboard::Strategy::kRandomPairing;
    w.spec.corpus_size = 150;
    w.spec.corpus_iters = 600;
    w.spec.budget = 16;
    w.spec.prune = false;
    w.minimize = false;
  } else if (name == "fleet_ops") {
    w.name = "fleet_ops";
    w.fleet = true;
    w.inputs = 8;
    w.spec.budget = 24;
    w.spec.workers = 1;  // One worker per campaign, two campaigns in flight.
  }
  return w;
}

struct Input {
  CampaignSpec spec;
  PipelineOptions options;  // What one campaign op (or the fleet's standalone twin) runs.
};

// The campaign seeds are a fixed pool per workload, and --seed fixes the order the timed
// loop cycles through them. Campaign cost moves by about 20% from one campaign seed to the
// next, so drawing the pool itself from --seed would bury a layer change under input
// variance; a fixed pool leaves only measurement noise between runs.
std::vector<Input> MakeInputs(const Workload& workload, uint64_t seed) {
  std::vector<uint64_t> order(workload.inputs);
  for (size_t i = 0; i < order.size(); i++) {
    order[i] = i;
  }
  for (size_t i = order.size(); i > 1; i--) {
    std::swap(order[i - 1], order[SplitMix(seed * 1000003 + i) % i]);
  }
  std::vector<Input> inputs;
  for (size_t i = 0; i < workload.inputs; i++) {
    Input input;
    input.spec = workload.spec;
    input.spec.seed = 1 + SplitMix(order[i]) % 1000000;
    input.spec.name = StrPrintf("in%zu", i);
    input.options = snowboard::CampaignPipelineOptions(input.spec, "", kWorkers);
    input.options.explorer.minimize_schedules = workload.minimize;
    inputs.push_back(std::move(input));
  }
  return inputs;
}

// --- Oracle -------------------------------------------------------------------------------

// The deterministic outputs of one campaign; every op must reproduce its input's reference.
struct Digest {
  std::vector<int> issues;
  uint64_t total_trials = 0;
  uint64_t pmc_table_digest = 0;
  size_t tests_executed = 0;

  bool operator==(const Digest&) const = default;

  std::string ToString() const {
    std::string out = "issues {";
    for (int id : issues) {
      out += StrPrintf(" %d", id);
    }
    return out + StrPrintf(" } trials %" PRIu64 " pmc_digest %016" PRIx64 " tests %zu",
                           total_trials, pmc_table_digest, tests_executed);
  }
};

Digest DigestOf(const PipelineResult& result) {
  Digest digest;
  for (const auto& [issue_id, finding] : result.findings.first_findings()) {
    digest.issues.push_back(issue_id);
  }
  digest.total_trials = result.total_trials;
  digest.pmc_table_digest = result.pmc_table_digest;
  digest.tests_executed = result.tests_executed;
  return digest;
}

// Every non-empty "replay_token" value of a report.json (tokens hold nothing JsonEscape
// rewrites).
std::vector<std::string> ReportTokens(const std::string& report) {
  std::vector<std::string> tokens;
  const std::string key = "\"replay_token\": \"";
  for (size_t at = report.find(key); at != std::string::npos; at = report.find(key, at)) {
    at += key.size();
    size_t end = report.find('"', at);
    if (end == std::string::npos) {
      break;
    }
    if (end > at) {
      tokens.push_back(report.substr(at, end - at));
    }
    at = end;
  }
  return tokens;
}

// Wall seconds of one stage in a report.json ("name": "<stage>" then "wall_seconds": x).
double ReportStageSeconds(const std::string& report, const char* stage) {
  size_t at = report.find(StrPrintf("\"name\": \"%s\"", stage));
  if (at == std::string::npos) {
    return 0;
  }
  const std::string key = "\"wall_seconds\": ";
  at = report.find(key, at);
  return at == std::string::npos ? 0 : std::strtod(report.c_str() + at + key.size(), nullptr);
}

std::string JsonStringField(const std::string& json, const char* key) {
  std::string needle = StrPrintf("\"%s\": \"", key);
  size_t at = json.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  at += needle.size();
  size_t end = json.find('"', at);
  return end == std::string::npos ? "" : json.substr(at, end - at);
}

// Oracle failures are counted and the first few described on stderr; never retried.
class FailureLog {
 public:
  void Add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_++ < 10) {
      std::fprintf(stderr, "perfbench: oracle FAILED: %s\n", what.c_str());
    }
  }
  size_t count() {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

 private:
  std::mutex mutex_;
  size_t count_ = 0;
};

// --- Process counters ---------------------------------------------------------------------

struct Counters {
  double vm_boots = 0;
  double profile_runs = 0;
  double restores = 0;
  double restore_nanos = 0;
  double restore_bytes = 0;
  double journal_flushes = 0;
  double journal_flush_nanos = 0;
  double checkpoint_bytes = 0;

  static Counters Read() {
    const snowboard::PipelineCounters& c = snowboard::GlobalPipelineCounters();
    Counters out;
    out.vm_boots = static_cast<double>(c.vm_boots.load());
    out.profile_runs = static_cast<double>(c.vm_profile_runs.load());
    out.restores =
        static_cast<double>(c.snapshot_full_restores.load() + c.snapshot_delta_restores.load());
    out.restore_nanos = static_cast<double>(c.snapshot_restore_nanos.load());
    out.restore_bytes = static_cast<double>(c.snapshot_restored_bytes.load());
    out.journal_flushes = static_cast<double>(c.journal_batch_flushes.load());
    out.journal_flush_nanos = static_cast<double>(c.journal_flush_nanos.load());
    out.checkpoint_bytes = static_cast<double>(c.checkpoint_bytes.load());
    return out;
  }

  // Accumulates `after - before` into this.
  void AddDelta(const Counters& after, const Counters& before) {
    vm_boots += after.vm_boots - before.vm_boots;
    profile_runs += after.profile_runs - before.profile_runs;
    restores += after.restores - before.restores;
    restore_nanos += after.restore_nanos - before.restore_nanos;
    restore_bytes += after.restore_bytes - before.restore_bytes;
    journal_flushes += after.journal_flushes - before.journal_flushes;
    journal_flush_nanos += after.journal_flush_nanos - before.journal_flush_nanos;
    checkpoint_bytes += after.checkpoint_bytes - before.checkpoint_bytes;
  }
};

// --- Per-op records and traced totals -----------------------------------------------------

// Stage seconds of one op (PipelineResult for campaigns, report.json for fleet ops).
struct Stages {
  double corpus = 0;
  double profile = 0;
  double identify = 0;
  double cluster = 0;
  double execute = 0;
  double profile_restore = 0;

  void Add(const Stages& o) {
    corpus += o.corpus;
    profile += o.profile;
    identify += o.identify;
    cluster += o.cluster;
    execute += o.execute;
    profile_restore += o.profile_restore;
  }
};

struct OpRecord {
  double ms = 0;
  bool ok = false;
  Stages stages;
  PipelineResult result;  // Campaign ops only.
  // Fleet client timings.
  double submit_ms = 0;
  double queue_ms = 0;
  double report_ms = 0;
  std::vector<double> status_ms;
  size_t tokens = 0;
};

// Sums over the traced ops, turned into per-layer metrics at the end.
struct LayerTotals {
  size_t ops = 0;
  double op_ms = 0;
  double cpu_ms = 0;   // Process CPU while traced ops ran (trace parsing excluded).
  double wall_ms = 0;  // Wall time of the traced ops (fleet: of their rounds).
  std::vector<double> trial_engine_us;
  std::vector<double> trial_us;
  double trial_self_us = 0;
  double engine_runs = 0;
  double minimize_engine_ms = 0;
  double journal_read_ms = 0;
  double replay_ms = 0;
  double tokens = 0;
  double submit_ms = 0;
  double queue_ms = 0;
  double report_ms = 0;
  std::vector<double> status_ms;
  Stages stages;
  double trials = 0;
  double trials_pruned = 0;
  double tests_saturated = 0;
  double trials_retried = 0;
  double switches = 0;
  double switches_orig = 0;
  double switches_min = 0;
  double programs = 0;
  double pmcs = 0;
  double tests = 0;
  Counters counters;
  Ledger ledger_us;
  double ledger_budget_us = 0;
  uint64_t dropped = 0;

  void AddOp(const OpRecord& op) {
    ops++;
    op_ms += op.ms;
    submit_ms += op.submit_ms;
    queue_ms += op.queue_ms;
    report_ms += op.report_ms;
    tokens += static_cast<double>(op.tokens);
    status_ms.insert(status_ms.end(), op.status_ms.begin(), op.status_ms.end());
    stages.Add(op.stages);
  }

  void AddResult(const PipelineResult& r) {
    trials += static_cast<double>(r.total_trials);
    trials_pruned += static_cast<double>(r.trials_pruned);
    tests_saturated += static_cast<double>(r.tests_saturated);
    trials_retried += static_cast<double>(r.trials_retried);
    switches += static_cast<double>(r.switch_decisions);
    switches_orig += static_cast<double>(r.schedule_switches_orig);
    switches_min += static_cast<double>(r.schedule_switches_min);
    programs += static_cast<double>(r.corpus_size);
    pmcs += static_cast<double>(r.pmc_count);
    tests += static_cast<double>(r.tests_generated);
  }

  // Span statistics every workload shares: trial, engine, minimizer, journal-read and
  // replay costs.
  void AddSpans(const Trace& trace) {
    dropped += trace.dropped;
    const std::vector<Span>& spans = trace.spans;
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& span = spans[i];
      if (span.name == "explore.trial") {
        trial_us.push_back(span.dur_us);
        trial_self_us += span.self_us;
      } else if (span.name == "engine.run") {
        engine_runs += 1;
        if (HasAncestor(spans, i, "explore.trial")) {
          trial_engine_us.push_back(span.dur_us);
        } else if (HasAncestor(spans, i, "explore.test")) {
          minimize_engine_ms += span.dur_us * 1e-3;
        }
      } else if (span.name == "checkpoint.journal_read") {
        journal_read_ms += span.dur_us * 1e-3;
      } else if (span.name == "bench.replay") {
        replay_ms += span.dur_us * 1e-3;
      }
    }
  }

  void AddLedger(const Ledger& ledger, double budget_us) {
    for (const auto& [layer, us] : ledger) {
      ledger_us[layer] += us;
    }
    ledger_budget_us += budget_us;
  }
};

Stages StagesOf(const PipelineResult& r) {
  return {r.corpus_seconds,  r.profile_seconds, r.identify_seconds,
          r.cluster_seconds, r.execute_seconds, r.profile_restore_seconds};
}

// --- Campaign workloads -------------------------------------------------------------------

OpRecord RunCampaignOp(const Input& input, const Digest& reference, FailureLog* failures) {
  OpRecord op;
  double t0 = NowMs();
  {
    TraceSpan span("bench.op");
    op.result = snowboard::RunSnowboardPipeline(input.options);
  }
  op.ms = NowMs() - t0;
  op.stages = StagesOf(op.result);
  Digest digest = DigestOf(op.result);
  op.ok = digest == reference;
  if (!op.ok) {
    failures->Add(StrPrintf("campaign seed %" PRIu64 ": digest %s != reference %s",
                            input.spec.seed, digest.ToString().c_str(),
                            reference.ToString().c_str()));
  }
  return op;
}

// Ledger of one traced campaign op: the bench thread calls RunSnowboardPipeline and waits
// in the worker pool; every other thread that emitted spans is one of its kWorkers pool
// threads.
void AddTracedCampaignOp(const OpRecord& op, const Trace& trace, LayerTotals* totals) {
  totals->AddSpans(trace);
  totals->AddResult(op.result);
  const Span* bench_op = nullptr;
  const Span* streaming = nullptr;
  for (const Span& span : trace.spans) {
    if (span.name == "bench.op") {
      bench_op = &span;
    } else if (span.name == "engine.streaming") {
      streaming = &span;
    }
  }
  if (bench_op == nullptr || streaming == nullptr) {
    return;  // Dropped records: the op still counts, its ledger does not.
  }
  std::set<size_t> pool;
  for (const Span& span : trace.spans) {
    if (span.tid != bench_op->tid) {
      pool.insert(span.tid);
    }
  }
  Ledger ledger = EmptyLedger();
  AddCampaignLedger(trace, pool, bench_op->ts_us, streaming->ts_us, streaming->end_us(),
                    bench_op->end_us(), kWorkers, &ledger);
  totals->AddLedger(ledger, bench_op->dur_us * kWorkers);
}

// --- Fleet workload -----------------------------------------------------------------------

// The fleet oracle's reference for one input: a standalone run of the same spec.
struct FleetReference {
  std::string masked_report;
  size_t issues = 0;
  PipelineResult result;
};

HttpResponse Request(FleetServer& server, const char* method, const std::string& path,
                     const std::string& body, const char* span_name) {
  TraceSpan span(span_name);
  bool drain = false;
  return snowboard::DispatchFleetRequest(server, method, path, body, &drain);
}

// One fleet op: submit, poll status until done, fetch the report, replay every token.
// `poll_state` is the client's poll-gap generator state, seeded from --seed.
OpRecord RunFleetOp(FleetServer& server, KernelVm& vm, uint64_t* poll_state,
                    const Input& input, uint64_t op_index,
                    const FleetReference& reference, FailureLog* failures) {
  OpRecord op;
  CampaignSpec spec = input.spec;
  spec.name = StrPrintf("op%" PRIu64, op_index);
  const std::string path = "/campaigns/" + spec.name;
  double t0 = NowMs();
  auto fail = [&](const std::string& what) {
    failures->Add(StrPrintf("fleet %s (seed %" PRIu64 "): %s", spec.name.c_str(), spec.seed,
                            what.c_str()));
    op.ms = NowMs() - t0;
    op.ok = false;
    return op;
  };
  TraceSpan op_span("bench.op");
  HttpResponse submitted = Request(server, "POST", "/campaigns",
                                   snowboard::SerializeCampaignSpec(spec), "bench.submit");
  double t_submitted = NowMs();
  op.submit_ms = t_submitted - t0;
  if (submitted.status != 201) {
    return fail(StrPrintf("submit answered %d: %s", submitted.status, submitted.body.c_str()));
  }
  bool started = false;
  while (true) {
    double poll_start = NowMs();
    HttpResponse status = Request(server, "GET", path, "", "bench.status");
    op.status_ms.push_back(NowMs() - poll_start);
    std::string state = JsonStringField(status.body, "state");
    if (!started && state != "queued") {
      started = true;
      op.queue_ms = poll_start - t_submitted;
    }
    if (state == "done") {
      break;
    }
    if (status.status != 200 || (state != "queued" && state != "running")) {
      return fail(StrPrintf("status %d, state '%s'", status.status, state.c_str()));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(
        kPollMinUs + static_cast<int64_t>(SplitMix((*poll_state)++) % kPollSpreadUs)));
  }
  double report_start = NowMs();
  HttpResponse report = Request(server, "GET", path + "/report", "", "bench.report");
  op.report_ms = NowMs() - report_start;
  if (report.status != 200) {
    return fail(StrPrintf("report answered %d", report.status));
  }
  bool ok = snowboard::MaskReportVolatile(report.body) == reference.masked_report;
  if (!ok) {
    failures->Add(StrPrintf("fleet %s (seed %" PRIu64 "): masked report differs from the "
                            "standalone run",
                            spec.name.c_str(), spec.seed));
  }
  for (const std::string& text : ReportTokens(report.body)) {
    TraceSpan replay_span("bench.replay");
    std::optional<snowboard::ReplayToken> token = snowboard::ParseReplayToken(text);
    if (!token.has_value()) {
      ok = false;
      failures->Add(spec.name + ": report token does not parse");
      continue;
    }
    snowboard::ReplayVerdict verdict = snowboard::ReplayTokenTrial(vm, *token);
    if (!verdict.completed || !verdict.fingerprint_match) {
      ok = false;
      failures->Add(StrPrintf("%s: token for issue #%d replayed %s", spec.name.c_str(),
                              token->issue_id, verdict.completed ? "DIVERGED" : "incomplete"));
    }
    op.tokens++;
  }
  op.stages = {ReportStageSeconds(report.body, "corpus"),
               ReportStageSeconds(report.body, "profile"),
               ReportStageSeconds(report.body, "identify"),
               ReportStageSeconds(report.body, "cluster"),
               ReportStageSeconds(report.body, "execute"),
               0};
  op.ms = NowMs() - t0;
  op.ok = ok;
  return op;
}

// Fleet ledger over one round of concurrent ops, in client microseconds: the budget is the
// sum of the clients' op walls. Each client's submit and report calls are charged to serve
// and its token replays to replay; status polls overlap the campaign they wait for, so they
// are reported (serve.status_ms) but not charged. Each campaign is a runner thread
// (pipeline.campaign: its own self time to pipeline, its checkpoint spans to checkpoint)
// driving one pool thread, whose span range is a one-worker campaign ledger. Queueing,
// pool wake-up, the report commit and poll-detection lag are unattributed.
void AddTracedFleetRound(const Trace& trace, LayerTotals* totals) {
  totals->AddSpans(trace);
  const std::vector<Span>& spans = trace.spans;
  std::set<size_t> clients;
  std::set<size_t> runners;
  for (const Span& span : spans) {
    if (span.name == "bench.op") {
      clients.insert(span.tid);
    } else if (span.name == "pipeline.campaign") {
      runners.insert(span.tid);
    }
  }
  Ledger ledger = EmptyLedger();
  double budget = 0;
  std::map<size_t, std::pair<double, double>> pool;  // tid -> [first span, last span end].
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& span = spans[i];
    if (clients.count(span.tid) != 0) {
      if (span.name == "bench.op") {
        budget += span.dur_us;
      } else if (span.name == "bench.submit" || span.name == "bench.report") {
        ledger["serve"] += span.dur_us;
      } else if (span.name == "bench.replay") {
        ledger["replay"] += span.dur_us;
      }
    } else if (runners.count(span.tid) != 0) {
      if (span.name == "pipeline.campaign") {
        ledger["pipeline"] += span.self_us;
      } else if (span.name.rfind("checkpoint.", 0) == 0) {
        ledger["checkpoint"] += span.self_us;
      }
    } else {
      auto [it, inserted] = pool.try_emplace(span.tid, span.ts_us, span.end_us());
      it->second.first = std::min(it->second.first, span.ts_us);
      it->second.second = std::max(it->second.second, span.end_us());
    }
  }
  for (const auto& [tid, range] : pool) {
    AddCampaignLedger(trace, {tid}, range.first, range.first, range.second, range.second, 1,
                      &ledger);
  }
  double attributed = 0;
  for (const auto& [layer, us] : ledger) {
    attributed += us;
  }
  ledger["unattributed"] += budget - attributed;
  totals->AddLedger(ledger, budget);
}

// --- Metrics ------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct PhaseResult {
  std::vector<OpRecord> ops;
  double wall_ms = 0;
  double cpu_ms = 0;

  std::vector<double> OpMs() const {
    std::vector<double> ms;
    for (const OpRecord& op : ops) {
      ms.push_back(op.ms);
    }
    return ms;
  }
};

std::vector<Metric> EndToEndMetrics(const PhaseResult& phase, double setup_s,
                                    double issues_per_op, size_t failed) {
  std::vector<double> ms = phase.OpMs();
  double n = static_cast<double>(phase.ops.size());
  return {
      {"setup_s", setup_s, "s"},
      {"op_ms.p50", Quantile(ms, 0.5), "ms"},
      {"op_ms.p90", Quantile(ms, 0.9), "ms"},
      {"ops_per_s", Div(n, phase.wall_ms * 1e-3), "1/s"},
      {"cpu_ms_per_op", Div(phase.cpu_ms, n), "ms"},
      {"issues_per_op", issues_per_op, "count"},
      {"failed_frac", Div(static_cast<double>(failed), n), "fraction"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> LayerMetrics(const LayerTotals& t, const PhaseResult& traced,
                                 double untraced_p50, double total_vm_boots) {
  double n = std::max<double>(1, static_cast<double>(t.ops));
  const Stages& s = t.stages;
  const Counters& c = t.counters;
  double stage_ms = (s.corpus + s.profile + s.identify + s.cluster + s.execute) * 1e3;
  std::vector<Metric> metrics = {
      {"engine.run_us.p50", Median(t.trial_engine_us), "us"},
      {"engine.runs", t.engine_runs / n, "count"},
      {"explorer.switches_per_trial", Div(t.switches, t.trials), "count"},
      {"explorer.execute_ms", s.execute * 1e3 / n, "ms"},
      {"explorer.trials", t.trials / n, "count"},
      {"explorer.trials_pruned", t.trials_pruned / n, "count"},
      {"explorer.useful_trial_frac", Div(t.trials - t.trials_pruned, t.trials), "fraction"},
      {"explorer.tests_saturated", t.tests_saturated / n, "count"},
      {"explorer.trials_retried", t.trials_retried / n, "count"},
      {"explorer.trial_us.p50", Quantile(t.trial_us, 0.5), "us"},
      {"explorer.trial_us.p90", Quantile(t.trial_us, 0.9), "us"},
      {"explorer.trial_self_us", Div(t.trial_self_us, static_cast<double>(t.trial_us.size())),
       "us"},
      {"minimize.engine_ms", t.minimize_engine_ms / n, "ms"},
      {"minimize.switch_ratio", Div(t.switches_orig, t.switches_min), "x"},
      {"fuzz.corpus_ms", s.corpus * 1e3 / n, "ms"},
      {"fuzz.programs", t.programs / n, "count"},
      {"profile.ms", s.profile * 1e3 / n, "ms"},
      {"profile.restore_ms", s.profile_restore * 1e3 / n, "ms"},
      {"profile.vm_runs", c.profile_runs / n, "count"},
      {"pmc.identify_ms", s.identify * 1e3 / n, "ms"},
      {"pmc.count", t.pmcs / n, "count"},
      {"cluster.ms", s.cluster * 1e3 / n, "ms"},
      {"cluster.tests", t.tests / n, "count"},
      {"vm.restore_us", Div(c.restore_nanos * 1e-3, c.restores), "us"},
      {"vm.restore_bytes", Div(c.restore_bytes, c.restores), "bytes"},
      {"vm.boots", total_vm_boots, "count"},
      {"pipeline.cpu_util", Div(t.cpu_ms, t.wall_ms * kWorkers), "fraction"},
      {"pipeline.unattributed_ms", (t.op_ms - stage_ms) / n, "ms"},
      {"pipeline.prep_frac", Div((s.corpus + s.profile + s.identify) * 1e3, t.op_ms),
       "fraction"},
      {"checkpoint.journal_flushes", c.journal_flushes / n, "count"},
      {"checkpoint.journal_flush_ms", c.journal_flush_nanos * 1e-6 / n, "ms"},
      {"checkpoint.bytes", c.checkpoint_bytes / n, "bytes"},
      {"checkpoint.journal_read_ms", t.journal_read_ms / n, "ms"},
      {"serve.submit_ms", t.submit_ms / n, "ms"},
      {"serve.status_ms.p50", Quantile(t.status_ms, 0.5), "ms"},
      {"serve.status_ms.p90", Quantile(t.status_ms, 0.9), "ms"},
      {"serve.queue_ms", t.queue_ms / n, "ms"},
      {"serve.report_ms", t.report_ms / n, "ms"},
      {"replay.ms_per_token", Div(t.replay_ms, t.tokens), "ms"},
      {"replay.tokens", t.tokens / n, "count"},
      {"trace.overhead_frac", Div(Median(traced.OpMs()) - untraced_p50, untraced_p50),
       "fraction"},
      {"trace.dropped_records", static_cast<double>(t.dropped), "count"},
  };
  for (size_t i = 0; i < kNumLedgerLayers; i++) {
    std::string layer = kLedgerLayers[i];
    auto it = t.ledger_us.find(layer);
    double us = it == t.ledger_us.end() ? 0 : it->second;
    metrics.push_back({"ledger." + layer + "_frac", Div(us, t.ledger_budget_us), "fraction"});
  }
  return metrics;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "perfbench: %s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
}

// `raw` (untraced runs only) carries the phase's samples so run.py can pool shards.
std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics, const PhaseResult* raw) {
  std::string out = StrPrintf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); i++) {
    out += StrPrintf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                     metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  out += "}";
  if (raw != nullptr) {
    out += StrPrintf(", \"raw\": {\"wall_ms\": %.10g, \"cpu_ms\": %.10g, \"op_ms\": [",
                     raw->wall_ms, raw->cpu_ms);
    for (size_t i = 0; i < raw->ops.size(); i++) {
      out += StrPrintf("%s%.6f", i == 0 ? "" : ", ", raw->ops[i].ms);
    }
    out += "]}";
  }
  return out + "}";
}

// --- Main loop ----------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_run";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  if (argc % 2 == 0) {
    return std::nullopt;
  }
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return std::nullopt;
    }
    if (value.empty() || (end != nullptr && *end != '\0')) {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) {
    return std::nullopt;
  }
  return args;
}

class Benchmark {
 public:
  Benchmark(const Args& args, const Workload& workload)
      : args_(args), workload_(workload), inputs_(MakeInputs(workload, args.seed)) {}

  ~Benchmark() {
    server_.reset();  // Drains and joins every campaign runner before its root goes away.
    if (!root_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(root_, ec);
    }
  }

  Benchmark(const Benchmark&) = delete;
  Benchmark& operator=(const Benchmark&) = delete;

  int Run() {
    std::fprintf(stderr, "perfbench: %s seed %" PRIu64 " seconds %g trace %d; build %s, %s, %s\n",
                 workload_.name, args_.seed, args_.seconds, args_.trace ? 1 : 0,
                 SB_PERFBENCH_BUILD_TYPE, SB_PERFBENCH_COMPILER, SB_PERFBENCH_CXX_FLAGS);
    if (!Setup()) {
      return 1;
    }
    std::vector<Metric> metrics;
    size_t attempted = 0;
    PhaseResult phase;
    if (!args_.trace) {
      phase = RunPhase(args_.seconds, nullptr);
      attempted = phase.ops.size();
      metrics = EndToEndMetrics(phase, setup_s_, issues_per_op_, failed_);
      PrintTable("end-to-end (untraced)", metrics);
      // failed_frac is never a positive number on a healthy tree, so the result line carries
      // it as "failed" over "attempted" instead of as a metric.
      std::erase_if(metrics, [](const Metric& m) { return m.name == "failed_frac"; });
    } else {
      PhaseResult untraced = RunPhase(args_.seconds / 2, nullptr);
      LayerTotals totals;
      PhaseResult traced = RunPhase(args_.seconds / 2, &totals);
      attempted = untraced.ops.size() + traced.ops.size();
      metrics = LayerMetrics(totals, traced, Median(untraced.OpMs()),
                             Counters::Read().vm_boots);
      PrintTable("per-layer (traced)", metrics);
    }
    bool correct = failures_.count() == 0 && failed_ == 0;
    std::fprintf(stderr, "perfbench: %zu ops attempted, %zu failed the oracle; correct=%s\n",
                 attempted, failed_, correct ? "true" : "false");
    std::printf("%s\n", ResultJson(correct, std::max<size_t>(attempted, 1), failed_, metrics,
                                    args_.trace ? nullptr : &phase)
                             .c_str());
    std::fflush(stdout);
    return 0;
  }

 private:
  bool Setup() {
    root_ = args_.work_dir + StrPrintf("/run-%d", static_cast<int>(getpid()));
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
    if (!std::filesystem::create_directories(root_, ec)) {
      std::fprintf(stderr, "perfbench: cannot create %s\n", root_.c_str());
      return false;
    }
    double t0 = NowMs();
    if (!Warmup()) {
      return false;
    }
    setup_s_ = (NowMs() - t0) * 1e-3;
    double issues = 0;
    for (size_t i = 0; i < inputs_.size(); i++) {
      issues += static_cast<double>(workload_.fleet ? fleet_refs_[i].issues
                                                    : digests_[i].issues.size());
    }
    issues_per_op_ = issues / static_cast<double>(inputs_.size());
    std::fprintf(stderr, "perfbench: set-up %.3f s; %zu inputs, %.3f issues per campaign\n",
                 setup_s_, inputs_.size(), issues_per_op_);
    return true;
  }

  // The timed part of set-up: the VMs a fresh pool boots, then one warm-up op per input,
  // recording the oracle's reference for it. Fleet set-up also brings up the FleetServer.
  bool Warmup() {
    std::vector<std::unique_ptr<KernelVm>> vms;
    for (int i = 0; i < kWorkers; i++) {
      vms.push_back(std::make_unique<KernelVm>());
    }
    for (size_t i = 0; i < inputs_.size(); i++) {
      PipelineResult result = snowboard::RunSnowboardPipeline(inputs_[i].options);
      Digest digest = DigestOf(result);
      if (!workload_.fleet) {
        digests_.push_back(digest);
        continue;
      }
      FleetReference reference;
      reference.masked_report = snowboard::MaskReportVolatile(snowboard::RenderReportJson(
          snowboard::BuildCampaignReport(inputs_[i].options, result)));
      reference.issues = digest.issues.size();
      for (const std::string& text : ReportTokens(reference.masked_report)) {
        std::optional<snowboard::ReplayToken> token = snowboard::ParseReplayToken(text);
        if (!token.has_value() ||
            !snowboard::ReplayTokenTrial(*vms[0], *token).fingerprint_match) {
          failures_.Add(StrPrintf("standalone token of seed %" PRIu64 " does not replay",
                                  inputs_[i].spec.seed));
        }
      }
      reference.result = std::move(result);
      fleet_refs_.push_back(std::move(reference));
    }
    if (workload_.fleet) {
      snowboard::FleetOptions options;
      options.root = root_ + "/fleet";
      options.total_workers = kWorkers;
      options.max_active = kWorkers;
      server_ = std::make_unique<FleetServer>(options);
      bool drain = false;
      if (!server_->ok() ||
          snowboard::DispatchFleetRequest(*server_, "GET", "/healthz", "", &drain).status !=
              200) {
        std::fprintf(stderr, "perfbench: fleet server did not come up at %s\n",
                     options.root.c_str());
        return false;
      }
      vms_ = std::move(vms);
      for (int c = 0; c < kWorkers; c++) {
        poll_states_.push_back(SplitMix(args_.seed * kWorkers + static_cast<uint64_t>(c)));
      }
    }
    return true;
  }

  // Closed loop for `seconds`. Traced ops run one at a time (campaigns) or in rounds of
  // kWorkers concurrent ops (fleet), so the tracer is drained only at quiescent points.
  PhaseResult RunPhase(double seconds, LayerTotals* traced) {
    PhaseResult phase;
    double cpu0 = ProcessCpuMs();
    double t0 = NowMs();
    double deadline = t0 + seconds * 1e3;
    if (!workload_.fleet) {
      while (NowMs() < deadline) {
        const size_t index = next_input_++ % inputs_.size();
        if (traced != nullptr) {
          Tracer::Global().Start(kTraceCapacity);
        }
        Counters before = Counters::Read();
        double op_cpu0 = ProcessCpuMs();
        OpRecord op = RunCampaignOp(inputs_[index], digests_[index], &failures_);
        if (traced != nullptr) {
          Tracer::Global().Stop();
          traced->cpu_ms += ProcessCpuMs() - op_cpu0;
          traced->wall_ms += op.ms;
          traced->counters.AddDelta(Counters::Read(), before);
          AddTracedCampaignOp(op, ParseTrace(Tracer::Global().ChromeTraceJson()), traced);
          traced->AddOp(op);
        }
        failed_ += op.ok ? 0 : 1;
        phase.ops.push_back(std::move(op));
      }
    } else if (traced == nullptr) {
      std::mutex mutex;
      std::vector<std::thread> clients;
      for (int c = 0; c < kWorkers; c++) {
        clients.emplace_back([&, c]() {
          while (NowMs() < deadline) {
            uint64_t op_index = next_op_++;
            size_t index = next_input_++ % inputs_.size();
            OpRecord op = RunFleetOp(*server_, *vms_[static_cast<size_t>(c)],
                                     &poll_states_[static_cast<size_t>(c)], inputs_[index],
                                     op_index, fleet_refs_[index], &failures_);
            std::lock_guard<std::mutex> lock(mutex);
            failed_ += op.ok ? 0 : 1;
            phase.ops.push_back(std::move(op));
          }
        });
      }
      for (std::thread& client : clients) {
        client.join();
      }
    } else {
      while (NowMs() < deadline) {
        Tracer::Global().Start(kTraceCapacity);
        Counters before = Counters::Read();
        double round_cpu0 = ProcessCpuMs();
        double round_t0 = NowMs();
        std::vector<OpRecord> round(kWorkers);
        std::vector<size_t> round_inputs;
        std::vector<std::thread> clients;
        for (int c = 0; c < kWorkers; c++) {
          uint64_t op_index = next_op_++;
          size_t index = next_input_++ % inputs_.size();
          round_inputs.push_back(index);
          clients.emplace_back([&, c, op_index, index]() {
            round[static_cast<size_t>(c)] =
                RunFleetOp(*server_, *vms_[static_cast<size_t>(c)],
                           &poll_states_[static_cast<size_t>(c)], inputs_[index], op_index,
                           fleet_refs_[index], &failures_);
          });
        }
        for (std::thread& client : clients) {
          client.join();
        }
        Tracer::Global().Stop();
        traced->cpu_ms += ProcessCpuMs() - round_cpu0;
        traced->wall_ms += NowMs() - round_t0;
        traced->counters.AddDelta(Counters::Read(), before);
        AddTracedFleetRound(ParseTrace(Tracer::Global().ChromeTraceJson()), traced);
        for (size_t index : round_inputs) {
          // Fleet ops reproduce their standalone twin, so its deterministic counts stand in.
          traced->AddResult(fleet_refs_[index].result);
        }
        for (OpRecord& op : round) {
          traced->AddOp(op);
          failed_ += op.ok ? 0 : 1;
          phase.ops.push_back(std::move(op));
        }
      }
    }
    phase.wall_ms = NowMs() - t0;
    phase.cpu_ms = ProcessCpuMs() - cpu0;
    return phase;
  }

  const Args args_;
  const Workload workload_;
  const std::vector<Input> inputs_;
  std::string root_;
  double setup_s_ = 0;
  double issues_per_op_ = 0;
  std::vector<Digest> digests_;
  std::vector<FleetReference> fleet_refs_;
  std::vector<std::unique_ptr<KernelVm>> vms_;  // Fleet clients' replay VMs.
  std::vector<uint64_t> poll_states_;            // Fleet clients' poll-gap generators.
  std::unique_ptr<FleetServer> server_;
  FailureLog failures_;
  size_t failed_ = 0;
  std::atomic<size_t> next_input_{0};
  std::atomic<uint64_t> next_op_{0};
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::optional<perfbench::Args> args = perfbench::ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: snowboard_perfbench --workload campaign_pmc|baseline_wide|fleet_ops "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  perfbench::Workload workload = perfbench::MakeWorkload(args->workload);
  if (workload.name == nullptr) {
    std::fprintf(stderr, "snowboard_perfbench: unknown workload %s\n", args->workload.c_str());
    return 2;
  }
  perfbench::Benchmark benchmark(*args, workload);
  return benchmark.Run();
}
