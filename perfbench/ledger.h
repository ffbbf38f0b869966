// Per-layer cost ledger over one traced op.
//
// The runtime tracer (src/util/trace.h) records spans at layer boundaries: profile.program,
// explore.test, explore.trial, engine.run, vm.restore, checkpoint.*, and the benchmark adds
// bench.* spans around every public call it makes. This file turns the rendered Chrome trace
// of one op back into spans, nests them per thread by their logical sequence numbers, and
// charges every span's SELF time (its duration minus the part its child spans cover) to the
// layer that owns it — the rr paper's discipline of charging each cost to the mechanism
// that pays it. Stages that run without spans of their own (corpus generation, PMC
// identification, test generation) are charged through the stage windows the pipeline's
// funnel.* counter events delimit.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  size_t tid = 0;
  double ts_us = 0;
  double dur_us = 0;
  uint64_t begin_seq = 0;
  uint64_t end_seq = 0;
  int parent = -1;     // Index of the enclosing span on the same thread; -1 = top level.
  double self_us = 0;  // dur_us minus the durations of direct children.

  double end_us() const { return ts_us + dur_us; }
};

// A counter sample ("ph":"C"): the pipeline stamps stage events with funnel.* counters.
struct CounterEvent {
  std::string name;
  size_t tid = 0;
  double ts_us = 0;
};

struct Trace {
  std::vector<Span> spans;
  std::vector<CounterEvent> counters;
  uint64_t dropped = 0;  // The tracer's dropped-record count.
};

// Parses Tracer::ChromeTraceJson output and fills in parent links and self times.
Trace ParseTrace(const std::string& chrome_json);

// True when `spans[index]` has an ancestor named `name`.
bool HasAncestor(const std::vector<Span>& spans, size_t index, const char* name);

// Layer names the ledger charges, in report order. "unattributed" is whatever no span and
// no stage window accounts for.
extern const char* const kLedgerLayers[];
extern const size_t kNumLedgerLayers;

// Layer -> microseconds. Starts with every layer at zero.
using Ledger = std::map<std::string, double>;
Ledger EmptyLedger();

// Layer of one pool-thread span's self time, or nullptr for spans whose time belongs to the
// stage window they run in: the guest runs corpus generation makes. Guest runs (engine.run,
// vm.restore) are charged to the layer that asked for them: engine/vm inside a trial,
// minimize inside a test but outside its trials, profile inside profile.program.
const char* SpanLayer(const std::vector<Span>& spans, size_t index);

// Adds one campaign's pool-thread time to `ledger`. The campaign holds `workers` pool
// threads (`pool` holds the ones that emitted spans; the rest count as idle) for all of
// [begin_us, end_us], so it adds exactly workers x (end_us - begin_us). Span self time goes
// to its layer; a thread's span-free time goes to the stage window it falls in: outside
// [stream_begin_us, stream_end_us] to pipeline, then fuzz up to the corpus event, cluster up
// to the tests event, pmc from the last profile.program to the PMC event, and unattributed
// (claims, profile folds, idle workers) elsewhere.
void AddCampaignLedger(const Trace& trace, const std::set<size_t>& pool, double begin_us,
                       double stream_begin_us, double stream_end_us, double end_us,
                       int workers, Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
