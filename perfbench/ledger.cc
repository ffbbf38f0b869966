#include "perfbench/ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>

namespace perfbench {

const char* const kLedgerLayers[] = {"fuzz",       "profile",  "pmc",    "cluster",
                                     "explorer",   "engine",   "minimize", "vm",
                                     "checkpoint", "pipeline", "serve",  "replay",
                                     "unattributed"};
const size_t kNumLedgerLayers = sizeof(kLedgerLayers) / sizeof(kLedgerLayers[0]);

Ledger EmptyLedger() {
  Ledger ledger;
  for (size_t i = 0; i < kNumLedgerLayers; i++) {
    ledger[kLedgerLayers[i]] = 0;
  }
  return ledger;
}

Trace ParseTrace(const std::string& chrome_json) {
  Trace trace;
  std::vector<Span>& spans = trace.spans;
  size_t pos = 0;
  while (pos < chrome_json.size()) {
    size_t end = chrome_json.find('\n', pos);
    if (end == std::string::npos) {
      end = chrome_json.size();
    }
    std::string line = chrome_json.substr(pos, end - pos);
    pos = end + 1;
    // One event per line; instant events match neither pattern and are skipped.
    char name[128] = {0};
    Span span;
    unsigned long long id = 0;
    unsigned long long begin_seq = 0;
    unsigned long long end_seq = 0;
    if (std::sscanf(line.c_str(),
                    "{\"name\":\"%127[^\"]\",\"cat\":\"snowboard\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%zu,\"ts\":%lf,\"dur\":%lf,\"args\":{\"id\":%llu,"
                    "\"begin_seq\":%llu,\"end_seq\":%llu}}",
                    name, &span.tid, &span.ts_us, &span.dur_us, &id, &begin_seq,
                    &end_seq) == 7) {
      span.name = name;
      span.begin_seq = begin_seq;
      span.end_seq = end_seq;
      spans.push_back(std::move(span));
      continue;
    }
    CounterEvent counter;
    if (std::sscanf(line.c_str(),
                    "{\"name\":\"%127[^\"]\",\"cat\":\"snowboard\",\"ph\":\"C\",\"pid\":1,"
                    "\"tid\":%zu,\"ts\":%lf,",
                    name, &counter.tid, &counter.ts_us) == 3) {
      counter.name = name;
      trace.counters.push_back(std::move(counter));
    }
  }

  const char* kDroppedKey = "\"dropped_records\":\"";
  size_t at = chrome_json.rfind(kDroppedKey);
  if (at != std::string::npos) {
    trace.dropped =
        std::strtoull(chrome_json.c_str() + at + std::strlen(kDroppedKey), nullptr, 10);
  }

  // Nesting: on one thread, span B lies inside span A iff A opened before B and closed after
  // it. Walking spans in (tid, begin_seq) order with a stack of still-open spans finds each
  // span's innermost enclosing span.
  std::vector<size_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::tie(spans[a].tid, spans[a].begin_seq) <
           std::tie(spans[b].tid, spans[b].begin_seq);
  });
  std::vector<double> child_us(spans.size(), 0);
  std::vector<size_t> open;
  size_t tid = static_cast<size_t>(-1);
  for (size_t i : order) {
    Span& span = spans[i];
    if (span.tid != tid) {
      open.clear();
      tid = span.tid;
    }
    while (!open.empty() && spans[open.back()].end_seq < span.begin_seq) {
      open.pop_back();
    }
    if (!open.empty()) {
      span.parent = static_cast<int>(open.back());
      child_us[open.back()] += span.dur_us;
    }
    open.push_back(i);
  }
  for (size_t i = 0; i < spans.size(); i++) {
    spans[i].self_us = std::max(0.0, spans[i].dur_us - child_us[i]);
  }
  return trace;
}

bool HasAncestor(const std::vector<Span>& spans, size_t index, const char* name) {
  for (int at = spans[index].parent; at >= 0; at = spans[static_cast<size_t>(at)].parent) {
    if (spans[static_cast<size_t>(at)].name == name) {
      return true;
    }
  }
  return false;
}

const char* SpanLayer(const std::vector<Span>& spans, size_t index) {
  const std::string& name = spans[index].name;
  if (name == "profile.program") {
    return "profile";
  }
  if (name == "explore.test" || name == "explore.trial") {
    return "explorer";
  }
  if (name == "engine.run" || name == "vm.restore") {
    if (HasAncestor(spans, index, "explore.trial")) {
      return name == "engine.run" ? "engine" : "vm";
    }
    // Inside a test but outside its trials, restores and runs are the minimizer's probes.
    if (HasAncestor(spans, index, "explore.test")) {
      return "minimize";
    }
    if (HasAncestor(spans, index, "profile.program")) {
      return "profile";
    }
    return nullptr;  // Corpus generation's coverage runs: the fuzz window owns them.
  }
  if (name.rfind("checkpoint.", 0) == 0) {
    return "checkpoint";
  }
  return nullptr;
}

void AddCampaignLedger(const Trace& trace, const std::set<size_t>& pool, double begin_us,
                       double stream_begin_us, double stream_end_us, double end_us,
                       int workers, Ledger* ledger) {
  const std::vector<Span>& spans = trace.spans;

  // Self time of every layered span on a pool thread, plus each pool thread's busy
  // intervals (its outermost layered spans).
  std::map<size_t, std::vector<std::pair<double, double>>> busy;
  std::vector<const char*> layers(spans.size(), nullptr);
  double profiles_end_us = -1;
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& span = spans[i];
    if (pool.count(span.tid) == 0) {
      continue;
    }
    busy[span.tid];  // A thread whose only spans are unlayered still counts as a pool thread.
    layers[i] = SpanLayer(spans, i);
    if (span.name == "profile.program") {
      profiles_end_us = std::max(profiles_end_us, span.end_us());
    }
  }
  for (size_t i = 0; i < spans.size(); i++) {
    if (layers[i] == nullptr) {
      continue;
    }
    (*ledger)[layers[i]] += spans[i].self_us;
    bool outermost = true;
    for (int at = spans[i].parent; at >= 0; at = spans[static_cast<size_t>(at)].parent) {
      outermost = outermost && layers[static_cast<size_t>(at)] == nullptr;
    }
    if (outermost) {
      busy[spans[i].tid].emplace_back(spans[i].ts_us, spans[i].end_us());
    }
  }

  // Stage events, in time order; the span-free time before each event belongs to the stage
  // the event completes. Each event stamps the moment its stage resolved.
  std::vector<std::pair<double, const char*>> events;
  for (const CounterEvent& counter : trace.counters) {
    if (pool.count(counter.tid) == 0) {
      continue;
    }
    if (counter.name == "funnel.corpus_programs") {
      events.emplace_back(counter.ts_us, "fuzz");
    } else if (counter.name == "funnel.tests_generated") {
      events.emplace_back(counter.ts_us, "cluster");
    } else if (counter.name == "funnel.pmcs_identified") {
      events.emplace_back(counter.ts_us, "pmc");
    }
  }
  if (profiles_end_us >= 0) {
    events.emplace_back(profiles_end_us, "unattributed");  // Claims and folds between profiles.
  }
  std::sort(events.begin(), events.end());
  struct Window {
    double begin;
    double end;
    const char* layer;
  };
  std::vector<Window> windows = {{begin_us, stream_begin_us, "pipeline"}};
  double at = stream_begin_us;
  for (const auto& [ts, layer] : events) {
    double event_us = std::clamp(ts, stream_begin_us, stream_end_us);
    windows.push_back({at, event_us, layer});
    at = std::max(at, event_us);
  }
  windows.push_back({at, stream_end_us, "unattributed"});  // Claims and idle workers.
  windows.push_back({stream_end_us, end_us, "pipeline"});

  auto charge_gaps = [&](std::vector<std::pair<double, double>> intervals) {
    std::sort(intervals.begin(), intervals.end());
    for (const Window& window : windows) {
      double begin = std::max(window.begin, begin_us);
      double end = std::min(window.end, end_us);
      if (end <= begin) {
        continue;
      }
      double covered = 0;
      double reach = begin;  // Intervals may overlap; count each instant once.
      for (const auto& [from, to] : intervals) {
        double lo = std::max(from, reach);
        double hi = std::min(to, end);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
      (*ledger)[window.layer] += (end - begin) - covered;
    }
  };
  for (const auto& [tid, intervals] : busy) {
    charge_gaps(intervals);
  }
  for (int idle = static_cast<int>(busy.size()); idle < workers; idle++) {
    charge_gaps({});
  }
}

}  // namespace perfbench
