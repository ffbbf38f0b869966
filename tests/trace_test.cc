// Tracer validity: the Chrome trace_event JSON stream must be structurally sound (balanced
// braces, one event per line), span nesting must balance per thread — checked over the
// begin_seq/end_seq logical clocks, which are wall-clock-free — and everything outside the
// "ts"/"dur" fields must be byte-deterministic across sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/util/trace.h"

namespace snowboard {
namespace {

// Events are emitted one per line; pull out the lines that look like events.
std::vector<std::string> EventLines(const std::string& json) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t end = json.find('\n', pos);
    if (end == std::string::npos) {
      end = json.size();
    }
    std::string line = json.substr(pos, end - pos);
    if (line.rfind("{\"name\":", 0) == 0) {
      lines.push_back(std::move(line));
    }
    pos = end + 1;
  }
  return lines;
}

uint64_t FieldValue(const std::string& line, const std::string& key) {
  size_t at = line.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  if (at == std::string::npos) {
    return 0;
  }
  return std::strtoull(line.c_str() + at + key.size() + 3, nullptr, 10);
}

std::string Phase(const std::string& line) {
  size_t at = line.find("\"ph\":\"");
  EXPECT_NE(at, std::string::npos) << line;
  return at == std::string::npos ? "" : line.substr(at + 6, 1);
}

// Minimal structural JSON check: braces/brackets balance outside of string literals.
void ExpectBalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); i++) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        i++;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      depth++;
    } else if (c == '}' || c == ']') {
      depth--;
      ASSERT_GE(depth, 0) << "close without open at offset " << i;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

// Zeroes the number after every "ts": and "dur": key.
std::string MaskTimestamps(const std::string& json) {
  std::string out;
  size_t pos = 0;
  for (;;) {
    size_t key = std::min(json.find("\"ts\":", pos), json.find("\"dur\":", pos));
    if (key == std::string::npos) {
      break;
    }
    size_t value = json.find(':', key) + 1;
    size_t end = std::min(json.find_first_not_of("0123456789.", value), json.size());
    out.append(json, pos, value - pos);
    if (end > value) {
      out += '0';
    }
    pos = end;
  }
  out.append(json, pos);
  return out;
}

void EmitNestedSpans(int salt) {
  for (int i = 0; i < 4; i++) {
    TRACE_SPAN("test.outer", static_cast<uint64_t>(salt * 100 + i));
    TRACE_COUNTER("test.counter", static_cast<uint64_t>(i));
    {
      TRACE_SPAN("test.inner", static_cast<uint64_t>(i));
      TRACE_INSTANT("test.marker", static_cast<uint64_t>(i));
    }
  }
}

TEST(TraceTest, InactiveEmitsNothingAndAllocatesNoBuffer) {
  ASSERT_FALSE(Tracer::Active());
  EmitNestedSpans(0);
  EXPECT_EQ(Tracer::Global().ThreadBuffer(), nullptr);
  EXPECT_EQ(Tracer::Global().NowNanos(), 0u);
}

TEST(TraceTest, SpanNestingBalancesPerThread) {
  Tracer::Global().Start();
  EmitNestedSpans(0);
  std::vector<std::thread> threads;
  for (int t = 1; t <= 3; t++) {
    threads.emplace_back([t]() { EmitNestedSpans(t); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  Tracer::Global().Stop();

  std::string json = Tracer::Global().ChromeTraceJson();
  ExpectBalancedJson(json);
  std::vector<std::string> events = EventLines(json);
  // 4 threads x 4 iterations x (outer span + counter + inner span + instant).
  ASSERT_EQ(events.size(), 4u * 4u * 4u);

  struct Interval {
    uint64_t begin, end;
  };
  std::map<uint64_t, std::vector<Interval>> spans_by_tid;
  std::map<uint64_t, uint64_t> last_seq_by_tid;
  for (const std::string& line : events) {
    uint64_t tid = FieldValue(line, "tid");
    uint64_t begin = FieldValue(line, "begin_seq");
    uint64_t end = FieldValue(line, "end_seq");
    std::string ph = Phase(line);
    if (ph == "X") {
      ASSERT_LT(begin, end) << line;
      spans_by_tid[tid].push_back({begin, end});
    } else {
      ASSERT_EQ(begin, end) << line;  // Counters/instants are points on the logical clock.
    }
    // Events within one tid arrive in emission order — spans are pushed at CLOSE, so the
    // order is strictly increasing end_seq (the determinism contract).
    auto it = last_seq_by_tid.find(tid);
    if (it != last_seq_by_tid.end()) {
      ASSERT_GT(end, it->second) << "out-of-order event in tid " << tid << ": " << line;
    }
    last_seq_by_tid[tid] = end;
  }
  ASSERT_EQ(spans_by_tid.size(), 4u);

  // Proper nesting: any two spans of one thread are either disjoint or one contains the
  // other — a partial overlap means an unbalanced open/close.
  for (const auto& [tid, spans] : spans_by_tid) {
    ASSERT_EQ(spans.size(), 8u) << "tid " << tid;
    for (size_t a = 0; a < spans.size(); a++) {
      for (size_t b = a + 1; b < spans.size(); b++) {
        const Interval& x = spans[a];
        const Interval& y = spans[b];
        bool disjoint = x.end < y.begin || y.end < x.begin;
        bool x_in_y = y.begin < x.begin && x.end < y.end;
        bool y_in_x = x.begin < y.begin && y.end < x.end;
        EXPECT_TRUE(disjoint || x_in_y || y_in_x)
            << "tid " << tid << ": spans [" << x.begin << "," << x.end << "] and ["
            << y.begin << "," << y.end << "] partially overlap";
      }
    }
  }
}

TEST(TraceTest, FullBufferDropsInsteadOfGrowing) {
  Tracer::Global().Start(/*per_thread_capacity=*/4);
  for (int i = 0; i < 32; i++) {
    TRACE_INSTANT("test.flood", static_cast<uint64_t>(i));
  }
  Tracer::Global().Stop();
  EXPECT_EQ(Tracer::Global().TotalDropped(), 28u);
  std::string json = Tracer::Global().ChromeTraceJson();
  ExpectBalancedJson(json);
  EXPECT_EQ(EventLines(json).size(), 4u);
  EXPECT_NE(json.find("\"dropped_records\":\"28\""), std::string::npos);
}

TEST(TraceTest, MaskedOutputIsDeterministicAcrossSessions) {
  std::string runs[2];
  for (std::string& out : runs) {
    Tracer::Global().Start();
    EmitNestedSpans(7);
    Tracer::Global().Stop();
    out = MaskTimestamps(Tracer::Global().ChromeTraceJson());
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_NE(runs[0].find("\"name\":\"test.outer\""), std::string::npos);
}

}  // namespace
}  // namespace snowboard
