// Structured event tracing: spans + counters over the campaign pipeline.
//
// The paper's funnel (millions of PMCs clustered down to a prioritized test set, then
// trials) is only diagnosable with per-stage, per-worker telemetry; eBPF-era successors to
// Snowboard steer exploration with exactly this kind of low-overhead event stream. This is
// the repo's analog: every pipeline stage, explorer trial, snapshot restore, and checkpoint
// IO emits fixed-size records into a per-thread single-producer buffer, and the tracer
// renders the merged stream as Chrome `trace_event` JSON (loadable in about:tracing or
// https://ui.perfetto.dev) plus the flat metrics snapshot in snowboard/metrics.h.
//
// Cost model (the zero-allocation trial hot path must not notice tracing):
//   * Runtime off (the default): one relaxed atomic load + branch per TRACE_* site.
//   * Runtime on: one fixed-size record pushed into a preallocated per-thread buffer —
//     no locks, no allocation (the buffer is sized at thread registration, which the
//     warm-up phase of any steady-state loop performs). A full buffer drops the record
//     and counts it; it never grows, blocks, or reallocates.
//
// Determinism: records carry per-thread logical sequence numbers (begin_seq/end_seq) that
// define span nesting and the emitted event order. Wall-clock lives ONLY in the dedicated
// "ts"/"dur" fields, so golden-file tests mask those two keys and compare the rest
// byte-for-byte. Buffers are drained only at quiescent points (pool-job joins / campaign
// end) — the owning threads must not be emitting during WriteChromeTrace.
#ifndef SRC_UTIL_TRACE_H_
#define SRC_UTIL_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace snowboard {

enum class TracePhase : uint8_t {
  kSpan = 0,     // Chrome "X" (complete) event: ts + dur.
  kCounter = 1,  // Chrome "C" event: value at a point in time.
  kInstant = 2,  // Chrome "i" event.
};

// One fixed-size telemetry record. `name` must be a static-duration string (macro call
// sites pass literals); records never own memory.
struct TraceRecord {
  const char* name = nullptr;
  uint64_t id = 0;         // Call-site payload (test index, byte count, ...).
  uint64_t value = 0;      // Counter value (kCounter only).
  uint64_t ts_nanos = 0;   // Start time, nanoseconds since Tracer::Start.
  uint64_t dur_nanos = 0;  // Span duration (kSpan only).
  uint64_t begin_seq = 0;  // Per-thread logical clock at open.
  uint64_t end_seq = 0;    // Per-thread logical clock at close (== begin_seq unless kSpan).
  TracePhase phase = TracePhase::kInstant;
};

// Single-producer append-only record buffer owned by one thread. Fixed capacity: a push
// into a full buffer increments `dropped` and returns — the hot path never allocates.
// Spans are pushed once, at close (begin timestamp + duration), so a drop can lose a span
// but can never unbalance the nesting of the spans that remain.
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity) : records_(capacity) {}

  uint64_t NextSeq() { return seq_++; }
  void Push(const TraceRecord& record) {
    if (size_ == records_.size()) {
      dropped_++;
      return;
    }
    records_[size_++] = record;
  }

  const TraceRecord* data() const { return records_.data(); }
  size_t size() const { return size_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<TraceRecord> records_;
  size_t size_ = 0;
  uint64_t seq_ = 0;
  uint64_t dropped_ = 0;
};

// Process-wide tracer. Threads register lazily on first emission (one mutex acquisition
// + one buffer allocation per thread per session — never in steady state) and then emit
// lock-free into their own buffer. Thread ids are registration-ordered.
class Tracer {
 public:
  static Tracer& Global();

  // True when tracing is runtime-enabled; the only check on the fast path.
  static bool Active() { return active_.load(std::memory_order_relaxed); }

  // Begins a session: discards prior records and enables emission. `per_thread_capacity`
  // is the record budget of each registering thread.
  void Start(size_t per_thread_capacity = 1 << 18);
  // Disables emission; collected records remain available until the next Start.
  void Stop();

  // Nanoseconds since Start (0 when inactive).
  uint64_t NowNanos() const;

  // The calling thread's buffer for the current session (registering it first if
  // needed), or nullptr when tracing is inactive.
  TraceBuffer* ThreadBuffer();

  // Renders every record collected so far as Chrome trace_event JSON: one event per line,
  // events ordered by (tid, end_seq) — spans are pushed at close, so emission order is the
  // logical close order — a deterministic function of the records, never of drain timing.
  // Caller must ensure emitting threads are quiescent (pool-job join or campaign end).
  std::string ChromeTraceJson() const;
  bool WriteChromeTrace(const std::string& path) const;  // Atomic write via util/fs.

  // Records dropped by full buffers across all threads (visible in the JSON footer too).
  uint64_t TotalDropped() const;

 private:
  Tracer() = default;

  static std::atomic<bool> active_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
  size_t per_thread_capacity_ = 1 << 18;
  std::atomic<uint64_t> session_{0};  // Bumped per Start; stale thread-locals re-register.
  std::chrono::steady_clock::time_point start_time_;
};

// RAII span. Opens (captures a timestamp + sequence number) at construction when tracing
// is active, pushes ONE kSpan record at destruction. When inactive, construction is a
// relaxed load + branch and destruction a predictable not-taken branch.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, uint64_t id = 0) {
    if (Tracer::Active()) {
      Open(name, id);
    }
  }
  ~TraceSpan() {
    if (buffer_ != nullptr) {
      Close();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Open(const char* name, uint64_t id);  // Out of line: keeps call sites small.
  void Close();

  TraceBuffer* buffer_ = nullptr;
  const char* name_ = nullptr;
  uint64_t id_ = 0;
  uint64_t ts_nanos_ = 0;
  uint64_t begin_seq_ = 0;
};

// Out-of-line emitters behind the TRACE_COUNTER / TRACE_INSTANT macros.
void TraceEmitCounter(const char* name, uint64_t value);
void TraceEmitInstant(const char* name, uint64_t id);

}  // namespace snowboard

#define SB_TRACE_CONCAT_INNER(a, b) a##b
#define SB_TRACE_CONCAT(a, b) SB_TRACE_CONCAT_INNER(a, b)

// Scoped span: TRACE_SPAN("explore.trial", trial_index); lives to the end of the
// enclosing block.
#define TRACE_SPAN(...) \
  ::snowboard::TraceSpan SB_TRACE_CONCAT(sb_trace_span_, __COUNTER__)(__VA_ARGS__)

// Point-in-time counter sample: TRACE_COUNTER("explore.restore_bytes", bytes).
#define TRACE_COUNTER(name, value)                       \
  do {                                                   \
    if (::snowboard::Tracer::Active()) {                 \
      ::snowboard::TraceEmitCounter((name), (value));    \
    }                                                    \
  } while (0)

// Zero-duration marker: TRACE_INSTANT("checkpoint.reset", 0).
#define TRACE_INSTANT(name, id)                          \
  do {                                                   \
    if (::snowboard::Tracer::Active()) {                 \
      ::snowboard::TraceEmitInstant((name), (id));       \
    }                                                    \
  } while (0)

#endif  // SRC_UTIL_TRACE_H_
