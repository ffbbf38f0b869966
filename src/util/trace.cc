#include "src/util/trace.h"

#include "src/util/fs.h"
#include "src/util/strings.h"

namespace snowboard {

std::atomic<bool> Tracer::active_{false};

namespace {

// Thread-local registration state: the buffer is owned by the Tracer (it must outlive the
// thread — an emitting thread may exit before its records are drained); the session stamp
// invalidates the cached pointer across Start calls.
struct ThreadSlot {
  TraceBuffer* buffer = nullptr;
  uint64_t session = 0;
};
thread_local ThreadSlot t_slot;

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Start(size_t per_thread_capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  per_thread_capacity_ = per_thread_capacity > 0 ? per_thread_capacity : 1;
  session_.fetch_add(1, std::memory_order_relaxed);
  start_time_ = std::chrono::steady_clock::now();
  active_.store(true, std::memory_order_relaxed);
}

void Tracer::Stop() { active_.store(false, std::memory_order_relaxed); }

uint64_t Tracer::NowNanos() const {
  if (!Active()) {
    return 0;
  }
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - start_time_)
                                   .count());
}

TraceBuffer* Tracer::ThreadBuffer() {
  if (!Active()) {
    return nullptr;
  }
  // Fast path: this thread already registered for the current session.
  uint64_t session = session_.load(std::memory_order_relaxed);
  if (t_slot.buffer != nullptr && t_slot.session == session) {
    return t_slot.buffer;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!Active()) {
    return nullptr;
  }
  buffers_.push_back(std::make_unique<TraceBuffer>(per_thread_capacity_));
  t_slot.buffer = buffers_.back().get();
  t_slot.session = session_.load(std::memory_order_relaxed);
  return t_slot.buffer;
}

uint64_t Tracer::TotalDropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    dropped += buffer->dropped();
  }
  return dropped;
}

namespace {

// One Chrome trace_event per record, one event per line. ts/dur are microseconds (the
// format's unit); they are the ONLY fields derived from wall clock — everything else is a
// deterministic function of the record stream, so tests mask "ts"/"dur" and byte-compare.
void AppendEventJson(std::string* out, const TraceRecord& record, size_t tid) {
  double ts_us = static_cast<double>(record.ts_nanos) * 1e-3;
  switch (record.phase) {
    case TracePhase::kSpan:
      StrAppendf(out,
                 "{\"name\":\"%s\",\"cat\":\"snowboard\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"begin_seq\":%llu,\"end_seq\":%llu}}",
                 record.name, tid, ts_us, static_cast<double>(record.dur_nanos) * 1e-3,
                 static_cast<unsigned long long>(record.id),
                 static_cast<unsigned long long>(record.begin_seq),
                 static_cast<unsigned long long>(record.end_seq));
      break;
    case TracePhase::kCounter:
      StrAppendf(out,
                 "{\"name\":\"%s\",\"cat\":\"snowboard\",\"ph\":\"C\",\"pid\":1,"
                 "\"tid\":%zu,\"ts\":%.3f,\"args\":{\"value\":%llu,\"begin_seq\":%llu,"
                 "\"end_seq\":%llu}}",
                 record.name, tid, ts_us, static_cast<unsigned long long>(record.value),
                 static_cast<unsigned long long>(record.begin_seq),
                 static_cast<unsigned long long>(record.end_seq));
      break;
    case TracePhase::kInstant:
      StrAppendf(out,
                 "{\"name\":\"%s\",\"cat\":\"snowboard\",\"ph\":\"i\",\"s\":\"t\","
                 "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"args\":{\"id\":%llu,"
                 "\"begin_seq\":%llu,\"end_seq\":%llu}}",
                 record.name, tid, ts_us, static_cast<unsigned long long>(record.id),
                 static_cast<unsigned long long>(record.begin_seq),
                 static_cast<unsigned long long>(record.end_seq));
      break;
  }
}

}  // namespace

std::string Tracer::ChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
  bool first = true;
  uint64_t dropped = 0;
  // Buffers are registration-ordered; within a buffer, records are already in end_seq
  // order (a single producer appends each record when it completes — spans at close). The
  // concatenation is therefore sorted by (tid, end_seq) with no explicit sort.
  for (size_t tid = 0; tid < buffers_.size(); tid++) {
    const TraceBuffer& buffer = *buffers_[tid];
    dropped += buffer.dropped();
    for (size_t i = 0; i < buffer.size(); i++) {
      if (!first) {
        out += ",\n";
      }
      first = false;
      AppendEventJson(&out, buffer.data()[i], tid);
    }
  }
  StrAppendf(&out, "\n],\n\"otherData\":{\"dropped_records\":\"%llu\"}}\n",
             static_cast<unsigned long long>(dropped));
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  return AtomicWriteFile(path, ChromeTraceJson());
}

void TraceSpan::Open(const char* name, uint64_t id) {
  Tracer& tracer = Tracer::Global();
  TraceBuffer* buffer = tracer.ThreadBuffer();
  if (buffer == nullptr) {
    return;
  }
  buffer_ = buffer;
  name_ = name;
  id_ = id;
  ts_nanos_ = tracer.NowNanos();
  begin_seq_ = buffer->NextSeq();
}

void TraceSpan::Close() {
  TraceRecord record;
  record.name = name_;
  record.id = id_;
  record.ts_nanos = ts_nanos_;
  uint64_t now = Tracer::Global().NowNanos();
  record.dur_nanos = now >= ts_nanos_ ? now - ts_nanos_ : 0;
  record.begin_seq = begin_seq_;
  record.end_seq = buffer_->NextSeq();
  record.phase = TracePhase::kSpan;
  buffer_->Push(record);
  buffer_ = nullptr;
}

void TraceEmitCounter(const char* name, uint64_t value) {
  Tracer& tracer = Tracer::Global();
  TraceBuffer* buffer = tracer.ThreadBuffer();
  if (buffer == nullptr) {
    return;
  }
  TraceRecord record;
  record.name = name;
  record.value = value;
  record.ts_nanos = tracer.NowNanos();
  record.begin_seq = record.end_seq = buffer->NextSeq();
  record.phase = TracePhase::kCounter;
  buffer->Push(record);
}

void TraceEmitInstant(const char* name, uint64_t id) {
  Tracer& tracer = Tracer::Global();
  TraceBuffer* buffer = tracer.ThreadBuffer();
  if (buffer == nullptr) {
    return;
  }
  TraceRecord record;
  record.name = name;
  record.id = id;
  record.ts_nanos = tracer.NowNanos();
  record.begin_seq = record.end_seq = buffer->NextSeq();
  record.phase = TracePhase::kInstant;
  buffer->Push(record);
}

}  // namespace snowboard
