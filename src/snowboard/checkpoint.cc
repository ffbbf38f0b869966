#include "src/snowboard/checkpoint.h"

#include <chrono>
#include <filesystem>
#include <optional>

#include "src/util/counters.h"
#include "src/util/fault.h"
#include "src/util/fs.h"
#include "src/util/hash.h"
#include "src/util/log.h"
#include "src/util/strings.h"
#include "src/util/trace.h"

namespace snowboard {

namespace {

constexpr const char* kGuardName = "campaign";
// A group commit also fires once this many bytes are pending, whatever the record count.
constexpr size_t kJournalFlushBytes = 256 * 1024;

std::string HashHex(uint64_t hash) {
  return StrPrintf("%016llx", static_cast<unsigned long long>(hash));
}

std::string JournalPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".journal";
}

}  // namespace

CheckpointStore::CheckpointStore(const std::string& dir, FaultInjector* fault)
    : dir_(dir), fault_(fault) {
  ok_ = !dir.empty() && EnsureDirectory(dir);
}

CheckpointStore::~CheckpointStore() {
  // Backstop: whatever is still buffered becomes durable before the store goes away, so
  // batching stays invisible to callers that append and then destroy the store.
  FlushJournals();
}

bool CheckpointStore::ValidName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '.' || c == '_' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

void CheckpointStore::Admit(uint64_t fingerprint, const std::string& strategy, bool resume) {
  TRACE_SPAN("checkpoint.admit");
  if (!ok_) {
    return;
  }
  const std::string guard_path = dir_ + "/" + kGuardName;
  const std::string guard = StrPrintf("snowboard-campaign-v1\nfingerprint %016llx\n",
                                      static_cast<unsigned long long>(fingerprint));
  std::lock_guard<std::mutex> lock(mutex_);
  // What older layouts kept beside the guard and the journal. Nothing reads these files,
  // so every admission deletes them, by name only: the directory is the user's.
  RemoveFileIfExists(guard_path + ".tmp");
  for (const std::string& name : {std::string("MANIFEST"), std::string("corpus"),
                                  std::string("profiles"), std::string("pmcs"),
                                  "tests." + strategy, "result." + strategy}) {
    RemoveFileIfExists(dir_ + "/" + name);
    RemoveFileIfExists(dir_ + "/" + name + ".tmp");
  }
  std::optional<std::string> existing = ReadFileContents(guard_path);
  if (resume && existing == guard) {
    GlobalPipelineCounters().checkpoint_loads.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (resume && existing.has_value()) {
    SB_LOG(kWarn) << "checkpoint: " << dir_ << " holds the guard of another campaign "
                  << "configuration (or a damaged one); resetting";
  }
  // Journals go before the new guard is written: a crash in between leaves no guard that
  // could admit a stale journal.
  pending_.clear();
  std::error_code ec;
  for (const auto& dirent : std::filesystem::directory_iterator(dir_, ec)) {
    if (dirent.path().extension() == ".journal") {
      RemoveFileIfExists(dirent.path().string());
    }
  }
  if (AtomicWriteFile(guard_path, guard, fault_)) {
    GlobalPipelineCounters().checkpoint_writes.fetch_add(1, std::memory_order_relaxed);
    GlobalPipelineCounters().checkpoint_bytes.fetch_add(guard.size(), std::memory_order_relaxed);
  }
}

bool CheckpointStore::AppendJournal(const std::string& name, const std::string& record) {
  TRACE_SPAN("checkpoint.journal_append", record.size());
  if (!ok_ || !ValidName(name) || record.find('\n') != std::string::npos) {
    SB_LOG(kWarn) << "checkpoint: rejecting journal append to '" << name << "'";
    return false;
  }
  std::string line = HashHex(Fnv1a(record)) + " " + record;
  std::lock_guard<std::mutex> lock(mutex_);
  PendingJournal& pending = pending_[name];
  pending.bytes += line.size();
  pending.lines.push_back(std::move(line));
  if (pending.lines.size() < journal_flush_records_ && pending.bytes < kJournalFlushBytes) {
    return true;  // Buffered; a later threshold crossing or FlushJournals commits it.
  }
  return FlushJournalLocked(name);
}

void CheckpointStore::SetJournalBatch(size_t records) {
  std::lock_guard<std::mutex> lock(mutex_);
  journal_flush_records_ = records < 1 ? 1 : records;
}

bool CheckpointStore::FlushJournalLocked(const std::string& name) const {
  auto it = pending_.find(name);
  if (it == pending_.end() || it->second.lines.empty()) {
    return true;
  }
  auto start = std::chrono::steady_clock::now();
  std::vector<std::string> lines = std::move(it->second.lines);
  const size_t bytes = it->second.bytes + lines.size();  // Each line gains its newline.
  it->second.lines.clear();
  it->second.bytes = 0;
  bool ok = AppendLinesDurable(JournalPath(dir_, name), lines, fault_);
  if (ok) {
    uint64_t nanos = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             start)
            .count());
    PipelineCounters& counters = GlobalPipelineCounters();
    counters.journal_batch_flushes.fetch_add(1, std::memory_order_relaxed);
    counters.journal_batch_records.fetch_add(lines.size(), std::memory_order_relaxed);
    counters.journal_flush_nanos.fetch_add(nanos, std::memory_order_relaxed);
    counters.checkpoint_bytes.fetch_add(bytes, std::memory_order_relaxed);
    TRACE_COUNTER("checkpoint.journal_batch_records", lines.size());
  }
  return ok;
}

bool CheckpointStore::FlushJournals() {
  if (!ok_) {
    return false;
  }
  if (fault_ != nullptr && fault_->crashed()) {
    return false;  // A dead process writes nothing; the batch is lost, as in a real crash.
  }
  std::lock_guard<std::mutex> lock(mutex_);
  bool ok = true;
  for (auto& [name, pending] : pending_) {
    ok = FlushJournalLocked(name) && ok;
  }
  return ok;
}

std::vector<std::string> CheckpointStore::ReadJournal(const std::string& name) const {
  if (!ok_ || !ValidName(name)) {
    return {};
  }
  {
    // Read-your-writes: commit this journal's still-buffered records first so batching
    // never makes a same-process reader miss an append that returned true.
    std::lock_guard<std::mutex> lock(mutex_);
    if (fault_ == nullptr || !fault_->crashed()) {
      FlushJournalLocked(name);
    }
  }
  return ReadJournalFile(dir_, name);
}

std::vector<std::string> ReadJournalFile(const std::string& dir, const std::string& name) {
  TRACE_SPAN("checkpoint.journal_read");
  std::vector<std::string> records;
  if (dir.empty() || !CheckpointStore::ValidName(name)) {
    return records;
  }
  std::optional<std::string> text = ReadFileContents(JournalPath(dir, name));
  if (!text.has_value()) {
    return records;
  }
  // Only newline-terminated lines are read: the bytes after the last newline are a torn
  // tail, never a record.
  for (size_t begin = 0, end; (end = text->find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    std::string line = text->substr(begin, end - begin);
    size_t space = line.find(' ');
    if (space != 16) {
      break;  // Garbage: stop replay at the last verified record.
    }
    std::string payload = line.substr(space + 1);
    if (HashHex(Fnv1a(payload)) != line.substr(0, 16)) {
      SB_LOG(kWarn) << "checkpoint: journal " << name << " record failed checksum; "
                    << "dropping it and the tail";
      break;
    }
    records.push_back(std::move(payload));
  }
  return records;
}

}  // namespace snowboard
