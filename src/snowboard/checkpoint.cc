#include "src/snowboard/checkpoint.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "src/util/counters.h"
#include "src/util/fault.h"
#include "src/util/fs.h"
#include "src/util/hash.h"
#include "src/util/log.h"
#include "src/util/strings.h"
#include "src/util/trace.h"

namespace snowboard {

namespace {

constexpr const char* kManifestHeader = "snowboard-manifest-v1";
constexpr const char* kManifestName = "MANIFEST";

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
  if (ok_) {
    LoadManifest();
  }
}

CheckpointStore::~CheckpointStore() {
  // Backstop: whatever is still buffered becomes durable before the store goes away, so
  // batching stays invisible to callers that append and then destroy the store.
  FlushJournals();
}

bool CheckpointStore::ValidName(const std::string& name) {
  if (name.empty() || name == kManifestName) {
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

std::string CheckpointStore::PathFor(const std::string& name) const {
  return dir_ + "/" + name;
}

std::string CheckpointStore::ManifestText() const {
  std::ostringstream os;
  os << kManifestHeader << "\n";
  for (const auto& [name, entry] : entries_) {
    os << "entry " << name << ' ' << entry.size << ' ' << HashHex(entry.hash) << "\n";
  }
  return os.str();
}

bool CheckpointStore::WriteManifestLocked() {
  return AtomicWriteFile(PathFor(kManifestName), ManifestText(), fault_);
}

void CheckpointStore::LoadManifest() {
  std::optional<std::string> text = ReadFileContents(PathFor(kManifestName));
  if (!text.has_value()) {
    return;  // Fresh directory.
  }
  std::istringstream is(*text);
  std::string line;
  if (!std::getline(is, line) || line != kManifestHeader) {
    SB_LOG(kWarn) << "checkpoint: unrecognized manifest in " << dir_ << "; ignoring";
    return;
  }
  std::map<std::string, Entry> entries;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    std::string tag;
    std::string name;
    std::string hash_hex;
    Entry entry;
    fields >> tag >> name >> entry.size >> hash_hex;
    if (fields.fail() || tag != "entry" || !ValidName(name) || hash_hex.size() != 16) {
      SB_LOG(kWarn) << "checkpoint: malformed manifest line in " << dir_ << "; ignoring";
      return;  // A torn manifest would be a torn AtomicWriteFile — treat all as suspect.
    }
    entry.hash = std::strtoull(hash_hex.c_str(), nullptr, 16);
    entries[name] = entry;
  }
  entries_ = std::move(entries);
}

bool CheckpointStore::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(name) != 0;
}

size_t CheckpointStore::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

bool CheckpointStore::Put(const std::string& name, const std::string& contents) {
  TRACE_SPAN("checkpoint.put", contents.size());
  if (!ok_ || !ValidName(name)) {
    SB_LOG(kWarn) << "checkpoint: rejecting Put of '" << name << "'";
    return false;
  }
  if (!AtomicWriteFile(PathFor(name), contents, fault_)) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.size = contents.size();
  entry.hash = Fnv1a(contents);
  entries_[name] = entry;
  if (!WriteManifestLocked()) {
    // The data file is durable but unreferenced; resume recomputes the stage.
    entries_.erase(name);
    return false;
  }
  ActiveCounters().checkpoint_writes.fetch_add(1, std::memory_order_relaxed);
  ActiveCounters().checkpoint_bytes.fetch_add(contents.size(), std::memory_order_relaxed);
  return true;
}

std::optional<std::string> CheckpointStore::Get(const std::string& name) const {
  TRACE_SPAN("checkpoint.get");
  Entry expected;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return std::nullopt;
    }
    expected = it->second;
  }
  std::optional<std::string> contents = ReadFileContents(PathFor(name));
  if (!contents.has_value()) {
    SB_LOG(kWarn) << "checkpoint: manifest references missing entry " << name;
    return std::nullopt;
  }
  if (contents->size() != expected.size || Fnv1a(*contents) != expected.hash) {
    SB_LOG(kWarn) << "checkpoint: entry " << name << " failed verification (corrupt or "
                  << "truncated); recomputing";
    return std::nullopt;
  }
  ActiveCounters().checkpoint_loads.fetch_add(1, std::memory_order_relaxed);
  return contents;
}

bool CheckpointStore::Reset() {
  if (!ok_) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  pending_.clear();  // Buffered journal records die with their journals.
  bool ok = WriteManifestLocked();
  std::error_code ec;
  for (const auto& dirent : std::filesystem::directory_iterator(dir_, ec)) {
    if (dirent.path().extension() == ".journal") {
      ok = RemoveFileIfExists(dirent.path().string()) && ok;
    }
  }
  return ok;
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
  if (pending.lines.size() < journal_flush_records_ && pending.bytes < journal_flush_bytes_) {
    return true;  // Buffered; a later threshold crossing or FlushJournals commits it.
  }
  return FlushJournalLocked(name);
}

void CheckpointStore::SetJournalBatch(size_t records, size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  journal_flush_records_ = records < 1 ? 1 : records;
  journal_flush_bytes_ = bytes < 1 ? 1 : bytes;
}

bool CheckpointStore::FlushJournalLocked(const std::string& name) const {
  auto it = pending_.find(name);
  if (it == pending_.end() || it->second.lines.empty()) {
    return true;
  }
  auto start = std::chrono::steady_clock::now();
  std::vector<std::string> lines = std::move(it->second.lines);
  it->second.lines.clear();
  it->second.bytes = 0;
  bool ok = AppendLinesDurable(JournalPath(dir_, name), lines, fault_);
  if (ok) {
    uint64_t nanos = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             start)
            .count());
    PipelineCounters& counters = ActiveCounters();
    counters.journal_batch_flushes.fetch_add(1, std::memory_order_relaxed);
    counters.journal_batch_records.fetch_add(lines.size(), std::memory_order_relaxed);
    counters.journal_flush_nanos.fetch_add(nanos, std::memory_order_relaxed);
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
