// Crash-safe checkpoint store for campaign artifacts.
//
// The paper's deployment persists every intermediate artifact (profiles feed a separate
// identification job; S-FULL PMC keys are "stored on disk"; tests travel through a Redis
// queue), so a worker or coordinator loss never discards more than the stage in flight.
// A CheckpointStore is the single-directory analog: named entries written atomically
// (src/util/fs.h write-temp-then-rename) and registered in a manifest with content hashes,
// so a reader either gets a stage's complete, verified artifact or nothing — corrupt,
// truncated, or torn files are rejected, never half-loaded. Append-only journals carry
// per-test execution outcomes with a checksum per line; a crash can only truncate the
// final line, which the reader drops.
//
// Consistency argument (what makes resume byte-identical): an entry becomes visible only
// via Put's sequence [write data atomically] → [rewrite manifest atomically]. A crash
// between the two leaves an orphan data file that the manifest does not reference, so the
// resumed run recomputes the stage — and every stage is deterministic, so recomputation
// equals the lost artifact. Journals are sub-stage: replaying a journaled outcome is
// byte-equivalent to re-running its (deterministic, snapshot-isolated) test.
#ifndef SRC_SNOWBOARD_CHECKPOINT_H_
#define SRC_SNOWBOARD_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace snowboard {

class FaultInjector;

class CheckpointStore {
 public:
  // Opens (creating the directory if needed) and loads the manifest. `fault` is threaded
  // into every write for the crash-sweep harness.
  explicit CheckpointStore(const std::string& dir, FaultInjector* fault = nullptr);

  bool ok() const { return ok_; }
  const std::string& dir() const { return dir_; }

  // Entry names must be non-empty and use only [A-Za-z0-9._-] (they become file names).
  static bool ValidName(const std::string& name);

  bool Has(const std::string& name) const;
  size_t entry_count() const;

  // Atomically writes `name` and commits it to the manifest. False on IO failure, invalid
  // name, or injected crash (in which case the entry stays invisible or keeps its old
  // contents — never a torn state).
  bool Put(const std::string& name, const std::string& contents);

  // Verified read: nullopt when the entry is missing from the manifest, unreadable, or
  // its content hash does not match (corruption/truncation).
  std::optional<std::string> Get(const std::string& name) const;

  // Forgets every entry (rewrites an empty manifest) and deletes all journals. Entry data
  // files are left to be overwritten; with the manifest gone they are unreachable.
  bool Reset();

  // Appends one single-line record to journal `name` (checksummed per line). Records are
  // group-committed: they buffer in memory and are written durably — one write(2) + one
  // fsync for the whole batch — when the journal's pending count reaches the record
  // threshold (or the byte threshold, a safety valve for oversized records), when
  // FlushJournals() is called, or when the store is destroyed. The record-count trigger
  // makes the number of durable commits (and therefore the fault-point count in the crash
  // sweep) a pure function of how many records each journal receives, independent of which
  // worker appended what when. A crash loses at most the current unflushed batch; the
  // resumed run re-executes exactly those tests, deterministically.
  bool AppendJournal(const std::string& name, const std::string& record);

  // Tunes the group-commit thresholds (records >= 1; records == 1 restores the old
  // one-fsync-per-record behavior). Applies to subsequent appends.
  void SetJournalBatch(size_t records, size_t bytes = 256 * 1024);

  // Durably writes every pending journal record (one group commit per journal with
  // pending records). Called at claim boundaries — the end of the explore stage — and by
  // the destructor. No-op (false) after an injected crash: a dead process writes nothing.
  bool FlushJournals();

  ~CheckpointStore();

  // Commits this journal's buffered records, then reads it back (ReadJournalFile).
  std::vector<std::string> ReadJournal(const std::string& name) const;

 private:
  struct Entry {
    uint64_t size = 0;
    uint64_t hash = 0;
  };
  struct PendingJournal {
    std::vector<std::string> lines;  // Checksummed, newline-free, ready to write.
    size_t bytes = 0;                // Sum of line sizes (newlines excluded).
  };

  std::string PathFor(const std::string& name) const;
  std::string ManifestText() const;  // Caller holds mutex_.
  bool WriteManifestLocked();        // Caller holds mutex_.
  // Group-commits journal `name`'s pending lines (no-op true when none). Caller holds
  // mutex_. Const because ReadJournal (const) must flush its own pending records before
  // reading the file back; it touches only the mutable pending_ map and the filesystem.
  bool FlushJournalLocked(const std::string& name) const;
  void LoadManifest();

  std::string dir_;
  FaultInjector* fault_ = nullptr;
  bool ok_ = false;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  // Ordered: the manifest is deterministic.
  // Journal group-commit state. `mutable` so ReadJournal (const) can flush its own
  // pending records before reading the file back.
  mutable std::map<std::string, PendingJournal> pending_;
  size_t journal_flush_records_ = 8;
  size_t journal_flush_bytes_ = 256 * 1024;
};

// The records of journal `name` in checkpoint directory `dir`, up to the first malformed
// or corrupt line; everything returned is verified and a missing journal reads as empty.
// Read-only: it opens no store, so it creates no directory and commits nothing, and a
// reader may poll a journal that a live campaign is appending to. An unterminated final
// line is a torn tail (a group commit in flight, or one a crash cut short) and is dropped
// silently; a complete line that fails its checksum warns.
std::vector<std::string> ReadJournalFile(const std::string& dir, const std::string& name);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_CHECKPOINT_H_
