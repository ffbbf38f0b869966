// Crash-safe checkpoint store for campaign state.
//
// The paper's campaigns run for days on preemptible fleet VMs, so a worker or coordinator
// loss must cost minutes of re-execution, not the campaign. A CheckpointStore keeps, in
// one directory, only what a resumed campaign cannot recompute (like rr, which records
// only what replay cannot recompute): the execution outcomes. A checkpoint is two files:
//   - `campaign`, the guard: the options fingerprint, written with one AtomicWriteFile
//     (src/util/fs.h write-temp-then-rename) and admitted only when it matches byte for
//     byte;
//   - `execute.<STRATEGY>.journal`, append-only, one checksummed line per executed test;
//     a crash can only truncate the final batch, which the reader drops.
// Everything else a campaign produces is a pure function of the fingerprinted options and
// the journal, so a resume recomputes it.
//
// Consistency argument (what makes resume byte-identical): Admit deletes the journals
// before it writes a new guard, so a crash anywhere in admission never leaves a new guard
// beside an older campaign's journal; a journal is only ever replayed under the guard of
// the options that wrote it. Replaying a journaled outcome is byte-equivalent to
// re-running its (deterministic, snapshot-isolated) test.
#ifndef SRC_SNOWBOARD_CHECKPOINT_H_
#define SRC_SNOWBOARD_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace snowboard {

class FaultInjector;

class CheckpointStore {
 public:
  // Opens the directory, creating it if needed. `fault` is threaded into every write for
  // the crash-sweep harness.
  explicit CheckpointStore(const std::string& dir, FaultInjector* fault = nullptr);

  bool ok() const { return ok_; }

  // Journal names must be non-empty and use only [A-Za-z0-9._-] (they become file names).
  static bool ValidName(const std::string& name);

  // Admission of a campaign with options fingerprint `fingerprint` and strategy token
  // `strategy`. With `resume` and a `campaign` guard equal to this campaign's byte for
  // byte, the journals stay for replay. Otherwise (a fresh run, no guard, or a guard of
  // other options) every journal is deleted and then the guard is written. Either way, the
  // files that older layouts kept here (MANIFEST, the prep-stage entries and
  // result.<strategy>, and their .tmp leftovers) are deleted by name; no other file in the
  // directory is touched.
  void Admit(uint64_t fingerprint, const std::string& strategy, bool resume);

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

  // Sets the group-commit record threshold (>= 1; 1 commits every record on its own).
  // Applies to subsequent appends.
  void SetJournalBatch(size_t records);

  // Durably writes every pending journal record (one group commit per journal with
  // pending records). Called at claim boundaries — the end of the explore stage — and by
  // the destructor. No-op (false) after an injected crash: a dead process writes nothing.
  bool FlushJournals();

  ~CheckpointStore();

  // Commits this journal's buffered records, then reads it back (ReadJournalFile).
  std::vector<std::string> ReadJournal(const std::string& name) const;

 private:
  struct PendingJournal {
    std::vector<std::string> lines;  // Checksummed, newline-free, ready to write.
    size_t bytes = 0;                // Sum of line sizes (newlines excluded).
  };

  // Group-commits journal `name`'s pending lines (no-op true when none). Caller holds
  // mutex_. Const because ReadJournal (const) must flush its own pending records before
  // reading the file back; it touches only the mutable pending_ map and the filesystem.
  bool FlushJournalLocked(const std::string& name) const;

  std::string dir_;
  FaultInjector* fault_ = nullptr;
  bool ok_ = false;
  mutable std::mutex mutex_;
  // Journal group-commit state. `mutable` so ReadJournal (const) can flush its own
  // pending records before reading the file back.
  mutable std::map<std::string, PendingJournal> pending_;
  size_t journal_flush_records_ = 8;
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
