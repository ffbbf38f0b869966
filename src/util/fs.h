// Crash-safe filesystem primitives.
//
// Checkpoints are only as good as their weakest write: a plain ofstream truncates the
// target first, so a crash mid-write leaves a torn file that a resumed process would
// half-load. Everything here follows the write-temp-then-rename discipline (the same one
// journaling filesystems and the paper's "stored on disk" artifacts rely on): after a
// crash — real, or injected through a FaultInjector for the crash-sweep harness — a path
// holds either its old contents or the new ones, never a mix. IO failures log errno
// context at kWarn and report false/nullopt; they never throw.
#ifndef SRC_UTIL_FS_H_
#define SRC_UTIL_FS_H_

#include <optional>
#include <string>
#include <vector>

namespace snowboard {

class FaultInjector;

// Creates `path` and any missing parents. True if the directory exists afterwards.
bool EnsureDirectory(const std::string& path);

// Atomically replaces `path`: writes `path.tmp`, fsyncs it, renames it over `path`, and
// fsyncs the parent directory. Fault points "fs.commit" (before the rename — the `.tmp`
// is left behind, as a real crash would) and "fs.committed" (after — the new contents are
// durable but the "process" died before observing success). Returns true only when the
// contents are committed AND no injected crash fired.
bool AtomicWriteFile(const std::string& path, const std::string& contents,
                     FaultInjector* fault = nullptr);

// The journal primitive: durably appends every line (each plus '\n') in ONE write(2)
// followed by ONE fsync, amortizing the durability cost across the batch. A crash can
// truncate only the final batch, which the reader's per-line checksum rejects. Fault points
// "journal.append" / "journal.appended", fired once per batch: a crash at "journal.append"
// loses the whole batch (the file is untouched), a crash at "journal.appended" keeps it
// (the single O_APPEND write plus fsync made all lines durable together). Empty batch is a
// no-op true.
bool AppendLinesDurable(const std::string& path, const std::vector<std::string>& lines,
                        FaultInjector* fault = nullptr);

// Whole-file read; nullopt (with a kWarn log for errors other than ENOENT) on failure.
std::optional<std::string> ReadFileContents(const std::string& path);

// True if `path` exists (any file type).
bool PathExists(const std::string& path);

// Removes a file if present; true when the path does not exist afterwards.
bool RemoveFileIfExists(const std::string& path);

}  // namespace snowboard

#endif  // SRC_UTIL_FS_H_
