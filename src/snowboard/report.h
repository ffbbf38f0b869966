// Findings triage and the Table 2 issue catalog.
//
// The paper's raw detector output (race reports + console hits) required ~80 person-hours
// of manual inspection to map to the 17 issues of Table 2. Our substitute is a deterministic
// triage table: each seeded issue is recognized by the kernel functions its accesses live in
// (for races) or by its console signature (for AV/OV oracles). Detector findings that match
// no catalog entry are reported as "unclassified" — the analog of the >100 inspected-and-
// discarded reports.
#ifndef SRC_SNOWBOARD_REPORT_H_
#define SRC_SNOWBOARD_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "src/snowboard/detectors.h"

namespace snowboard {

enum class IssueType {
  kDataRace,
  kAtomicityViolation,
  kOrderViolation,
  kDeadlock,
  kLostWakeup,
  kLivelock,
};

const char* IssueTypeName(IssueType type);  // "DR" / "AV" / "OV" / "DL" / "LW" / "LL".

struct IssueInfo {
  int id = 0;  // Table 2 numbering.
  const char* summary = "";
  IssueType type = IssueType::kDataRace;
  const char* subsystem = "";
  bool harmful = false;  // Bold rows of Table 2.
  bool benign = false;   // #10, #13, #16.
};

// The seeded issues: the paper's 17 (Table 2 ids 1-17) plus the deadlock/lost-wakeup/
// livelock tier (18-22), ordered by id.
const std::vector<IssueInfo>& IssueCatalog();
const IssueInfo* FindIssue(int id);

// Classification: catalog issue id, or 0 when unclassified. The deadlock/lost-wakeup/
// livelock classifiers read the witness sites' function names, same discipline as
// ClassifyRace.
int ClassifyRace(const RaceReport& race);
int ClassifyConsoleLine(const std::string& line);
int ClassifyDeadlock(const DeadlockReport& deadlock);
int ClassifyLostWakeup(const LostWakeupReport& lost);
int ClassifyLivelock(const LivelockReport& livelock);

// A triaged finding attributed to a tested input.
struct Finding {
  int issue_id = 0;  // 0 = unclassified.
  FindingKind kind = FindingKind::kRace;  // Which detector produced it.
  std::string evidence;
  size_t test_index = 0;  // How many concurrent tests had been executed when it fired.
  int trial = -1;
  bool duplicate_input = false;  // writer test == reader test ("Duplicate" in Table 2).
  // Self-contained single-line reproducer (FormatReplayToken, serialize.h): feed it to
  // `snowboard_cli replay` to deterministically re-trigger the finding. Empty when the
  // explorer ran with schedule capture disabled or no capture matched.
  std::string replay_token;
};

// Aggregates findings across a testing campaign: first discovery per issue id.
class FindingsLog {
 public:
  void Record(const Finding& finding);
  void Merge(const FindingsLog& other);

  // Replaces the log's contents with deserialized parts (checkpoint restore). The
  // first-per-issue invariant is the caller's responsibility — serialization preserves it.
  void Restore(const std::map<int, Finding>& first_findings, size_t total);

  // issue id -> first finding (unclassified findings keyed as 0, first only).
  const std::map<int, Finding>& first_findings() const { return first_findings_; }
  size_t total_findings() const { return total_; }
  bool Found(int issue_id) const { return first_findings_.count(issue_id) != 0; }

  // Human-readable multi-line summary in Table 2 style.
  std::string Summarize() const;

 private:
  std::map<int, Finding> first_findings_;
  size_t total_ = 0;
};

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_REPORT_H_
