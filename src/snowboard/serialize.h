// Persistence for pipeline artifacts.
//
// The paper's deployment stores intermediate artifacts between stages (a fuzzing job's
// corpus feeds a separate identification job, whose PMC database — S-FULL's keys are
// "stored on disk and sorted by frequency" — feeds the test workers). These helpers give
// the same staged workflow (snowboard_cli corpus/identify/run): corpora and PMC sets
// round-trip through a line-oriented text format that is stable, diffable, and versioned.
// So do the per-test execute-journal records a crash-safe campaign checkpoints and the
// replay tokens findings carry. The final pipeline result (with its findings log) is only
// written: the goldens and the crash sweeps compare its text.
//
// Robustness contract shared by every Deserialize*: a wrong or flipped version header,
// truncation at ANY line boundary, or junk bytes yield nullopt — never a crash, and never
// a silently half-loaded artifact (container formats carry element counts so a clean cut
// after a complete element is still detected). This is what lets the checkpoint layer
// treat "parses" as "complete".
#ifndef SRC_SNOWBOARD_SERIALIZE_H_
#define SRC_SNOWBOARD_SERIALIZE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/fuzz/program.h"
#include "src/snowboard/explorer.h"
#include "src/snowboard/pmc.h"
#include "src/snowboard/replay.h"
#include "src/snowboard/report.h"

namespace snowboard {

struct PipelineResult;  // pipeline.h; not included to avoid a cycle.

// --- Programs / corpora. ---
// One call per line: "call <nr> <kind>:<value> ..." (kind: c = const, r = result-ref);
// programs separated by "end". The container starts with a version header.

std::string SerializeProgram(const Program& program);
std::optional<Program> DeserializeProgram(const std::string& text);

std::string SerializeCorpus(const std::vector<Program>& corpus);
std::optional<std::vector<Program>> DeserializeCorpus(const std::string& text);

// --- PMC sets. ---
// One PMC per line: "pmc <waddr> <wlen> <wsite> <wvalue> <raddr> <rlen> <rsite> <rvalue>
// <df> <total_pairs> <pair_count> [<wtest> <rtest>]...".

std::string SerializePmcs(const std::vector<Pmc>& pmcs);
std::optional<std::vector<Pmc>> DeserializePmcs(const std::string& text);

// --- Execute-journal records (one per executed test; what resume replays). ---
// A record holds exactly what the campaign's outcome fold reads: the per-test counters and
// the test's classified findings log. Classification and evidence rendering need the
// in-process site-name registry, which a cold resumed process lacks for tests it never
// re-executes — so the record stores the classified findings and replay never
// re-classifies. Everything else the explorer returns (raw reports, captures) dies with
// the test.
// Format, one line: "sb-outcome-v6 <test_index> <trials_run> <trials_pruned> <saturated>
// <switch_decisions> <bug_found> <channel_exercised> <schedule_switches_orig>
// <schedule_switches_min> <total> <entries>" then `entries` findings, each "<issue_id>
// <test_index> <trial> <duplicate> <kind> <evidence-hex|-> <token-hex|->"
// (SerializeFindings' fields), then "end". Each finding's test index must be the
// record's, and issue ids must be distinct.
struct OutcomeRecord {
  size_t test_index = 0;
  int trials_run = 0;
  int trials_pruned = 0;
  bool saturated = false;
  uint64_t switch_decisions = 0;
  bool bug_found = false;
  bool channel_exercised = false;
  uint64_t schedule_switches_orig = 0;  // Summed over the test's trial captures.
  uint64_t schedule_switches_min = 0;
  FindingsLog findings;  // The first finding per issue id, plus the test's total count.
};

std::string EncodeOutcomeRecord(const OutcomeRecord& record);
std::optional<OutcomeRecord> DecodeOutcomeRecord(const std::string& record);

// --- Findings logs. ---

std::string SerializeFindings(const FindingsLog& findings);

// --- Pipeline results. ---
// Deterministic campaign outputs only — stage statistics, the PMC-table digest, and the
// full findings log. Wall-clock timings and resume bookkeeping (tests_resumed,
// trials_retried) are excluded on purpose: an uninterrupted campaign and one resumed from
// any crash point must serialize to byte-identical text, and the crash-sweep harness
// asserts equality on exactly this string. Nothing parses it back.

std::string SerializePipelineResult(const PipelineResult& result);

// --- Replay tokens (single-line shippable reproducers; see replay.h). ---
// Format: "sb-replay-v1 <issue_id> <write_test> <read_test> <trial_seed>
// <max_instructions> <fingerprint-16hex> <schedule|-> <hint: waddr wlen wsite wvalue
// raddr rlen rsite rvalue df> <writer-hex> <reader-hex> <crc-16hex>", one line, where the
// crc is FNV-1a over everything before it. ParseReplayToken follows the shared robustness
// contract — wrong header, bad checksum, junk fields, truncation, or oversized input all
// yield nullopt — because tokens cross trust boundaries (bug reports, checked-in corpora).

std::string FormatReplayToken(const ReplayToken& token);
std::optional<ReplayToken> ParseReplayToken(const std::string& text);

// --- Byte-string hex coding (console lines and evidence embed arbitrary bytes). ---

std::string HexEncode(const std::string& bytes);
std::optional<std::string> HexDecode(const std::string& hex);

// --- File helpers (thin wrappers; return false / nullopt on IO failure). ---
// WriteStringToFile is atomic: it commits via util/fs.h write-temp-then-rename, so a crash
// or failure never leaves a partially written file at `path`.
bool WriteStringToFile(const std::string& path, const std::string& contents);
std::optional<std::string> ReadFileToString(const std::string& path);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_SERIALIZE_H_
