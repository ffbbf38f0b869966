#include "src/snowboard/serialize.h"

#include <cstdint>
#include <sstream>

#include "src/snowboard/pipeline.h"
#include "src/util/fs.h"
#include "src/util/hash.h"
#include "src/util/strings.h"

namespace snowboard {

namespace {

constexpr const char* kCorpusHeader = "snowboard-corpus-v1";
constexpr const char* kPmcHeader = "snowboard-pmcs-v1";
constexpr const char* kFindingsHeader = "snowboard-findings-v3"; // v3: finding kind.
constexpr const char* kResultHeader = "snowboard-result-v3";     // v3: prune funnel.
constexpr const char* kReplayTokenHeader = "sb-replay-v1";
// v5: the flat per-test record. Earlier journal records began with a bare test index, so
// they fail on this first field.
constexpr const char* kOutcomeRecordTag = "sb-outcome-v6";

// Tokens embed a schedule plus two hex programs; anything past this is not a token.
constexpr size_t kMaxReplayTokenLength = (1 << 20) + 65536;

// Empty byte strings serialize as "-" so every field stays a non-empty token.
constexpr const char* kEmptyToken = "-";

std::string HexToken(const std::string& bytes) {
  return bytes.empty() ? kEmptyToken : HexEncode(bytes);
}

std::optional<std::string> DecodeHexToken(const std::string& token) {
  if (token == kEmptyToken) {
    return std::string();
  }
  return HexDecode(token);
}

// Parses one "call <nr> <kind>:<value>..." body line into `call`.
bool ParseCallLine(std::istringstream& fields, Call* call) {
  fields >> call->nr;
  if (fields.fail() || call->nr >= kNumSyscalls) {
    return false;
  }
  std::string arg_text;
  int index = 0;
  while (index < kMaxSyscallArgs && fields >> arg_text) {
    size_t colon = arg_text.find(':');
    if (colon != 1 || (arg_text[0] != 'c' && arg_text[0] != 'r')) {
      return false;
    }
    Arg arg;
    arg.kind = arg_text[0] == 'r' ? Arg::kResult : Arg::kConst;
    try {
      arg.value = std::stoll(arg_text.substr(colon + 1));
    } catch (...) {
      return false;
    }
    call->args[index++] = arg;
  }
  return true;
}

void SerializePmcSide(std::ostream& os, const PmcSide& side) {
  os << side.addr << ' ' << static_cast<uint32_t>(side.len) << ' ' << side.site << ' '
     << side.value;
}

// Parses one PMC side; `min_len` is 0 for hint keys (baselines carry an empty hint).
bool ParsePmcSide(std::istringstream& fields, uint32_t min_len, PmcSide* side) {
  uint64_t addr = 0;
  uint32_t len = 0;
  fields >> addr >> len >> side->site >> side->value;
  if (fields.fail() || addr > UINT32_MAX || len < min_len || len > 8) {
    return false;
  }
  side->addr = static_cast<GuestAddr>(addr);
  side->len = static_cast<uint8_t>(len);
  return true;
}

// Strict 16-lowercase-hex-digit parse (fingerprints, checksums).
bool ParseHex16(const std::string& hex, uint64_t* value) {
  if (hex.size() != 16) {
    return false;
  }
  uint64_t v = 0;
  for (char c : hex) {
    int nibble;
    if (c >= '0' && c <= '9') {
      nibble = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nibble = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(nibble);
  }
  *value = v;
  return true;
}

std::string Hex16(uint64_t value) {
  return StrPrintf("%016llx", static_cast<unsigned long long>(value));
}

// One finding's fields, shared by findings logs and execute-journal records: "<issue_id>
// <test_index> <trial> <duplicate> <kind> <evidence-hex|-> <token-hex|->".
void WriteFinding(std::ostream& os, const Finding& finding) {
  os << finding.issue_id << ' ' << finding.test_index << ' ' << finding.trial << ' '
     << (finding.duplicate_input ? 1 : 0) << ' ' << static_cast<int>(finding.kind) << ' '
     << HexToken(finding.evidence) << ' ' << HexToken(finding.replay_token);
}

// Reads the fields WriteFinding writes; false on a missing, malformed, or out-of-range one.
bool ReadFinding(std::istream& fields, Finding* finding) {
  int64_t issue_id = 0;
  int64_t test_index = 0;
  int64_t trial = 0;
  int64_t duplicate = 0;
  int64_t kind = 0;
  std::string evidence_hex;
  std::string replay_hex;
  fields >> issue_id >> test_index >> trial >> duplicate >> kind >> evidence_hex >>
      replay_hex;
  if (fields.fail() || test_index < 0 || duplicate < 0 || duplicate > 1 || kind < 0 ||
      kind > 5) {
    return false;
  }
  std::optional<std::string> evidence = DecodeHexToken(evidence_hex);
  std::optional<std::string> replay_token = DecodeHexToken(replay_hex);
  if (!evidence.has_value() || !replay_token.has_value()) {
    return false;
  }
  finding->issue_id = static_cast<int>(issue_id);
  finding->kind = static_cast<FindingKind>(kind);
  finding->test_index = static_cast<size_t>(test_index);
  finding->trial = static_cast<int>(trial);
  finding->duplicate_input = duplicate == 1;
  finding->evidence = std::move(*evidence);
  finding->replay_token = std::move(*replay_token);
  return true;
}

}  // namespace

std::string HexEncode(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xf]);
  }
  return hex;
}

std::optional<std::string> HexDecode(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return std::nullopt;
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string bytes;
  bytes.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return std::nullopt;
    }
    bytes.push_back(static_cast<char>((hi << 4) | lo));
  }
  return bytes;
}

std::string SerializeProgram(const Program& program) {
  std::ostringstream os;
  for (const Call& call : program.calls) {
    os << "call " << call.nr;
    for (const Arg& arg : call.args) {
      os << " " << (arg.kind == Arg::kResult ? 'r' : 'c') << ':' << arg.value;
    }
    os << "\n";
  }
  os << "end\n";
  return os.str();
}

std::optional<Program> DeserializeProgram(const std::string& text) {
  std::optional<std::vector<Program>> corpus =
      DeserializeCorpus(std::string(kCorpusHeader) + "\n" + text);
  if (!corpus.has_value() || corpus->size() != 1) {
    return std::nullopt;
  }
  return (*corpus)[0];
}

std::string SerializeCorpus(const std::vector<Program>& corpus) {
  std::ostringstream os;
  os << kCorpusHeader << "\n";
  for (const Program& program : corpus) {
    os << SerializeProgram(program);
  }
  return os.str();
}

std::optional<std::vector<Program>> DeserializeCorpus(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kCorpusHeader) {
    return std::nullopt;
  }
  std::vector<Program> corpus;
  Program current;
  bool open = false;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "end") {
      corpus.push_back(current);
      current = Program();
      open = false;
      continue;
    }
    if (tag != "call") {
      return std::nullopt;
    }
    Call call;
    if (!ParseCallLine(fields, &call)) {
      return std::nullopt;
    }
    if (current.calls.size() >= kMaxCallsPerProgram) {
      return std::nullopt;
    }
    current.calls.push_back(call);
    open = true;
  }
  if (open) {
    return std::nullopt;  // Truncated: a program without its "end".
  }
  return corpus;
}

std::string SerializePmcs(const std::vector<Pmc>& pmcs) {
  std::ostringstream os;
  os << kPmcHeader << "\n";
  for (const Pmc& pmc : pmcs) {
    const PmcKey& k = pmc.key;
    os << "pmc ";
    SerializePmcSide(os, k.write);
    os << ' ';
    SerializePmcSide(os, k.read);
    os << ' ' << (k.df_leader ? 1 : 0) << ' ' << pmc.total_pairs << ' ' << pmc.pairs.size();
    for (const PmcTestPair& pair : pmc.pairs) {
      os << ' ' << pair.write_test << ' ' << pair.read_test;
    }
    os << "\n";
  }
  return os.str();
}

std::optional<std::vector<Pmc>> DeserializePmcs(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kPmcHeader) {
    return std::nullopt;
  }
  std::vector<Pmc> pmcs;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag != "pmc") {
      return std::nullopt;
    }
    Pmc pmc;
    uint32_t df = 0;
    size_t pair_count = 0;
    if (!ParsePmcSide(fields, /*min_len=*/1, &pmc.key.write) ||
        !ParsePmcSide(fields, /*min_len=*/1, &pmc.key.read)) {
      return std::nullopt;
    }
    fields >> df >> pmc.total_pairs >> pair_count;
    if (fields.fail() || pair_count > kMaxPairsPerPmc) {
      return std::nullopt;
    }
    pmc.key.df_leader = df != 0;
    for (size_t i = 0; i < pair_count; i++) {
      PmcTestPair pair;
      fields >> pair.write_test >> pair.read_test;
      if (fields.fail()) {
        return std::nullopt;
      }
      pmc.pairs.push_back(pair);
    }
    pmcs.push_back(std::move(pmc));
  }
  return pmcs;
}

std::string EncodeOutcomeRecord(const OutcomeRecord& record) {
  std::ostringstream os;
  os << kOutcomeRecordTag << ' ' << record.test_index << ' ' << record.trials_run << ' '
     << record.trials_pruned << ' ' << (record.saturated ? 1 : 0) << ' '
     << record.switch_decisions << ' ' << (record.bug_found ? 1 : 0) << ' '
     << (record.channel_exercised ? 1 : 0) << ' '
     << record.schedule_switches_orig << ' ' << record.schedule_switches_min << ' '
     << record.findings.total_findings() << ' ' << record.findings.first_findings().size();
  for (const auto& [issue_id, finding] : record.findings.first_findings()) {
    os << ' ';
    WriteFinding(os, finding);
  }
  // The terminator makes every strict prefix fail, even one cut inside the last hex field.
  os << " end";
  return os.str();
}

std::optional<OutcomeRecord> DecodeOutcomeRecord(const std::string& record) {
  std::istringstream fields(record);
  std::string tag;
  fields >> tag;
  if (tag != kOutcomeRecordTag) {
    return std::nullopt;
  }
  // Numbers parse signed and bounded, so a negative count is rejected rather than wrapped.
  bool ok = true;
  auto read = [&](int64_t max) {
    int64_t value = -1;
    fields >> value;
    ok = ok && !fields.fail() && value >= 0 && value <= max;
    return value;
  };
  constexpr int64_t kAny = INT64_MAX;
  constexpr int64_t kInt = INT32_MAX;
  OutcomeRecord out;
  out.test_index = static_cast<size_t>(read(kAny));
  out.trials_run = static_cast<int>(read(kInt));
  out.trials_pruned = static_cast<int>(read(kInt));
  out.saturated = read(1) == 1;
  out.switch_decisions = static_cast<uint64_t>(read(kAny));
  out.bug_found = read(1) == 1;
  out.channel_exercised = read(1) == 1;
  out.schedule_switches_orig = static_cast<uint64_t>(read(kAny));
  out.schedule_switches_min = static_cast<uint64_t>(read(kAny));
  const int64_t total = read(kAny);
  const int64_t entries = read(total);
  if (!ok) {
    return std::nullopt;
  }
  std::map<int, Finding> first_findings;
  for (int64_t i = 0; i < entries; i++) {
    Finding finding;
    if (!ReadFinding(fields, &finding) || finding.test_index != out.test_index ||
        !first_findings.emplace(finding.issue_id, std::move(finding)).second) {
      return std::nullopt;  // Malformed, another test's, or a duplicate issue id.
    }
  }
  std::string end;
  std::string extra;
  fields >> end;
  if (fields.fail() || end != "end" || (fields >> extra)) {
    return std::nullopt;
  }
  out.findings.Restore(first_findings, static_cast<size_t>(total));
  return out;
}

std::string SerializeFindings(const FindingsLog& findings) {
  std::ostringstream os;
  os << kFindingsHeader << "\n";
  os << "total " << findings.total_findings() << "\n";
  os << "entries " << findings.first_findings().size() << "\n";
  for (const auto& [issue_id, finding] : findings.first_findings()) {
    os << "f ";
    WriteFinding(os, finding);
    os << "\n";
  }
  os << "endfindings\n";
  return os.str();
}

std::string SerializePipelineResult(const PipelineResult& result) {
  std::ostringstream os;
  os << kResultHeader << "\n";
  os << "corpus_size " << result.corpus_size << "\n";
  os << "profiled_ok " << result.profiled_ok << "\n";
  os << "shared_accesses " << result.shared_accesses << "\n";
  os << "pmc_count " << result.pmc_count << "\n";
  os << "total_pmc_pairs " << result.total_pmc_pairs << "\n";
  os << "cluster_count " << result.cluster_count << "\n";
  os << "tests_generated " << result.tests_generated << "\n";
  os << "tests_executed " << result.tests_executed << "\n";
  os << "tests_with_bug " << result.tests_with_bug << "\n";
  os << "channel_exercised " << result.channel_exercised << "\n";
  os << "total_trials " << result.total_trials << "\n";
  os << "trials_pruned " << result.trials_pruned << "\n";
  os << "tests_saturated " << result.tests_saturated << "\n";
  os << "switch_decisions " << result.switch_decisions << "\n";
  os << "schedule_switches_orig " << result.schedule_switches_orig << "\n";
  os << "schedule_switches_min " << result.schedule_switches_min << "\n";
  os << "pmc_digest " << Hex16(result.pmc_table_digest) << "\n";
  os << SerializeFindings(result.findings);
  os << "endresult\n";
  return os.str();
}

std::string FormatReplayToken(const ReplayToken& token) {
  std::ostringstream os;
  os << kReplayTokenHeader << ' ' << token.issue_id << ' ' << token.write_test << ' '
     << token.read_test << ' ' << token.trial_seed << ' ' << token.max_instructions << ' '
     << Hex16(token.fingerprint) << ' ';
  std::string sched = token.schedule.ToString();
  os << (sched.empty() ? kEmptyToken : sched) << ' ';
  SerializePmcSide(os, token.hint.write);
  os << ' ';
  SerializePmcSide(os, token.hint.read);
  os << ' ' << (token.hint.df_leader ? 1 : 0) << ' '
     << HexEncode(SerializeProgram(token.writer)) << ' '
     << HexEncode(SerializeProgram(token.reader));
  std::string body = os.str();
  // The trailing checksum covers the literal body text, so any in-flight corruption of a
  // pasted token is caught before a replay is attempted.
  return body + ' ' + Hex16(Fnv1a(body));
}

std::optional<ReplayToken> ParseReplayToken(const std::string& text) {
  if (text.empty() || text.size() > kMaxReplayTokenLength) {
    return std::nullopt;
  }
  size_t crc_pos = text.find_last_of(' ');
  if (crc_pos == std::string::npos) {
    return std::nullopt;
  }
  std::string body = text.substr(0, crc_pos);
  uint64_t crc = 0;
  if (!ParseHex16(text.substr(crc_pos + 1), &crc) || crc != Fnv1a(body)) {
    return std::nullopt;
  }

  std::istringstream fields(body);
  std::string header;
  fields >> header;
  if (header != kReplayTokenHeader) {
    return std::nullopt;
  }
  ReplayToken token;
  fields >> token.issue_id >> token.write_test >> token.read_test >> token.trial_seed >>
      token.max_instructions;
  std::string fp_hex;
  std::string sched;
  fields >> fp_hex >> sched;
  if (fields.fail() || token.issue_id < 0 || !ParseHex16(fp_hex, &token.fingerprint)) {
    return std::nullopt;
  }
  if (sched != kEmptyToken) {
    std::optional<RecordedSchedule> schedule = RecordedSchedule::FromString(sched);
    if (!schedule.has_value()) {
      return std::nullopt;
    }
    token.schedule = std::move(*schedule);
  }
  uint32_t df = 0;
  if (!ParsePmcSide(fields, /*min_len=*/0, &token.hint.write) ||
      !ParsePmcSide(fields, /*min_len=*/0, &token.hint.read)) {
    return std::nullopt;
  }
  fields >> df;
  if (fields.fail() || df > 1) {
    return std::nullopt;
  }
  token.hint.df_leader = df == 1;
  std::string writer_hex;
  std::string reader_hex;
  fields >> writer_hex >> reader_hex;
  std::string extra;
  if (fields.fail() || (fields >> extra)) {
    return std::nullopt;
  }
  std::optional<std::string> writer_text = HexDecode(writer_hex);
  std::optional<std::string> reader_text = HexDecode(reader_hex);
  if (!writer_text.has_value() || !reader_text.has_value()) {
    return std::nullopt;
  }
  std::optional<Program> writer = DeserializeProgram(*writer_text);
  std::optional<Program> reader = DeserializeProgram(*reader_text);
  if (!writer.has_value() || !reader.has_value()) {
    return std::nullopt;
  }
  token.writer = std::move(*writer);
  token.reader = std::move(*reader);
  return token;
}

bool WriteStringToFile(const std::string& path, const std::string& contents) {
  return AtomicWriteFile(path, contents);
}

std::optional<std::string> ReadFileToString(const std::string& path) {
  return ReadFileContents(path);
}

}  // namespace snowboard
