// snowboard_cli — drive the pipeline from the command line, stage by stage or end to end.
//
// The stages mirror the paper's deployment (Figure 2): a fuzzing job builds a corpus; an
// identification job profiles it and emits the PMC database; test workers consume generated
// concurrent tests. Artifacts travel through the serialize.h text formats, so stages can run
// in separate invocations (or be inspected/edited in between).
//
// Run `snowboard_cli --help` for the full command and flag reference; the usage text below
// is generated from the same per-command flag tables that argument validation uses
// (tools/flags.h), so the two cannot drift apart. Any unknown command, unknown flag, stray
// positional argument, or integer flag value that is not a decimal number in range exits
// with status 2.
//
// Crash safety: with --checkpoint-dir, execution journals per-test outcomes; after a crash
// (real or injected), rerunning with --resume recomputes the deterministic prep stages,
// replays the journal, and runs only the tests it lacks, yielding the identical result.
// --inject-faults N kills the campaign with probability 1/N at each fault point (N=1: die
// at the very first one); an injected death exits with status 42.
//
// Observability: --trace-out FILE (run/campaign) records a Chrome trace_event JSON stream
// (open in about:tracing or https://ui.perfetto.dev); --report-dir DIR (campaign) writes
// report.json + report.html summarizing the funnel, stage timings, and findings.
#include <cstdio>
#include <cstring>
#include <string>

#include "src/snowboard/detectors.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/report_html.h"
#include "src/snowboard/report_sarif.h"
#include "src/snowboard/serialize.h"
#include "src/snowboard/serve.h"
#include "src/util/fault.h"
#include "src/util/fs.h"
#include "src/util/log.h"
#include "src/util/strings.h"
#include "src/util/trace.h"
#include "tools/flags.h"

namespace snowboard {
namespace {

constexpr FlagInfo kCorpusFlags[] = {
    {"out", "FILE", "where to write the corpus (required)"},
    {"size", "N", "target corpus size (default 80)"},
    {"iters", "N", "fuzzing iterations (default 300)"},
    {"seed", "S", "fuzzing seed (default 42)"},
};

constexpr FlagInfo kIdentifyFlags[] = {
    {"corpus", "FILE", "corpus file from `corpus` (required)"},
    {"out", "FILE", "where to write the PMC database (required)"},
};

constexpr FlagInfo kRunFlags[] = {
    {"corpus", "FILE", "corpus file from `corpus` (required)"},
    {"pmcs", "FILE", "PMC database from `identify` (required)"},
    {"strategy", "NAME", "clustering strategy (default S-INS-PAIR; see `strategies`)"},
    {"budget", "N", "max concurrent tests to generate (default 300)"},
    {"trials", "N", "trials per concurrent test (default 24)"},
    {"workers", "N", "execution worker threads (default 4)"},
    {"seed", "S", "selection/exploration seed (default 1)"},
    {"detectors", "LIST", "comma-separated detector set: console,race,deadlock,"
                          "lost-wakeup,livelock,all (default all)"},
    {"prune", nullptr, "enable schedule-equivalence pruning (off by default for run)"},
    {"trace-out", "FILE", "write a Chrome trace_event JSON of the run"},
};

constexpr FlagInfo kCampaignFlags[] = {
    {"strategy", "NAME", "clustering strategy (default S-INS-PAIR; see `strategies`)"},
    {"budget", "N", "max concurrent tests to generate (default 300)"},
    {"trials", "N", "trials per concurrent test (default 24)"},
    {"workers", "N", "worker threads for every parallel stage (default 4)"},
    {"no-prune", nullptr, "disable schedule-equivalence pruning (on by default)"},
    {"prune-saturation", "K", "consecutive trials with no new edge before a test "
                              "saturates (default 1)"},
    {"seed", "S", "campaign seed (default 1)"},
    {"corpus-size", "N", "target corpus size (default 80)"},
    {"corpus-iters", "N", "fuzzing iterations (default 300)"},
    {"checkpoint-dir", "DIR", "journal per-test outcomes here, for --resume"},
    {"resume", nullptr, "resume from --checkpoint-dir instead of recomputing"},
    {"inject-faults", "[N]", "crash with chance 1/N at each fault point (bare: first)"},
    {"fault-seed", "S", "fault-injection seed (default 1)"},
    {"detectors", "LIST", "comma-separated detector set: console,race,deadlock,"
                          "lost-wakeup,livelock,all (default all)"},
    {"trace-out", "FILE", "write a Chrome trace_event JSON of the campaign"},
    {"report-dir", "DIR", "write report.json + report.html for the campaign"},
    {"sarif-out", "FILE", "write the findings as a SARIF 2.1.0 document"},
    {"tokens-dir", "DIR", "write each finding's replay token to DIR/issue-<id>.token"},
};

constexpr FlagInfo kReplayFlags[] = {
    {"token", "FILE", "read the replay token from FILE (alternative to the operand)"},
};

constexpr CommandInfo kCommands[] = {
    {"corpus", "fuzz a corpus of sequential tests", kCorpusFlags},
    {"identify", "profile a corpus and emit the PMC database", kIdentifyFlags},
    {"run", "cluster, select, and execute concurrent tests from saved artifacts", kRunFlags},
    {"campaign", "run the whole pipeline end to end", kCampaignFlags},
    {"replay", "re-execute a finding's replay token and verify its fingerprint",
     kReplayFlags},
    {"strategies", "list the clustering strategies", {}},
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out, "usage: snowboard_cli <command> [--flag value]...\n");
  std::fprintf(out, "       snowboard_cli replay <token-or-file>\n");
  std::fprintf(out, "       snowboard_cli --help\n\ncommands:\n");
  PrintCommands(out, kCommands, 11);
  std::fprintf(out,
               "\nexit status: 0 success; 1 I/O or input error; 2 usage error; "
               "3 replay fingerprint divergence; 42 injected crash (rerun with "
               "--resume).\n");
}

// RAII tracing session bound to --trace-out: starts the tracer when a path is given and
// writes the merged trace on the way out (normal return, error, or injected crash alike).
class TraceSession {
 public:
  explicit TraceSession(const char* path) : path_(path == nullptr ? "" : path) {
    if (!path_.empty()) {
      Tracer::Global().Start();
    }
  }
  ~TraceSession() {
    if (path_.empty()) {
      return;
    }
    Tracer::Global().Stop();
    if (!Tracer::Global().WriteChromeTrace(path_)) {
      std::fprintf(stderr, "warning: cannot write trace to %s\n", path_.c_str());
    } else {
      std::printf("trace written to %s\n", path_.c_str());
    }
  }

 private:
  std::string path_;
};

int CmdStrategies() {
  for (Strategy strategy : kAllStrategies) {
    std::printf("%-20s %s\n", StrategyToken(strategy),
                StrategyUsesPmcs(strategy) ? "(PMC clustering)" : "(baseline)");
  }
  return 0;
}

int CmdCorpus(const Args& args) {
  const char* out = args.Get("out", nullptr);
  if (out == nullptr) {
    std::fprintf(stderr, "corpus: --out is required\n");
    return 2;
  }
  CorpusOptions options;
  if (!args.GetU64("seed", 42, &options.seed) ||
      !args.GetInt("size", 80, &options.target_size) ||
      !args.GetInt("iters", 300, &options.max_iterations)) {
    return 2;
  }
  if (const char* low = options.target_size < 1      ? "--size"
                        : options.max_iterations < 1 ? "--iters"
                                                     : nullptr) {
    std::fprintf(stderr, "corpus: %s must be >= 1\n", low);
    return 2;
  }
  KernelVm vm;
  std::vector<Program> corpus = CorpusPrograms(BuildCorpus(vm, options));
  if (!WriteStringToFile(out, SerializeCorpus(corpus))) {
    std::fprintf(stderr, "corpus: cannot write %s\n", out);
    return 1;
  }
  std::printf("wrote %zu sequential tests to %s\n", corpus.size(), out);
  return 0;
}

int CmdIdentify(const Args& args) {
  const char* corpus_path = args.Get("corpus", nullptr);
  const char* out = args.Get("out", nullptr);
  if (corpus_path == nullptr || out == nullptr) {
    std::fprintf(stderr, "identify: --corpus and --out are required\n");
    return 2;
  }
  std::optional<std::string> text = ReadFileToString(corpus_path);
  if (!text.has_value()) {
    std::fprintf(stderr, "identify: cannot read %s\n", corpus_path);
    return 1;
  }
  std::optional<std::vector<Program>> corpus = DeserializeCorpus(*text);
  if (!corpus.has_value()) {
    std::fprintf(stderr, "identify: %s is not a corpus file\n", corpus_path);
    return 1;
  }
  KernelVm vm;
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, *corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  if (!WriteStringToFile(out, SerializePmcs(pmcs))) {
    std::fprintf(stderr, "identify: cannot write %s\n", out);
    return 1;
  }
  uint64_t pairs = 0;
  for (const Pmc& pmc : pmcs) {
    pairs += pmc.total_pairs;
  }
  std::printf("profiled %zu tests; wrote %zu PMCs (%llu test pairs) to %s\n",
              corpus->size(), pmcs.size(), static_cast<unsigned long long>(pairs), out);
  return 0;
}

// Applies --detectors to `options`; false (after a usage message) on an unknown name.
// Absent flag keeps the default mask (all detectors).
bool ApplyDetectorsFlag(const Args& args, const char* cmd, PipelineOptions* options) {
  const char* list = args.Get("detectors", nullptr);
  if (list == nullptr) {
    return true;
  }
  uint32_t mask = 0;
  if (!ParseDetectorMask(list, &mask)) {
    std::fprintf(stderr,
                 "%s: bad --detectors list %s (names: console,race,deadlock,lost-wakeup,"
                 "livelock,all)\n",
                 cmd, list);
    return false;
  }
  options->explorer.detectors = mask;
  return true;
}

void PrintResult(const PipelineResult& result) {
  std::printf("tests executed: %zu (%llu trials); with findings: %zu; channel exercised: "
              "%zu\n",
              result.tests_executed, static_cast<unsigned long long>(result.total_trials),
              result.tests_with_bug, result.channel_exercised);
  if (result.trials_pruned > 0 || result.tests_saturated > 0) {
    std::printf("pruning: %llu trials pruned (no new edge); %zu tests saturated\n",
                static_cast<unsigned long long>(result.trials_pruned),
                result.tests_saturated);
  }
  std::printf("findings:\n%s", result.findings.Summarize().c_str());
}

int CmdRun(const Args& args) {
  const char* corpus_path = args.Get("corpus", nullptr);
  const char* pmcs_path = args.Get("pmcs", nullptr);
  if (corpus_path == nullptr || pmcs_path == nullptr) {
    std::fprintf(stderr, "run: --corpus and --pmcs are required\n");
    return 2;
  }
  // Usage errors before I/O errors: a bad strategy name is status 2 even if the input
  // files are also unreadable.
  Strategy strategy = Strategy::kSInsPair;
  if (!StrategyFromName(args.Get("strategy", "S-INS-PAIR"), &strategy)) {
    std::fprintf(stderr, "run: unknown strategy (see `snowboard_cli strategies`)\n");
    return 2;
  }
  PipelineOptions options;
  uint64_t budget = 0;
  if (!args.GetU64("seed", 1, &options.seed) || !args.GetU64("budget", 300, &budget) ||
      !args.GetInt("trials", 24, &options.explorer.num_trials) ||
      !args.GetInt("workers", 4, &options.num_workers) ||
      !ApplyDetectorsFlag(args, "run", &options)) {
    return 2;
  }
  // As the daemon's spec check, except that --workers below 1 means one worker.
  if (const char* low = options.explorer.num_trials < 1 ? "--trials"
                        : budget < 1                    ? "--budget"
                                                        : nullptr) {
    std::fprintf(stderr, "run: %s must be >= 1\n", low);
    return 2;
  }
  std::optional<std::string> corpus_text = ReadFileToString(corpus_path);
  std::optional<std::string> pmcs_text = ReadFileToString(pmcs_path);
  if (!corpus_text.has_value() || !pmcs_text.has_value()) {
    std::fprintf(stderr, "run: cannot read input files\n");
    return 1;
  }
  std::optional<std::vector<Program>> corpus = DeserializeCorpus(*corpus_text);
  std::optional<std::vector<Pmc>> pmcs = DeserializePmcs(*pmcs_text);
  if (!corpus.has_value() || !pmcs.has_value()) {
    std::fprintf(stderr, "run: malformed input files\n");
    return 1;
  }

  TraceSession trace(args.Get("trace-out", nullptr));
  PreparedCampaign campaign;
  campaign.corpus = *corpus;
  campaign.pmcs = *pmcs;
  options.strategy = strategy;
  options.max_concurrent_tests = static_cast<size_t>(budget);
  options.explorer.prune.enabled = args.Has("prune");

  size_t clusters = 0;
  std::vector<ConcurrentTest> tests = GenerateTestsForStrategy(campaign, options, &clusters);
  std::printf("%s: %zu clusters -> %zu concurrent tests\n", StrategyName(options.strategy),
              clusters, tests.size());
  PmcMatcher matcher(&campaign.pmcs);
  PipelineResult result;
  ExecuteCampaign(tests, StrategyUsesPmcs(options.strategy),
                  StrategyUsesPmcs(options.strategy) ? &matcher : nullptr, options, &result);
  PrintResult(result);
  return 0;
}

// `operand` is the positional argument of `snowboard_cli replay <token-or-file>`: a
// literal token when it starts with the token header, otherwise a path to a token file.
int CmdReplay(const Args& args, const char* operand) {
  const char* token_file = args.Get("token", nullptr);
  if ((operand == nullptr) == (token_file == nullptr)) {
    std::fprintf(stderr, "replay: provide exactly one of <token-or-file> or --token FILE\n");
    return 2;
  }
  std::string text;
  if (operand != nullptr && std::strncmp(operand, "sb-replay-", 10) == 0) {
    text = operand;
  } else {
    const char* path = operand != nullptr ? operand : token_file;
    std::optional<std::string> contents = ReadFileToString(path);
    if (!contents.has_value()) {
      std::fprintf(stderr, "replay: cannot read %s\n", path);
      return 1;
    }
    text = *contents;
  }
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r' ||
                           text.back() == ' ' || text.back() == '\t')) {
    text.pop_back();
  }
  std::optional<ReplayToken> token = ParseReplayToken(text);
  if (!token.has_value()) {
    std::fprintf(stderr, "replay: not a valid replay token (corrupt or truncated?)\n");
    return 2;
  }
  std::printf("replaying issue #%d (tests %d/%d, %zu recorded decisions, %zu switches)\n",
              token->issue_id, token->write_test, token->read_test,
              token->schedule.switch_after.size(), token->schedule.SwitchCount());
  KernelVm vm;
  ReplayVerdict verdict = ReplayTokenTrial(vm, *token);
  std::printf("detectors: %zu race(s), %zu console hit(s), %zu deadlock(s), "
              "%zu lost wakeup(s), %zu livelock(s)%s\n",
              verdict.detectors.races.size(), verdict.detectors.console_hits.size(),
              verdict.detectors.deadlocks.size(), verdict.detectors.lost_wakeups.size(),
              verdict.detectors.livelocks.size(),
              verdict.detectors.panicked ? ", panicked" : "");
  if (verdict.fingerprint_match) {
    std::printf("fingerprint %016llx matches: finding reproduced\n",
                static_cast<unsigned long long>(verdict.fingerprint));
    return 0;
  }
  std::fprintf(stderr, "replay: fingerprint DIVERGED: expected %016llx, observed %016llx\n",
               static_cast<unsigned long long>(token->fingerprint),
               static_cast<unsigned long long>(verdict.fingerprint));
  return 3;
}

int CmdCampaign(const Args& args) {
  // The flags populate a CampaignSpec and go through CampaignPipelineOptions — the SAME
  // spec→options mapping the fleet daemon (snowboard_serve) uses, which is what makes a
  // serve-run campaign's masked report byte-identical to this command's.
  CampaignSpec spec;
  spec.name = "cli";  // Only the daemon uses the name (as the campaign id/directory).
  if (!StrategyFromName(args.Get("strategy", "S-INS-PAIR"), &spec.strategy)) {
    std::fprintf(stderr, "campaign: unknown strategy (see `snowboard_cli strategies`)\n");
    return 2;
  }
  uint64_t budget = 0;
  if (!args.GetU64("seed", 1, &spec.seed) ||
      !args.GetInt("corpus-size", 80, &spec.corpus_size) ||
      !args.GetInt("corpus-iters", 300, &spec.corpus_iters) ||
      !args.GetU64("budget", 300, &budget) || !args.GetInt("trials", 24, &spec.trials) ||
      !args.GetInt("workers", 4, &spec.workers) ||
      !args.GetInt("prune-saturation", 1, &spec.prune_saturation)) {
    return 2;
  }
  spec.budget = static_cast<size_t>(budget);
  spec.prune = !args.Has("no-prune");
  const char* detector_list = args.Get("detectors", nullptr);
  if (detector_list != nullptr && !ParseDetectorMask(detector_list, &spec.detectors)) {
    std::fprintf(stderr,
                 "campaign: bad --detectors list %s (names: console,race,deadlock,"
                 "lost-wakeup,livelock,all)\n",
                 detector_list);
    return 2;
  }
  // The daemon's admission check: a spec the fleet would refuse does not run here either.
  if (std::string invalid = CampaignSpecError(spec); !invalid.empty()) {
    std::fprintf(stderr, "campaign: %s\n", invalid.c_str());
    return 2;
  }
  PipelineOptions options =
      CampaignPipelineOptions(spec, args.Get("checkpoint-dir", ""), spec.workers);
  options.resume = args.Has("resume");
  if (options.resume && options.checkpoint_dir.empty()) {
    std::fprintf(stderr, "campaign: --resume requires --checkpoint-dir\n");
    return 2;
  }

  FaultInjector::Plan plan;
  int chance = 1;
  if (!args.GetU64("fault-seed", 1, &plan.seed) || !args.GetInt("inject-faults", 1, &chance)) {
    return 2;
  }
  if (args.Has("inject-faults")) {
    if (chance <= 1) {
      plan.crash_at = 0;  // Bare flag: die at the very first fault point.
    } else {
      plan.crash_chance = static_cast<uint32_t>(chance);
    }
  }
  FaultInjector fault(plan);
  if (args.Has("inject-faults")) {
    options.fault = &fault;
  }

  TraceSession trace(args.Get("trace-out", nullptr));
  PipelineResult result = RunSnowboardPipeline(options);
  if (options.fault != nullptr && options.fault->crashed()) {
    std::fprintf(stderr,
                 "campaign: injected crash at fault point %lld (%s); state is in %s -- "
                 "rerun with --resume to continue\n",
                 static_cast<long long>(options.fault->crash_point()),
                 options.fault->crash_site().c_str(),
                 options.checkpoint_dir.empty() ? "(no checkpoint dir!)"
                                                : options.checkpoint_dir.c_str());
    return 42;
  }
  std::printf("%s: corpus=%zu pmcs=%zu clusters=%zu\n", StrategyName(options.strategy),
              result.corpus_size, result.pmc_count, result.cluster_count);
  if (result.tests_resumed > 0) {
    std::printf("resumed %zu of %zu test outcomes from the checkpoint journal\n",
                result.tests_resumed, result.tests_executed);
  }
  PrintResult(result);

  const char* report_dir = args.Get("report-dir", nullptr);
  if (report_dir != nullptr) {
    CampaignReport report = BuildCampaignReport(options, result);
    if (!WriteCampaignReport(report, report_dir)) {
      std::fprintf(stderr, "campaign: cannot write report to %s\n", report_dir);
      return 1;
    }
    std::printf("report written to %s/report.html (+ report.json)\n", report_dir);
  }

  const char* sarif_out = args.Get("sarif-out", nullptr);
  if (sarif_out != nullptr) {
    CampaignReport report = BuildCampaignReport(options, result);
    if (!WriteReportSarif(report, sarif_out)) {
      std::fprintf(stderr, "campaign: cannot write %s\n", sarif_out);
      return 1;
    }
    std::printf("SARIF findings written to %s\n", sarif_out);
  }

  const char* tokens_dir = args.Get("tokens-dir", nullptr);
  if (tokens_dir != nullptr) {
    if (!EnsureDirectory(tokens_dir)) {
      std::fprintf(stderr, "campaign: cannot create %s\n", tokens_dir);
      return 1;
    }
    size_t written = 0;
    for (const auto& [issue_id, finding] : result.findings.first_findings()) {
      if (finding.replay_token.empty()) {
        continue;
      }
      std::string path = std::string(tokens_dir) + StrPrintf("/issue-%d.token", issue_id);
      if (!WriteStringToFile(path, finding.replay_token + "\n")) {
        std::fprintf(stderr, "campaign: cannot write %s\n", path.c_str());
        return 1;
      }
      written++;
    }
    std::printf("wrote %zu replay token(s) to %s\n", written, tokens_dir);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stderr);
    return 2;
  }
  // --help anywhere on the line wins (including after a command), before any validation.
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    }
  }
  std::string command = argv[1];
  if (command == "help") {
    PrintUsage(stdout);
    return 0;
  }
  const CommandInfo* cmd = FindCommand(kCommands, command);
  if (cmd == nullptr) {
    std::fprintf(stderr, "snowboard_cli: unknown command '%s' (try --help)\n",
                 command.c_str());
    return 2;
  }
  SetLogLevel(LogLevel::kInfo);
  // `replay` takes one positional operand (the token, or a file holding it); every other
  // command is flags-only.
  const char* replay_operand = nullptr;
  int first_flag = 2;
  if (command == "replay" && argc >= 3 && std::strncmp(argv[2], "--", 2) != 0) {
    replay_operand = argv[2];
    first_flag = 3;
  }
  Args args;
  if (!args.Parse("snowboard_cli", argc, argv, first_flag, *cmd)) {
    std::fprintf(stderr, "run `snowboard_cli --help` for the full flag reference\n");
    return 2;
  }
  if (command == "strategies") {
    return CmdStrategies();
  }
  if (command == "replay") {
    return CmdReplay(args, replay_operand);
  }
  if (command == "corpus") {
    return CmdCorpus(args);
  }
  if (command == "identify") {
    return CmdIdentify(args);
  }
  if (command == "run") {
    return CmdRun(args);
  }
  return CmdCampaign(args);
}

}  // namespace
}  // namespace snowboard

int main(int argc, char** argv) { return snowboard::Main(argc, argv); }
