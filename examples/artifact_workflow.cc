// The artifact workflow: the paper's deployment splits the pipeline into stages connected
// by stored artifacts (profiled corpus -> PMC database -> distributed test queue), and
// ships reproducible bug reports. This example walks that lifecycle on disk:
//
//   1. build a corpus and SAVE it,
//   2. reload it (as a separate identification job would), identify + SAVE the PMCs,
//   3. reload the PMCs, generate concurrent tests, and explore,
//   4. ship the first panic finding's replay token to disk and REPLAY it from that text
//      alone (the §6 "deterministic reproduction" workflow a bug report would use).
//
// The artifacts live in a fresh temporary directory that is removed on exit, so concurrent
// runs never share files.
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "src/snowboard/pipeline.h"
#include "src/snowboard/replay.h"
#include "src/snowboard/serialize.h"

using namespace snowboard;

namespace {

int RunWorkflow(const std::string& dir) {
  const std::string corpus_path = dir + "/snowboard_corpus.txt";
  const std::string pmcs_path = dir + "/snowboard_pmcs.txt";

  // Stage 1: fuzz a corpus and persist it.
  KernelVm vm;
  CorpusOptions corpus_options;
  corpus_options.seed = 42;
  corpus_options.max_iterations = 200;
  corpus_options.target_size = 60;
  std::vector<Program> corpus = CorpusPrograms(BuildCorpus(vm, corpus_options));
  if (!WriteStringToFile(corpus_path, SerializeCorpus(corpus))) {
    std::printf("cannot write %s\n", corpus_path.c_str());
    return 1;
  }
  std::printf("stage 1: saved %zu sequential tests -> %s\n", corpus.size(),
              corpus_path.c_str());

  // Stage 2: a fresh "identification job" reloads the corpus, profiles, identifies, saves.
  std::optional<std::vector<Program>> loaded_corpus =
      DeserializeCorpus(*ReadFileToString(corpus_path));
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, *loaded_corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  WriteStringToFile(pmcs_path, SerializePmcs(pmcs));
  std::printf("stage 2: identified and saved %zu PMCs -> %s\n", pmcs.size(),
              pmcs_path.c_str());

  // Stage 3: a "worker" reloads the PMC database and explores S-INS-PAIR exemplars.
  std::optional<std::vector<Pmc>> loaded_pmcs = DeserializePmcs(*ReadFileToString(pmcs_path));
  std::vector<PmcCluster> clusters = ClusterPmcs(*loaded_pmcs, Strategy::kSInsPair);
  SelectOptions select;
  select.max_tests = 200;
  std::vector<ConcurrentTest> tests =
      SelectConcurrentTests(*loaded_pmcs, clusters, *loaded_corpus, select);
  std::printf("stage 3: %zu clusters -> %zu concurrent tests; exploring...\n",
              clusters.size(), tests.size());

  // Stage 4: explore until a test records a panic, then ship its replay token and replay
  // it from the shipped text.
  const std::string token_path = dir + "/snowboard_panic.token";
  for (size_t i = 0; i < tests.size(); i++) {
    ExplorerOptions explorer;
    explorer.num_trials = 24;
    explorer.seed = 2021 + i * 1000003ull;
    ExploreOutcome outcome = ExploreConcurrentTest(vm, tests[i], nullptr, explorer);
    for (const FindingRecord& record : outcome.findings) {
      if (record.kind != FindingKind::kPanic) {
        continue;
      }
      std::optional<ReplayToken> token = MakeReplayToken(tests[i], record, explorer);
      if (!token.has_value()) {
        continue;
      }
      std::printf("stage 4: test %zu trial %d panicked:\n  %s\n", i, record.trial,
                  record.evidence.c_str());
      std::printf("  recorded schedule: %u switches, %u after minimization\n",
                  record.orig_switches, record.min_switches);
      WriteStringToFile(token_path, FormatReplayToken(*token));
      std::optional<ReplayToken> shipped = ParseReplayToken(*ReadFileToString(token_path));
      bool replayed = shipped.has_value() && ReplayTokenTrial(vm, *shipped).fingerprint_match;
      std::printf("  replay from %s: %s\n", token_path.c_str(),
                  replayed ? "IDENTICAL PANIC REPRODUCED" : "failed");
      return replayed ? 0 : 1;
    }
  }
  std::printf("no panic found within the budget\n");
  return 1;
}

}  // namespace

int main() {
  char dir[] = "/tmp/snowboard_artifacts_XXXXXX";
  if (mkdtemp(dir) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  int status = RunWorkflow(dir);
  std::filesystem::remove_all(dir);
  return status;
}
