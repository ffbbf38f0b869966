// Corpus construction: the coverage-guided fuzzing loop that produces Snowboard's input —
// "a comprehensive set of distinct sequential tests" selected for "high coverage but low
// overlap of exercised behaviors" (§4.1).
#ifndef SRC_FUZZ_CORPUS_H_
#define SRC_FUZZ_CORPUS_H_

#include <vector>

#include "src/fuzz/coverage.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/program.h"
#include "src/fuzz/sequential.h"
#include "src/kernel/kernel.h"

namespace snowboard {

struct CorpusOptions {
  uint64_t seed = 1;
  int max_iterations = 600;   // Generation/mutation attempts after seeding.
  int target_size = 96;       // Stop once the corpus reaches this many tests.
  bool use_seeds = true;      // Bootstrap with SeedPrograms().
};

struct CorpusEntry {
  Program program;
  // The §4.1 profile (fuzz/sequential.h), taken from the run that admitted the program.
  std::vector<SharedAccess> accesses;
  size_t fresh_edges = 0;  // New edges this test contributed when admitted.
};

// Runs the fuzz loop against `vm` (each candidate alone, through RunProgramAlone) and
// returns the admitted tests. A test is admitted iff its sequential execution completes and
// contributes at least one previously-unseen coverage edge.
std::vector<CorpusEntry> BuildCorpus(KernelVm& vm, const CorpusOptions& options);

// Strips the profiles and the coverage bookkeeping.
std::vector<Program> CorpusPrograms(const std::vector<CorpusEntry>& corpus);

}  // namespace snowboard

#endif  // SRC_FUZZ_CORPUS_H_
