#include "src/fuzz/corpus.h"

#include <unordered_set>

#include "src/util/log.h"

namespace snowboard {

std::vector<CorpusEntry> BuildCorpus(KernelVm& vm, const CorpusOptions& options) {
  std::vector<CorpusEntry> corpus;
  CoverageMap coverage;
  std::unordered_set<uint64_t> seen_programs;
  Generator generator(options.seed);

  // Every candidate runs into one recycled result.
  Engine::RunResult run;

  auto consider = [&](const Program& program) {
    if (static_cast<int>(corpus.size()) >= options.target_size) {
      return;
    }
    if (!seen_programs.insert(program.Hash()).second) {
      return;
    }
    RunProgramAlone(vm, program, &run);
    if (!run.completed) {
      return;  // A broken test.
    }
    size_t fresh = coverage.Merge(CollectEdges(run.trace, /*vcpu=*/0));
    if (fresh == 0) {
      return;  // Redundant behavior: "low overlap" filter.
    }
    // Only an admitted program is profiled, from the trace of the run that admitted it.
    std::vector<SharedAccess> accesses = ExtractSharedAccesses(run.trace, /*vcpu=*/0);
    ComputeDoubleFetchLeaders(&accesses);
    corpus.push_back(CorpusEntry{program, std::move(accesses), fresh});
  };

  if (options.use_seeds) {
    for (const Program& seed : SeedPrograms()) {
      consider(seed);
    }
  }

  for (int iter = 0; iter < options.max_iterations &&
                     static_cast<int>(corpus.size()) < options.target_size;
       iter++) {
    Program candidate;
    if (!corpus.empty() && generator.rng().Chance(1, 2)) {
      const CorpusEntry& base = corpus[generator.rng().Below(corpus.size())];
      candidate = generator.Mutate(base.program);
    } else {
      candidate = generator.Generate();
    }
    consider(candidate);
  }

  SB_LOG(kInfo) << "corpus: " << corpus.size() << " tests, " << "seed=" << options.seed;
  return corpus;
}

std::vector<Program> CorpusPrograms(const std::vector<CorpusEntry>& corpus) {
  std::vector<Program> programs;
  programs.reserve(corpus.size());
  for (const CorpusEntry& entry : corpus) {
    programs.push_back(entry.program);
  }
  return programs;
}

}  // namespace snowboard
