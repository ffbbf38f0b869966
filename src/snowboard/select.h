// PMC selection and concurrent-test generation — §4.3 (ordering) + §4.4 (test construction).
//
// "Given a clustering strategy choice, Snowboard clusters all PMCs, counts the cardinality
// of each cluster, and then selects the exemplar to test from each cluster, from the least
// populous — less common — to the most populous cluster." One PMC is drawn per cluster at
// random; among that PMC's test pairs, one pair is chosen at random (§4.4). The result is a
// concurrent test: two sequential tests plus the PMC as a scheduling hint.
#ifndef SRC_SNOWBOARD_SELECT_H_
#define SRC_SNOWBOARD_SELECT_H_

#include <vector>

#include "src/fuzz/program.h"
#include "src/snowboard/cluster.h"
#include "src/snowboard/pmc.h"
#include "src/util/rng.h"

namespace snowboard {

// A Snowboard concurrent test: writer test, reader test, and the PMC scheduling hint
// ("CT = [SI_x, SI_y]" plus the hint in Figure 2).
struct ConcurrentTest {
  Program writer;
  Program reader;
  int write_test = -1;  // Corpus index of the writer test.
  int read_test = -1;
  PmcKey hint;
  uint64_t cluster_key = 0;      // Cluster the exemplar came from (diagnostics).
  size_t cluster_size = 0;
};

struct SelectOptions {
  uint64_t seed = 7;
  // Upper bound on generated tests (clusters beyond this, in visit order, are dropped).
  size_t max_tests = SIZE_MAX;
  // Randomize cluster visit order instead of least-populous-first (Random S-INS-PAIR).
  bool randomize_cluster_order = false;
};

// Orders clusters (uncommon-first or randomized), draws one exemplar PMC per cluster and
// one test pair per exemplar, and materializes concurrent tests against `corpus`.
std::vector<ConcurrentTest> SelectConcurrentTests(const std::vector<Pmc>& pmcs,
                                                  const std::vector<PmcCluster>& clusters,
                                                  const std::vector<Program>& corpus,
                                                  const SelectOptions& options);

// Cluster visit order as indices into `clusters` (exposed for tests): by ascending
// cardinality with the cluster key as the deterministic tie-break, or a seeded shuffle.
std::vector<size_t> OrderClusters(const std::vector<PmcCluster>& clusters,
                                  bool randomize, Rng& rng);

// --- Baseline generation methods (Table 3), no PMC analysis involved. ---

// Random pairing: "randomly selects two kernel sequential tests and combines them".
std::vector<ConcurrentTest> GenerateRandomPairs(const std::vector<Program>& corpus,
                                                size_t count, uint64_t seed);

// Duplicate pairing: "a concurrent test that consists of two identical sequential tests".
std::vector<ConcurrentTest> GenerateDuplicatePairs(const std::vector<Program>& corpus,
                                                   size_t count, uint64_t seed);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_SELECT_H_
