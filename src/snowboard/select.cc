#include "src/snowboard/select.h"

#include <algorithm>
#include <numeric>

#include "src/util/assert.h"

namespace snowboard {

std::vector<size_t> OrderClusters(const std::vector<PmcCluster>& clusters, bool randomize,
                                  Rng& rng) {
  std::vector<size_t> order(clusters.size());
  std::iota(order.begin(), order.end(), 0);
  if (randomize) {
    // Fisher-Yates with the seeded generator (Random S-INS-PAIR, §5.3.1).
    for (size_t i = order.size(); i > 1; i--) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
    return order;
  }
  std::sort(order.begin(), order.end(), [&clusters](size_t a, size_t b) {
    if (clusters[a].members.size() != clusters[b].members.size()) {
      return clusters[a].members.size() < clusters[b].members.size();
    }
    return clusters[a].key < clusters[b].key;  // Deterministic tie-break.
  });
  return order;
}

std::vector<ConcurrentTest> SelectConcurrentTests(const std::vector<Pmc>& pmcs,
                                                  const std::vector<PmcCluster>& clusters,
                                                  const std::vector<Program>& corpus,
                                                  const SelectOptions& options) {
  Rng rng(options.seed);
  std::vector<size_t> order = OrderClusters(clusters, options.randomize_cluster_order, rng);

  std::vector<ConcurrentTest> tests;
  tests.reserve(std::min(options.max_tests, order.size()));
  for (size_t cluster_index : order) {
    if (tests.size() >= options.max_tests) {
      break;
    }
    const PmcCluster& cluster = clusters[cluster_index];
    SB_CHECK(!cluster.members.empty());
    // draw_from_cluster(cluster, random) — Algorithm 2 line 2.
    const Pmc& pmc = pmcs[cluster.members[rng.Below(cluster.members.size())]];
    if (pmc.pairs.empty()) {
      continue;
    }
    // "A PMC may correspond to multiple test pairs; one pair is chosen among them at
    // random" — §4.4.
    const PmcTestPair& pair = pmc.pairs[rng.Below(pmc.pairs.size())];
    SB_CHECK(pair.write_test >= 0 &&
             pair.write_test < static_cast<int>(corpus.size()));
    SB_CHECK(pair.read_test >= 0 && pair.read_test < static_cast<int>(corpus.size()));

    ConcurrentTest test;
    test.writer = corpus[static_cast<size_t>(pair.write_test)];
    test.reader = corpus[static_cast<size_t>(pair.read_test)];
    test.write_test = pair.write_test;
    test.read_test = pair.read_test;
    test.hint = pmc.key;
    test.cluster_key = cluster.key;
    test.cluster_size = cluster.members.size();
    tests.push_back(std::move(test));
  }
  return tests;
}

std::vector<ConcurrentTest> GenerateRandomPairs(const std::vector<Program>& corpus,
                                                size_t count, uint64_t seed) {
  SB_CHECK(!corpus.empty());
  Rng rng(seed);
  std::vector<ConcurrentTest> tests;
  tests.reserve(count);
  for (size_t i = 0; i < count; i++) {
    ConcurrentTest test;
    test.write_test = static_cast<int>(rng.Below(corpus.size()));
    test.read_test = static_cast<int>(rng.Below(corpus.size()));
    test.writer = corpus[static_cast<size_t>(test.write_test)];
    test.reader = corpus[static_cast<size_t>(test.read_test)];
    tests.push_back(std::move(test));
  }
  return tests;
}

std::vector<ConcurrentTest> GenerateDuplicatePairs(const std::vector<Program>& corpus,
                                                   size_t count, uint64_t seed) {
  SB_CHECK(!corpus.empty());
  Rng rng(seed);
  std::vector<ConcurrentTest> tests;
  tests.reserve(count);
  for (size_t i = 0; i < count; i++) {
    ConcurrentTest test;
    test.write_test = static_cast<int>(rng.Below(corpus.size()));
    test.read_test = test.write_test;
    test.writer = corpus[static_cast<size_t>(test.write_test)];
    test.reader = test.writer;
    tests.push_back(std::move(test));
  }
  return tests;
}

}  // namespace snowboard
