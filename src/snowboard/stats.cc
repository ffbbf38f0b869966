#include "src/snowboard/stats.h"

#include <algorithm>
#include <numeric>

#include "src/snowboard/report.h"
#include "src/util/hash.h"
#include "src/util/strings.h"

namespace snowboard {

uint64_t PmcTableDigest(const std::vector<Pmc>& pmcs) {
  uint64_t h = HashAll(uint64_t{0x50c4}, pmcs.size());
  for (const Pmc& pmc : pmcs) {
    h = HashCombine(h, pmc.key.Hash());
    h = HashCombine(h, pmc.total_pairs);
    h = HashCombine(h, pmc.pairs.size());
    for (const PmcTestPair& pair : pmc.pairs) {
      h = HashCombine(h, HashAll(pair.write_test, pair.read_test));
    }
  }
  return h;
}

uint64_t FindingsDigest(const FindingsLog& findings) {
  uint64_t h = HashAll(uint64_t{0xf1d5}, findings.total_findings());
  for (const auto& [id, finding] : findings.first_findings()) {
    h = HashCombine(h, static_cast<uint64_t>(id));
    h = HashCombine(h, Fnv1a(finding.evidence));
    h = HashCombine(h, finding.test_index);
    h = HashCombine(h, static_cast<uint64_t>(finding.trial));
    h = HashCombine(h, static_cast<uint64_t>(finding.duplicate_input));
  }
  return h;
}

DistributionSummary SummarizeClusterSizes(const std::vector<PmcCluster>& clusters) {
  DistributionSummary summary;
  if (clusters.empty()) {
    return summary;
  }
  std::vector<size_t> sizes;
  sizes.reserve(clusters.size());
  for (const PmcCluster& cluster : clusters) {
    sizes.push_back(cluster.members.size());
  }
  std::sort(sizes.begin(), sizes.end());

  summary.count = sizes.size();
  summary.min = sizes.front();
  summary.max = sizes.back();
  size_t total = std::accumulate(sizes.begin(), sizes.end(), size_t{0});
  summary.mean = static_cast<double>(total) / static_cast<double>(sizes.size());
  summary.median = sizes[sizes.size() / 2];
  summary.p90 = sizes[(sizes.size() * 9) / 10];

  // Gini over the sorted sizes: G = (2 * sum(i * x_i) / (n * sum(x))) - (n + 1) / n,
  // with 1-based ranks i.
  double weighted = 0.0;
  for (size_t i = 0; i < sizes.size(); i++) {
    weighted += static_cast<double>(i + 1) * static_cast<double>(sizes[i]);
  }
  double n = static_cast<double>(sizes.size());
  if (total > 0) {
    summary.gini = (2.0 * weighted) / (n * static_cast<double>(total)) - (n + 1.0) / n;
  }
  return summary;
}

double SingletonFraction(const std::vector<PmcCluster>& clusters) {
  if (clusters.empty()) {
    return 0.0;
  }
  size_t singletons = 0;
  size_t members = 0;
  for (const PmcCluster& cluster : clusters) {
    members += cluster.members.size();
    singletons += cluster.members.size() == 1 ? 1 : 0;
  }
  return members == 0 ? 0.0 : static_cast<double>(singletons) / static_cast<double>(members);
}

std::vector<size_t> ClusterSizeHistogram(const std::vector<PmcCluster>& clusters) {
  std::vector<size_t> histogram;
  for (const PmcCluster& cluster : clusters) {
    size_t size = cluster.members.size();
    size_t bucket = 0;
    while ((size_t{2} << bucket) <= size) {
      bucket++;
    }
    if (histogram.size() <= bucket) {
      histogram.resize(bucket + 1, 0);
    }
    histogram[bucket]++;
  }
  return histogram;
}

std::string FormatSummary(const DistributionSummary& summary) {
  return StrPrintf("n=%zu min=%zu med=%zu p90=%zu max=%zu mean=%.1f gini=%.2f",
                   summary.count, summary.min, summary.median, summary.p90, summary.max,
                   summary.mean, summary.gini);
}

}  // namespace snowboard
