// Table 1 / §4.3 characterization: for each clustering strategy, the number of clusters
// (exemplar PMCs) and surviving PMCs produced from the canonical corpus. Exits 1 unless
// S-FULL is the finest clustering (one cluster per PMC, more clusters than any other
// strategy) and each filtered channel strategy keeps fewer than half of the PMCs.
#include <algorithm>

#include "bench/bench_common.h"
#include "src/snowboard/stats.h"

namespace snowboard {
namespace {

int Run() {
  PreparedCampaign campaign = bench::CanonicalCampaign();
  bench::PrintHeader("Table 1 — clustering strategies over the canonical corpus");
  uint64_t total_pairs = 0;
  for (const Pmc& pmc : campaign.pmcs) {
    total_pairs += pmc.total_pairs;
  }
  const size_t pmcs = campaign.pmcs.size();
  std::printf("corpus: %zu tests, %zu unique PMC keys, %llu write/read test pairs\n\n",
              campaign.corpus.size(), pmcs, static_cast<unsigned long long>(total_pairs));
  std::printf("%-16s %12s %12s %11s %7s   %s\n", "strategy", "clusters", "kept PMCs",
              "singleton%", "gini", "size distribution");
  bool sfull_one_per_pmc = false;
  size_t sfull_clusters = 0;
  size_t most_other_clusters = 0;
  bool filters_discard = true;
  for (Strategy strategy : kAllClusteringStrategies) {
    std::vector<PmcCluster> clusters = ClusterPmcs(campaign.pmcs, strategy);
    size_t kept = 0;
    for (const PmcCluster& cluster : clusters) {
      kept += cluster.members.size();
    }
    DistributionSummary summary = SummarizeClusterSizes(clusters);
    std::printf("%-16s %12zu %12zu %10.0f%% %7.2f   %s\n", StrategyName(strategy),
                clusters.size(), kept, 100.0 * SingletonFraction(clusters), summary.gini,
                FormatSummary(summary).c_str());
    if (strategy == Strategy::kSFull) {
      sfull_one_per_pmc = clusters.size() == pmcs && kept == pmcs;
      sfull_clusters = clusters.size();
    } else {
      most_other_clusters = std::max(most_other_clusters, clusters.size());
    }
    if (strategy == Strategy::kSChNull || strategy == Strategy::kSChUnaligned ||
        strategy == Strategy::kSChDouble) {
      filters_discard = filters_discard && 2 * kept < pmcs;
    }
  }
  bool finest = sfull_one_per_pmc && sfull_clusters > most_other_clusters;
  std::printf("\nshape check: S-FULL has one cluster per PMC and the most clusters ... %s\n",
              finest ? "HOLDS" : "VIOLATED");
  std::printf("shape check: S-CH-NULL/UNALIGNED/DOUBLE each keep < half the PMCs ... %s\n",
              filters_discard ? "HOLDS" : "VIOLATED");
  return finest && filters_discard ? 0 : 1;
}

}  // namespace
}  // namespace snowboard

int main() { return snowboard::Run(); }
