// Campaign statistics: distribution summaries over PMC populations and cluster structures,
// process-wide preparation counters, and artifact digests.
//
// The paper's prioritization rests on cluster-cardinality *shape* (uncommon-first visits pay
// off exactly when cluster sizes are skewed); these helpers quantify that shape for the
// Table 1 characterization and for pipeline diagnostics. The digests give tests a compact
// byte-identity check over stage artifacts — the determinism harness asserts they are
// invariant under the preparation worker count.
#ifndef SRC_SNOWBOARD_STATS_H_
#define SRC_SNOWBOARD_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/snowboard/cluster.h"
// PipelineCounters / GlobalPipelineCounters / ResetPipelineCounters moved to util so the
// simulator's snapshot-restore path can report into them; re-exported here for consumers.
#include "src/util/counters.h"

namespace snowboard {

class FindingsLog;

// Order-sensitive digests of stage artifacts. Two artifact vectors digest equal iff they are
// element-wise identical (up to 64-bit collision), including multiplicities and exemplars.
uint64_t PmcTableDigest(const std::vector<Pmc>& pmcs);
uint64_t FindingsDigest(const FindingsLog& findings);

struct DistributionSummary {
  size_t count = 0;
  size_t min = 0;
  size_t max = 0;
  double mean = 0.0;
  size_t median = 0;
  size_t p90 = 0;
  // Gini coefficient in [0, 1): 0 = all clusters equal-sized, ->1 = mass concentrated in a
  // few giant clusters (the regime where uncommon-first ordering matters most).
  double gini = 0.0;
};

// Summary of a cluster-size distribution.
DistributionSummary SummarizeClusterSizes(const std::vector<PmcCluster>& clusters);

// Fraction of PMCs that sit in singleton clusters under the strategy — the "uncommon" mass.
double SingletonFraction(const std::vector<PmcCluster>& clusters);

// Histogram of cluster sizes in power-of-two buckets: [1], [2..3], [4..7], ... Returns
// bucket counts; bucket i covers sizes [2^i, 2^(i+1)).
std::vector<size_t> ClusterSizeHistogram(const std::vector<PmcCluster>& clusters);

// One-line rendering of a summary for bench output.
std::string FormatSummary(const DistributionSummary& summary);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_STATS_H_
