// Tests for campaign statistics (cluster-size distributions) and the process-wide
// pipeline counter block they are reported alongside.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

#include "src/snowboard/checkpoint.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/stats.h"
#include "src/util/counters.h"

namespace snowboard {
namespace {

std::vector<PmcCluster> ClustersOfSizes(std::vector<size_t> sizes) {
  std::vector<PmcCluster> clusters;
  uint32_t next = 0;
  for (size_t i = 0; i < sizes.size(); i++) {
    PmcCluster cluster;
    cluster.key = i;
    for (size_t m = 0; m < sizes[i]; m++) {
      cluster.members.push_back(next++);
    }
    clusters.push_back(std::move(cluster));
  }
  return clusters;
}

TEST(StatsTest, EmptyDistribution) {
  DistributionSummary summary = SummarizeClusterSizes({});
  EXPECT_EQ(summary.count, 0u);
  EXPECT_EQ(summary.gini, 0.0);
  EXPECT_EQ(SingletonFraction({}), 0.0);
  EXPECT_TRUE(ClusterSizeHistogram({}).empty());
}

TEST(StatsTest, UniformSizesHaveZeroGini) {
  DistributionSummary summary = SummarizeClusterSizes(ClustersOfSizes({4, 4, 4, 4}));
  EXPECT_EQ(summary.count, 4u);
  EXPECT_EQ(summary.min, 4u);
  EXPECT_EQ(summary.max, 4u);
  EXPECT_DOUBLE_EQ(summary.mean, 4.0);
  EXPECT_NEAR(summary.gini, 0.0, 1e-9);
}

TEST(StatsTest, SkewedSizesHaveHighGini) {
  DistributionSummary uniform = SummarizeClusterSizes(ClustersOfSizes({5, 5, 5, 5}));
  DistributionSummary skewed = SummarizeClusterSizes(ClustersOfSizes({1, 1, 1, 97}));
  EXPECT_GT(skewed.gini, uniform.gini + 0.5);
  EXPECT_EQ(skewed.max, 97u);
  EXPECT_EQ(skewed.median, 1u);
}

TEST(StatsTest, SummaryOrderStatistics) {
  DistributionSummary summary =
      SummarizeClusterSizes(ClustersOfSizes({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(summary.count, 10u);
  EXPECT_EQ(summary.min, 1u);
  EXPECT_EQ(summary.max, 10u);
  EXPECT_EQ(summary.median, 6u);  // sizes[5] of the sorted vector.
  EXPECT_EQ(summary.p90, 10u);
  EXPECT_DOUBLE_EQ(summary.mean, 5.5);
}

TEST(StatsTest, SingletonFraction) {
  // 3 singleton clusters out of 3 + 7 members total.
  EXPECT_NEAR(SingletonFraction(ClustersOfSizes({1, 1, 1, 7})), 0.3, 1e-9);
  EXPECT_DOUBLE_EQ(SingletonFraction(ClustersOfSizes({1, 1})), 1.0);
  EXPECT_DOUBLE_EQ(SingletonFraction(ClustersOfSizes({5})), 0.0);
}

TEST(StatsTest, HistogramBuckets) {
  // Sizes: 1 -> bucket0, 2,3 -> bucket1, 4..7 -> bucket2, 8 -> bucket3.
  std::vector<size_t> histogram =
      ClusterSizeHistogram(ClustersOfSizes({1, 1, 2, 3, 4, 7, 8}));
  ASSERT_EQ(histogram.size(), 4u);
  EXPECT_EQ(histogram[0], 2u);
  EXPECT_EQ(histogram[1], 2u);
  EXPECT_EQ(histogram[2], 2u);
  EXPECT_EQ(histogram[3], 1u);
}

TEST(StatsTest, FormatMentionsAllFields) {
  std::string text = FormatSummary(SummarizeClusterSizes(ClustersOfSizes({1, 2, 3})));
  EXPECT_NE(text.find("n=3"), std::string::npos);
  EXPECT_NE(text.find("gini="), std::string::npos);
  EXPECT_NE(text.find("max=3"), std::string::npos);
}

TEST(StatsTest, ResetZeroesResumeAndCheckpointCounters) {
  PipelineCounters& counters = GlobalPipelineCounters();
  counters.concurrent_tests_run.fetch_add(3);
  counters.tests_resumed.fetch_add(2);
  counters.checkpoint_writes.fetch_add(1);
  counters.checkpoint_bytes.fetch_add(128);
  counters.checkpoint_loads.fetch_add(4);
  ResetPipelineCounters();
  EXPECT_EQ(counters.concurrent_tests_run.load(), 0u);
  EXPECT_EQ(counters.tests_resumed.load(), 0u);
  EXPECT_EQ(counters.checkpoint_writes.load(), 0u);
  EXPECT_EQ(counters.checkpoint_bytes.load(), 0u);
  EXPECT_EQ(counters.checkpoint_loads.load(), 0u);
}

TEST(StatsTest, CheckpointedPipelineReportsCountersAndResultFields) {
  PipelineOptions options;
  options.seed = 11;
  options.corpus.seed = 5;
  options.corpus.max_iterations = 6;
  options.corpus.target_size = 4;
  options.strategy = Strategy::kSInsPair;
  options.max_concurrent_tests = 3;
  options.explorer.num_trials = 2;
  options.checkpoint_dir =
      std::string(::testing::TempDir()) + "sb_stats_counters_" + std::to_string(::getpid());
  std::filesystem::remove_all(options.checkpoint_dir);

  ResetPipelineCounters();
  PipelineResult result = RunSnowboardPipeline(options);
  PipelineCounters& counters = GlobalPipelineCounters();

  // A fresh checkpointed run explores everything live and journals as it goes.
  EXPECT_EQ(counters.concurrent_tests_run.load(), result.tests_executed);
  EXPECT_EQ(counters.tests_resumed.load(), 0u);
  EXPECT_EQ(result.tests_resumed, 0u);
  EXPECT_GT(counters.checkpoint_writes.load(), 0u);
  // Every committed byte counts: the guard and each journal group commit.
  uintmax_t on_disk = 0;
  for (const auto& dirent : std::filesystem::directory_iterator(options.checkpoint_dir)) {
    on_disk += dirent.file_size();
  }
  EXPECT_EQ(counters.checkpoint_bytes.load(), on_disk);

  // A resume of the completed campaign replays every journaled outcome: the guard load
  // admits it, nothing re-executes, and the resumed/executed counters mirror each other.
  ResetPipelineCounters();
  PipelineOptions resume_options = options;
  resume_options.resume = true;
  PipelineResult resumed = RunSnowboardPipeline(resume_options);
  EXPECT_EQ(resumed.tests_resumed, resumed.tests_executed);
  EXPECT_EQ(counters.tests_resumed.load(), resumed.tests_executed);
  EXPECT_EQ(counters.concurrent_tests_run.load(), 0u);
  EXPECT_GT(counters.checkpoint_loads.load(), 0u);
  std::filesystem::remove_all(options.checkpoint_dir);
}

}  // namespace
}  // namespace snowboard
