// Regression tests for the sequential-profile cache: a multi-strategy campaign (Table 3
// profiles one corpus under every strategy) must pay for exactly corpus_size VM profiling
// runs in total, and cache hits must return profiles equal to a fresh VM run.
#include <gtest/gtest.h>

#include "src/snowboard/pipeline.h"
#include "src/snowboard/stats.h"

namespace snowboard {
namespace {

PipelineOptions CacheOptions(Strategy strategy, ProfileCache* cache, int num_workers) {
  PipelineOptions options;
  options.seed = 5;
  options.corpus.seed = 42;
  options.corpus.max_iterations = 30;
  options.corpus.target_size = 24;
  options.strategy = strategy;
  options.num_workers = num_workers;
  options.profile_cache = cache;
  return options;
}

void ExpectSameProfiles(const std::vector<SequentialProfile>& a,
                        const std::vector<SequentialProfile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].test_id, b[i].test_id) << "profile " << i;
    EXPECT_EQ(a[i].ok, b[i].ok) << "profile " << i;
    EXPECT_EQ(a[i].program, b[i].program) << "profile " << i;
    EXPECT_EQ(a[i].accesses, b[i].accesses) << "profile " << i;
  }
}

TEST(ProfileCacheTest, LookupRewritesTestIdAndMissesOnUnknownProgram) {
  KernelVm vm;
  ProfileCache cache;
  Program program;
  program.calls.push_back(Call{/*nr=*/0, {}});

  SequentialProfile out;
  EXPECT_FALSE(cache.Lookup(program, 0, &out));

  SequentialProfile profile = ProfileTest(vm, program, /*test_id=*/3);
  cache.Insert(profile);
  EXPECT_EQ(cache.size(), 1u);

  ASSERT_TRUE(cache.Lookup(program, /*test_id=*/9, &out));
  EXPECT_EQ(out.test_id, 9);  // Position-independent content, index rewritten.
  EXPECT_EQ(out.ok, profile.ok);
  EXPECT_EQ(out.accesses, profile.accesses);

  Program other = program;
  other.calls.push_back(Call{/*nr=*/1, {}});
  EXPECT_FALSE(cache.Lookup(other, 0, &out));
}

TEST(ProfileCacheTest, TwoStrategiesProfileTheCorpusExactlyOnce) {
  ResetPipelineCounters();
  ProfileCache cache;

  // Strategy 1 populates the cache: every program is a miss and runs on a VM.
  PreparedCampaign first =
      PrepareCampaign(CacheOptions(Strategy::kSInsPair, &cache, /*num_workers=*/1));
  ASSERT_GT(first.corpus.size(), 10u);
  EXPECT_EQ(GlobalPipelineCounters().vm_profile_runs, first.corpus.size());
  EXPECT_EQ(GlobalPipelineCounters().profile_cache_misses, first.corpus.size());
  EXPECT_EQ(GlobalPipelineCounters().profile_cache_hits, 0u);
  EXPECT_EQ(cache.size(), first.corpus.size());

  // Strategy 2 over the same seed reproduces the same corpus: all hits, zero VM runs.
  PreparedCampaign second =
      PrepareCampaign(CacheOptions(Strategy::kSCh, &cache, /*num_workers=*/1));
  ASSERT_EQ(second.corpus.size(), first.corpus.size());
  EXPECT_EQ(GlobalPipelineCounters().vm_profile_runs, first.corpus.size());
  EXPECT_EQ(GlobalPipelineCounters().profile_cache_hits, second.corpus.size());

  // Cache hits are equal to the profiles a fresh VM run produces.
  ExpectSameProfiles(second.profiles, first.profiles);
  KernelVm vm;
  std::vector<SequentialProfile> fresh = ProfileCorpus(vm, second.corpus);  // No cache.
  ExpectSameProfiles(second.profiles, fresh);
}

TEST(ProfileCacheTest, CacheIsWorkerCountInvariant) {
  ResetPipelineCounters();
  ProfileCache cache;
  PreparedCampaign serial =
      PrepareCampaign(CacheOptions(Strategy::kSInsPair, &cache, /*num_workers=*/1));
  // A sharded second run hits the cache from all workers and returns identical profiles.
  PreparedCampaign parallel =
      PrepareCampaign(CacheOptions(Strategy::kSInsPair, &cache, /*num_workers=*/4));
  EXPECT_EQ(GlobalPipelineCounters().vm_profile_runs, serial.corpus.size());
  ExpectSameProfiles(parallel.profiles, serial.profiles);
}

}  // namespace
}  // namespace snowboard
