// Determinism harness for the parallel campaign-preparation pipeline: every deterministic
// artifact of RunSnowboardPipeline — corpus, profiles, PMC table (keys, multiplicities,
// sampled exemplar pairs), execution stats, and the findings log — must be byte-identical
// whether the stages run on 1, 2, or 4 workers. This is the
// parallel-speed/bit-identical-results bar of deterministic-parallelism systems (Aviram et
// al.; O'Callahan et al.), applied to our §4.4.1 fleet analog.
#include <gtest/gtest.h>

#include <string>

#include "src/fuzz/generator.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/report_html.h"
#include "src/snowboard/serialize.h"
#include "src/snowboard/stats.h"
#include "src/util/counters.h"
#include "src/util/fault.h"
#include "tests/golden.h"

namespace snowboard {
namespace {

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

void ExpectSamePmcs(const std::vector<Pmc>& a, const std::vector<Pmc>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].key, b[i].key) << "pmc " << i;
    EXPECT_EQ(a[i].total_pairs, b[i].total_pairs) << "pmc " << i;  // Pair multiplicity.
    ASSERT_EQ(a[i].pairs.size(), b[i].pairs.size()) << "pmc " << i;
    for (size_t p = 0; p < a[i].pairs.size(); p++) {
      EXPECT_EQ(a[i].pairs[p].write_test, b[i].pairs[p].write_test) << "pmc " << i;
      EXPECT_EQ(a[i].pairs[p].read_test, b[i].pairs[p].read_test) << "pmc " << i;
    }
  }
  EXPECT_EQ(PmcTableDigest(a), PmcTableDigest(b));
}

TEST(PipelineDeterminismTest, PreparedCampaignInvariantAcrossWorkerCounts) {
  PreparedCampaign base = PrepareCampaign(ReferenceCampaignOptions(1));
  ASSERT_GT(base.corpus.size(), 10u);
  ASSERT_GT(base.pmcs.size(), 50u);
  for (int workers : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "num_workers=" << workers);
    PreparedCampaign campaign = PrepareCampaign(ReferenceCampaignOptions(workers));
    ASSERT_EQ(campaign.corpus.size(), base.corpus.size());
    for (size_t i = 0; i < base.corpus.size(); i++) {
      EXPECT_EQ(campaign.corpus[i], base.corpus[i]) << "corpus " << i;
    }
    ExpectSameProfiles(campaign.profiles, base.profiles);
    ExpectSamePmcs(campaign.pmcs, base.pmcs);
  }
}

// The serialized result of the reference campaign is pinned to a checked-in golden at
// every worker count. The engine overlaps stages (profiles fold into identification while
// the profile tail runs; exploration starts as soon as tests resolve) but pins every
// ordered computation, so no scheduling freedom may reach these bytes.
TEST(PipelineDeterminismTest, ReferenceResultMatchesGolden) {
  for (int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ExpectMatchesGolden("reference-result.golden",
                        SerializePipelineResult(RunSnowboardPipeline(
                            ReferenceCampaignOptions(workers))));
  }
}

// The same golden bar over a pairing baseline, where exploration genuinely overlaps the
// profile tail (tests depend only on the corpus).
TEST(PipelineDeterminismTest, PairingBaselineResultMatchesGolden) {
  for (int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    PipelineOptions options = ReferenceCampaignOptions(workers);
    options.strategy = Strategy::kRandomPairing;
    ExpectMatchesGolden("pairing-result.golden",
                        SerializePipelineResult(RunSnowboardPipeline(options)));
  }
}

// Sharded-merge determinism: per-worker counter shards drain into the global block with
// commutative additions, so work-proportional counter TOTALS — profiles executed,
// concurrent tests run, snapshot restores performed — must be exactly equal at any worker
// count, and the masked report.json (whose deterministic portion embeds the funnel those
// counters feed) must match its golden. Only totals invariant under scheduling are
// compared: the full/delta restore SPLIT varies with worker count (each worker VM's first
// restore is a full one), so the sum is asserted, not the parts.
TEST(PipelineDeterminismTest, ShardedCounterTotalsAndMaskedReportInvariant) {
  struct Totals {
    uint64_t profile_runs = 0;
    uint64_t tests_run = 0;
    uint64_t restores = 0;
  };
  auto run = [](int workers) {
    ResetPipelineCounters();
    PipelineOptions options = ReferenceCampaignOptions(workers);
    PipelineResult result = RunSnowboardPipeline(options);
    std::string masked =
        MaskReportVolatile(RenderReportJson(BuildCampaignReport(options, result)));
    ExpectMatchesGolden("reference-report.golden", masked);
    const PipelineCounters& counters = GlobalPipelineCounters();
    Totals totals;
    totals.profile_runs = counters.vm_profile_runs.load();
    totals.tests_run = counters.concurrent_tests_run.load();
    totals.restores =
        counters.snapshot_full_restores.load() + counters.snapshot_delta_restores.load();
    return totals;
  };

  Totals base = run(1);
  ASSERT_GT(base.tests_run, 0u);
  ASSERT_GT(base.profile_runs, 0u);
  ASSERT_GT(base.restores, base.tests_run);  // At least one restore per trial.
  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    Totals totals = run(workers);
    EXPECT_EQ(totals.profile_runs, base.profile_runs);
    EXPECT_EQ(totals.tests_run, base.tests_run);
    EXPECT_EQ(totals.restores, base.restores);
  }
}

// Masked-report golden with every detector firing: the handcrafted detector-prey suite
// (#18-#22) plus the Figure 1 l2tp pair produce a report whose findings span race,
// console/panic, deadlock, lost-wakeup, AND livelock kinds. The masked report.json —
// including the per-finding "kind" column and the detector witnesses in the evidence —
// must match its golden at every worker count, the same bar the race/console-era report
// is held to.
TEST(PipelineDeterminismTest, MaskedReportWithAllDetectorKindsInvariant) {
  std::vector<Program> seeds = SeedPrograms();
  std::vector<ConcurrentTest> tests = DetectorPreyTests();
  tests.insert(tests.begin(), HandcraftedPair(seeds[0], seeds[1], 0));  // l2tp: races.

  for (int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    PipelineOptions options = DetectorPreyOptions(workers);
    EXPECT_EQ(options.explorer.detectors, kDetectorAll);  // All five detectors enabled.
    ResetPipelineCounters();
    PipelineResult result;
    ExecuteCampaign(tests, /*use_pmc_hints=*/false, nullptr, options, &result);
    std::string masked =
        MaskReportVolatile(RenderReportJson(BuildCampaignReport(options, result)));
    // The report must actually carry every finding kind, or the golden is vacuous.
    for (const char* kind :
         {"\"race\"", "\"deadlock\"", "\"lost-wakeup\"", "\"livelock\""}) {
      EXPECT_NE(masked.find(kind), std::string::npos) << "report lacks a " << kind
                                                      << " finding:\n" << masked;
    }
    ExpectMatchesGolden("detector-prey-report.golden", masked);
  }
}

// One fault-point rule: ExecuteCampaign passes one "execute.claim" point per executed
// test plus the points inside each test — never one per claim attempt or deferral — so an
// armed-but-silent injector counts the same total at every worker count, with and without
// cluster-priority deferral.
TEST(PipelineDeterminismTest, FaultPointTotalInvariantAcrossWorkerCounts) {
  PipelineOptions options = ReferenceCampaignOptions(1);
  PreparedCampaign campaign = PrepareCampaign(options);
  std::vector<ConcurrentTest> tests = GenerateTestsForStrategy(campaign, options, nullptr);
  ASSERT_EQ(tests.size(), options.max_concurrent_tests);
  PmcMatcher matcher(&campaign.pmcs);
  for (bool prune : {false, true}) {
    SCOPED_TRACE(testing::Message() << "prune=" << prune);
    auto points_seen = [&](int workers) {
      FaultInjector fault{FaultInjector::Plan{}};
      PipelineOptions run = ReferenceCampaignOptions(workers);
      run.explorer.prune.enabled = prune;
      run.fault = &fault;
      PipelineResult result;
      ExecuteCampaign(tests, /*use_pmc_hints=*/true, &matcher, run, &result);
      EXPECT_FALSE(fault.crashed());
      EXPECT_EQ(result.tests_executed, tests.size());
      return fault.points_seen();
    };
    const uint64_t base = points_seen(1);
    EXPECT_GT(base, tests.size());
    for (int workers : {2, 4, 8}) {
      EXPECT_EQ(points_seen(workers), base) << "workers=" << workers;
    }
  }
}

TEST(PipelineDeterminismTest, FullPipelineStatsAndFindingsInvariant) {
  PipelineResult base = RunSnowboardPipeline(ReferenceCampaignOptions(1));
  ASSERT_GT(base.tests_executed, 0u);
  for (int workers : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "num_workers=" << workers);
    PipelineResult result = RunSnowboardPipeline(ReferenceCampaignOptions(workers));
    EXPECT_EQ(result.corpus_size, base.corpus_size);
    EXPECT_EQ(result.profiled_ok, base.profiled_ok);
    EXPECT_EQ(result.shared_accesses, base.shared_accesses);
    EXPECT_EQ(result.pmc_count, base.pmc_count);
    EXPECT_EQ(result.total_pmc_pairs, base.total_pmc_pairs);
    EXPECT_EQ(result.cluster_count, base.cluster_count);
    EXPECT_EQ(result.tests_generated, base.tests_generated);
    EXPECT_EQ(result.tests_executed, base.tests_executed);
    EXPECT_EQ(result.tests_with_bug, base.tests_with_bug);
    EXPECT_EQ(result.channel_exercised, base.channel_exercised);
    EXPECT_EQ(result.total_trials, base.total_trials);

    EXPECT_EQ(result.findings.total_findings(), base.findings.total_findings());
    ASSERT_EQ(result.findings.first_findings().size(), base.findings.first_findings().size());
    auto base_it = base.findings.first_findings().begin();
    for (const auto& [id, finding] : result.findings.first_findings()) {
      EXPECT_EQ(id, base_it->first);
      EXPECT_EQ(finding.issue_id, base_it->second.issue_id);
      EXPECT_EQ(finding.evidence, base_it->second.evidence);
      EXPECT_EQ(finding.test_index, base_it->second.test_index);
      EXPECT_EQ(finding.trial, base_it->second.trial);
      EXPECT_EQ(finding.duplicate_input, base_it->second.duplicate_input);
      // The shippable reproducer: the token (schedule, fingerprint, crc and all) must be
      // byte-identical regardless of worker count.
      EXPECT_EQ(finding.replay_token, base_it->second.replay_token);
      ++base_it;
    }
    EXPECT_EQ(result.schedule_switches_orig, base.schedule_switches_orig);
    EXPECT_EQ(result.schedule_switches_min, base.schedule_switches_min);
    EXPECT_EQ(FindingsDigest(result.findings), FindingsDigest(base.findings));
  }
}

}  // namespace
}  // namespace snowboard
