// Tests for the post-mortem analysis tools (§4.4.1): race-vs-PMC verification, race
// diagnosis rendering, observed-communication extraction, schedule formatting.
#include <gtest/gtest.h>

#include "src/fuzz/generator.h"
#include "src/sim/site.h"
#include "src/snowboard/explorer.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/postmortem.h"
#include "src/snowboard/replay.h"

namespace snowboard {
namespace {

Pmc MakePmc(GuestAddr wa, SiteId ws, GuestAddr ra, SiteId rs) {
  Pmc pmc;
  pmc.key.write = PmcSide{wa, 4, ws, 1};
  pmc.key.read = PmcSide{ra, 4, rs, 2};
  return pmc;
}

Event AccessEvent(VcpuId vcpu, AccessType type, GuestAddr addr, SiteId site, uint64_t value,
                  uint8_t len = 4) {
  Event e;
  e.kind = EventKind::kAccess;
  e.vcpu = vcpu;
  e.access.type = type;
  e.access.vcpu = vcpu;
  e.access.addr = addr;
  e.access.len = len;
  e.access.site = site;
  e.access.value = value;
  return e;
}

TEST(VerifyRaceTest, PredictedWithExactRange) {
  std::vector<Pmc> pmcs = {MakePmc(0x2000, 11, 0x2000, 22)};
  RaceReport race;
  race.write_site = 11;
  race.other_site = 22;
  race.addr = 0x2002;  // Inside the PMC ranges.
  RacePmcVerdict verdict = VerifyRaceAgainstPmcs(race, pmcs);
  EXPECT_TRUE(verdict.predicted);
  EXPECT_TRUE(verdict.exact_range);
  EXPECT_EQ(verdict.pmc_index, 0u);
}

TEST(VerifyRaceTest, PredictedBySitesOnly) {
  // The PMC pairs the same instructions but over a different object instance (§2.2: "the
  // actual address matters little, as long as reader and writer agree").
  std::vector<Pmc> pmcs = {MakePmc(0x2000, 11, 0x2000, 22)};
  RaceReport race;
  race.write_site = 11;
  race.other_site = 22;
  race.addr = 0x9000;
  RacePmcVerdict verdict = VerifyRaceAgainstPmcs(race, pmcs);
  EXPECT_TRUE(verdict.predicted);
  EXPECT_FALSE(verdict.exact_range);
}

TEST(VerifyRaceTest, RoleInsensitive) {
  std::vector<Pmc> pmcs = {MakePmc(0x2000, 11, 0x2000, 22)};
  RaceReport race;
  race.write_site = 22;  // Roles flipped (write/write race attribution).
  race.other_site = 11;
  race.addr = 0x2000;
  EXPECT_TRUE(VerifyRaceAgainstPmcs(race, pmcs).predicted);
}

TEST(VerifyRaceTest, UnpredictedRace) {
  std::vector<Pmc> pmcs = {MakePmc(0x2000, 11, 0x2000, 22)};
  RaceReport race;
  race.write_site = 33;
  race.other_site = 44;
  race.addr = 0x2000;
  EXPECT_FALSE(VerifyRaceAgainstPmcs(race, pmcs).predicted);
}

TEST(DescribeRaceTest, MentionsPredictionAndSites) {
  std::vector<Pmc> pmcs = {MakePmc(0x2000, 11, 0x2000, 22)};
  RaceReport race;
  race.write_site = 11;
  race.other_site = 22;
  race.addr = 0x2000;
  std::string text = DescribeRace(race, pmcs);
  EXPECT_NE(text.find("predicted by PMC #0"), std::string::npos);
  EXPECT_NE(text.find("exact range"), std::string::npos);

  race.write_site = 33;
  text = DescribeRace(race, pmcs);
  EXPECT_NE(text.find("incidental"), std::string::npos);
}

TEST(ExtractCommunicationsTest, FindsCrossThreadDataFlow) {
  Trace trace;
  trace.push_back(AccessEvent(0, AccessType::kWrite, 0x2000, 11, 5));
  trace.push_back(AccessEvent(1, AccessType::kRead, 0x2000, 22, 5));  // Sees the 5.
  std::vector<ObservedCommunication> comms = ExtractCommunications(trace);
  ASSERT_EQ(comms.size(), 1u);
  EXPECT_EQ(comms[0].writer_vcpu, 0);
  EXPECT_EQ(comms[0].reader_vcpu, 1);
  EXPECT_EQ(comms[0].write_site, 11u);
  EXPECT_EQ(comms[0].read_site, 22u);
}

TEST(ExtractCommunicationsTest, IgnoresSameThreadAndStaleReads) {
  Trace trace;
  trace.push_back(AccessEvent(0, AccessType::kWrite, 0x2000, 11, 5));
  trace.push_back(AccessEvent(0, AccessType::kRead, 0x2000, 12, 5));  // Same thread.
  trace.push_back(AccessEvent(1, AccessType::kRead, 0x2000, 22, 9));  // Stale value.
  EXPECT_TRUE(ExtractCommunications(trace).empty());
}

TEST(ExtractCommunicationsTest, BoundedResults) {
  Trace trace;
  for (int i = 0; i < 50; i++) {
    trace.push_back(AccessEvent(0, AccessType::kWrite, 0x2000, 11, i));
    trace.push_back(AccessEvent(1, AccessType::kRead, 0x2000, 22, i));
  }
  EXPECT_EQ(ExtractCommunications(trace, 10).size(), 10u);
}

TEST(FormatScheduleTailTest, RendersAccessesAndYields) {
  Trace trace;
  trace.push_back(AccessEvent(0, AccessType::kWrite, 0x2000, SB_SITE(), 5));
  Event yield;
  yield.kind = EventKind::kYield;
  yield.vcpu = 0;
  trace.push_back(yield);
  trace.push_back(AccessEvent(1, AccessType::kRead, 0x2000, SB_SITE(), 5));
  std::string text = FormatScheduleTail(trace);
  EXPECT_NE(text.find("[vcpu0] W"), std::string::npos);
  EXPECT_NE(text.find("yield"), std::string::npos);
  EXPECT_NE(text.find("[vcpu1] R"), std::string::npos);
}

TEST(PostmortemE2eTest, CampaignRaceIsPmcPredicted) {
  // End-to-end: the MAC race found through PMC-guided testing must verify against the PMC
  // set that generated the test.
  KernelVm vm;
  std::vector<Program> seeds = SeedPrograms();
  std::vector<Program> corpus = {seeds[2], seeds[3]};
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  ConcurrentTest test;
  test.writer = corpus[0];
  test.reader = corpus[1];
  for (const Pmc& pmc : pmcs) {
    test.hint = pmc.key;  // Any hint: both tests always run; the race oracle sees all.
    break;
  }
  ExplorerOptions options;
  options.num_trials = 16;
  ExploreOutcome outcome = ExploreConcurrentTest(vm, test, nullptr, options);
  // Each #9 race record's witness comes from replaying the record, which must reproduce
  // the record's detector fingerprint.
  bool verified = false;
  for (const FindingRecord& record : outcome.findings) {
    if (record.kind != FindingKind::kRace || record.issue_id != 9) {
      continue;
    }
    std::optional<ReplayToken> token = MakeReplayToken(test, record, options);
    ASSERT_TRUE(token.has_value());
    ReplayVerdict verdict = ReplayTokenTrial(vm, *token);
    EXPECT_EQ(verdict.fingerprint, record.fingerprint);
    for (const RaceReport& race : verdict.detectors.races) {
      if (race.Signature() == record.key) {
        verified = VerifyRaceAgainstPmcs(race, pmcs).predicted;
      }
    }
  }
  EXPECT_TRUE(verified);
}

}  // namespace
}  // namespace snowboard
