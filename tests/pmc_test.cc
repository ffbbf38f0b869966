// Tests for PMC identification (Algorithm 1): value projection, overlap detection, the
// value-differs condition, test-pair bookkeeping, and end-to-end identification on real
// kernel profiles.
#include <gtest/gtest.h>

#include "src/fuzz/generator.h"
#include "src/fuzz/program.h"
#include "src/snowboard/pmc.h"
#include "src/snowboard/profile.h"

namespace snowboard {
namespace {

SharedAccess MakeAccess(AccessType type, GuestAddr addr, uint8_t len, SiteId site,
                        uint64_t value) {
  SharedAccess a;
  a.type = type;
  a.addr = addr;
  a.len = len;
  a.site = site;
  a.value = value;
  return a;
}

SequentialProfile MakeProfile(int test_id, std::vector<SharedAccess> accesses) {
  SequentialProfile p;
  p.test_id = test_id;
  p.ok = true;
  p.accesses = std::move(accesses);
  return p;
}

TEST(ProjectValueTest, IdentityProjection) {
  EXPECT_EQ(ProjectValue(0x100, 4, 0xAABBCCDD, 0x100, 4), 0xAABBCCDDu);
}

TEST(ProjectValueTest, SubrangeProjection) {
  // Little-endian: byte at 0x101 is 0xCC.
  EXPECT_EQ(ProjectValue(0x100, 4, 0xAABBCCDD, 0x101, 1), 0xCCu);
  EXPECT_EQ(ProjectValue(0x100, 4, 0xAABBCCDD, 0x100, 2), 0xCCDDu);
  EXPECT_EQ(ProjectValue(0x100, 4, 0xAABBCCDD, 0x102, 2), 0xAABBu);
}

TEST(ProjectValueTest, EightByteNoMask) {
  EXPECT_EQ(ProjectValue(0x100, 8, 0x1122334455667788ull, 0x100, 8),
            0x1122334455667788ull);
  EXPECT_EQ(ProjectValue(0x100, 8, 0x1122334455667788ull, 0x104, 4), 0x11223344u);
}

TEST(IdentifyPmcsTest, BasicWriteReadPmc) {
  // Test 0 writes 5 to X; test 1 reads 0 from X: values differ on the overlap => PMC.
  std::vector<SequentialProfile> profiles;
  profiles.push_back(MakeProfile(0, {MakeAccess(AccessType::kWrite, 0x2000, 4, 10, 5)}));
  profiles.push_back(MakeProfile(1, {MakeAccess(AccessType::kRead, 0x2000, 4, 20, 0)}));
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  ASSERT_EQ(pmcs.size(), 1u);
  EXPECT_EQ(pmcs[0].key.write.site, 10u);
  EXPECT_EQ(pmcs[0].key.read.site, 20u);
  ASSERT_EQ(pmcs[0].pairs.size(), 1u);
  EXPECT_EQ(pmcs[0].pairs[0].write_test, 0);
  EXPECT_EQ(pmcs[0].pairs[0].read_test, 1);
}

TEST(IdentifyPmcsTest, EqualValuesAreNotPmcs) {
  std::vector<SequentialProfile> profiles;
  profiles.push_back(MakeProfile(0, {MakeAccess(AccessType::kWrite, 0x2000, 4, 10, 7)}));
  profiles.push_back(MakeProfile(1, {MakeAccess(AccessType::kRead, 0x2000, 4, 20, 7)}));
  EXPECT_TRUE(IdentifyPmcs(profiles).empty());
}

TEST(IdentifyPmcsTest, NonOverlappingRangesAreNotPmcs) {
  std::vector<SequentialProfile> profiles;
  profiles.push_back(MakeProfile(0, {MakeAccess(AccessType::kWrite, 0x2000, 4, 10, 5)}));
  profiles.push_back(MakeProfile(1, {MakeAccess(AccessType::kRead, 0x2004, 4, 20, 0)}));
  EXPECT_TRUE(IdentifyPmcs(profiles).empty());
}

TEST(IdentifyPmcsTest, PartialOverlapProjectsCorrectly) {
  // Write [0x2000,4) value 0x00000005; read [0x2002,4) value 0x00000000. Overlap is
  // [0x2002, 0x2004): write bytes there are 0x0000, read bytes 0x0000 -> equal -> NOT a
  // PMC despite the full values differing.
  std::vector<SequentialProfile> profiles;
  profiles.push_back(MakeProfile(0, {MakeAccess(AccessType::kWrite, 0x2000, 4, 10, 5)}));
  profiles.push_back(MakeProfile(1, {MakeAccess(AccessType::kRead, 0x2002, 4, 20, 0)}));
  EXPECT_TRUE(IdentifyPmcs(profiles).empty());

  // Now make the write's high bytes nonzero: overlap bytes differ -> PMC.
  profiles[0] = MakeProfile(0, {MakeAccess(AccessType::kWrite, 0x2000, 4, 10, 0x00AA0005)});
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  ASSERT_EQ(pmcs.size(), 1u);
  EXPECT_TRUE(pmcs[0].key.read.addr != pmcs[0].key.write.addr);
}

TEST(IdentifyPmcsTest, UnalignedDifferentLengthsOverlap) {
  // 1-byte write into the middle of a 4-byte read.
  std::vector<SequentialProfile> profiles;
  profiles.push_back(
      MakeProfile(0, {MakeAccess(AccessType::kWrite, 0x2001, 1, 10, 0xFF)}));
  profiles.push_back(MakeProfile(1, {MakeAccess(AccessType::kRead, 0x2000, 4, 20, 0)}));
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  ASSERT_EQ(pmcs.size(), 1u);
  EXPECT_EQ(pmcs[0].key.write.len, 1);
  EXPECT_EQ(pmcs[0].key.read.len, 4);
}

TEST(IdentifyPmcsTest, SameTestCanPairWithItself) {
  // One test both writes and reads the cell (duplicate-pairing material).
  std::vector<SequentialProfile> profiles;
  profiles.push_back(MakeProfile(0, {MakeAccess(AccessType::kWrite, 0x2000, 4, 10, 5),
                                     MakeAccess(AccessType::kRead, 0x2000, 4, 20, 9)}));
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  ASSERT_EQ(pmcs.size(), 1u);
  EXPECT_EQ(pmcs[0].pairs[0].write_test, 0);
  EXPECT_EQ(pmcs[0].pairs[0].read_test, 0);
}

TEST(IdentifyPmcsTest, MultipleTestsAggregateOnOneKey) {
  std::vector<SequentialProfile> profiles;
  for (int t = 0; t < 5; t++) {
    profiles.push_back(
        MakeProfile(t, {MakeAccess(AccessType::kWrite, 0x2000, 4, 10, 5),
                        MakeAccess(AccessType::kRead, 0x3000, 4, 20, 0)}));
  }
  profiles.push_back(MakeProfile(5, {MakeAccess(AccessType::kRead, 0x2000, 4, 30, 0)}));
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  ASSERT_EQ(pmcs.size(), 1u);
  EXPECT_EQ(pmcs[0].total_pairs, 5u);  // 5 writer tests x 1 reader test.
}

TEST(IdentifyPmcsTest, DfLeaderPropagatesToKey) {
  std::vector<SequentialProfile> profiles;
  SharedAccess leader = MakeAccess(AccessType::kRead, 0x2000, 4, 20, 0);
  leader.df_leader = true;
  profiles.push_back(MakeProfile(0, {MakeAccess(AccessType::kWrite, 0x2000, 4, 10, 5)}));
  profiles.push_back(MakeProfile(1, {leader}));
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  ASSERT_EQ(pmcs.size(), 1u);
  EXPECT_TRUE(pmcs[0].key.df_leader);
}

TEST(IdentifyPmcsTest, MaxPmcCapRespected) {
  std::vector<SequentialProfile> profiles;
  std::vector<SharedAccess> writes;
  std::vector<SharedAccess> reads;
  for (uint64_t v = 0; v < 20; v++) {
    writes.push_back(MakeAccess(AccessType::kWrite, 0x2000, 4, 10, 100 + v));
    reads.push_back(MakeAccess(AccessType::kRead, 0x2000, 4, 20, v));
  }
  profiles.push_back(MakeProfile(0, writes));
  profiles.push_back(MakeProfile(1, reads));
  EXPECT_EQ(IdentifyPmcs(profiles, /*max_pmcs=*/50).size(), 50u);
}

TEST(IdentifyPmcsTest, EndToEndL2tpChannelIdentified) {
  // Profile the two Figure 1 tests; among the identified PMCs there must be one whose
  // write is the l2tp list publish and whose read is the reader's list-head load.
  KernelVm vm;
  std::vector<Program> seeds = SeedPrograms();
  std::vector<Program> corpus = {seeds[0], seeds[1]};  // l2tp writer & reader programs.
  std::vector<SequentialProfile> profiles = ProfileCorpus(vm, corpus);
  std::vector<Pmc> pmcs = IdentifyPmcs(profiles);
  EXPECT_GT(pmcs.size(), 0u);
  GuestAddr list_head = vm.globals().l2tp + 4;  // kL2tpListHead.
  bool found_publish_channel = false;
  for (const Pmc& pmc : pmcs) {
    if (pmc.key.write.addr == list_head && pmc.key.read.addr == list_head &&
        pmc.key.write.value != 0) {
      found_publish_channel = true;
    }
  }
  EXPECT_TRUE(found_publish_channel);
}

}  // namespace
}  // namespace snowboard
