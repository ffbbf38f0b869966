// Property test for the ordered-nested-index PMC identification (§4.2.1): on randomized
// synthetic profiles — overlapping ranges, partial-width reads, equal-value
// non-communications, failed tests, double-fetch flags — IdentifyPmcs must agree with a
// naive O(n²) reference enumerator on the full PMC relation (keys AND test-pair
// multiplicities), and a capped run must return exactly the prefix of the uncapped table.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "src/snowboard/pmc.h"
#include "src/snowboard/stats.h"
#include "src/util/rng.h"

namespace snowboard {
namespace {

// (addr, len, site, value) — ordered so it can key a std::map.
using SideTuple = std::tuple<GuestAddr, int, SiteId, uint64_t>;
// (write side, read side, df_leader) -> total test-pair multiplicity.
using PmcRelation = std::map<std::tuple<SideTuple, SideTuple, bool>, uint64_t>;

SideTuple ToTuple(const PmcSide& side) {
  return {side.addr, side.len, side.site, side.value};
}

SharedAccess RandomAccess(Rng& rng) {
  SharedAccess a;
  a.type = rng.Coin() ? AccessType::kWrite : AccessType::kRead;
  // Byte-granular starts in a small window force overlapping and straddling ranges.
  a.addr = 0x4000 + static_cast<GuestAddr>(rng.Below(40));
  a.len = static_cast<uint8_t>(1u << rng.Below(4));  // 1/2/4/8: partial-width overlaps.
  a.site = 200 + rng.Below(8);
  // Values drawn from a tiny set make equal-value non-communications common; mask to the
  // access width as a real load/store would.
  a.value = rng.Below(6) * 0x0101010101010101ull;
  if (a.len < 8) {
    a.value &= (1ull << (8 * a.len)) - 1;
  }
  return a;
}

std::vector<SequentialProfile> RandomProfiles(Rng& rng) {
  std::vector<SequentialProfile> profiles;
  int num_tests = 3 + static_cast<int>(rng.Below(4));
  for (int t = 0; t < num_tests; t++) {
    SequentialProfile profile;
    profile.test_id = t;
    // An occasional failed test: its accesses must be ignored by every implementation.
    profile.ok = rng.Below(8) != 0;
    int n = 5 + static_cast<int>(rng.Below(25));
    for (int i = 0; i < n; i++) {
      SharedAccess a = RandomAccess(rng);
      a.index = static_cast<uint32_t>(i);
      profile.accesses.push_back(a);
    }
    ComputeDoubleFetchLeaders(&profile.accesses);  // Realistic df_leader flags.
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

// The O(n²) reference: aggregate unique sides with exact test sets, then check every
// write-key × read-key combination directly — no ordered index, no scan window.
PmcRelation NaiveReference(const std::vector<SequentialProfile>& profiles) {
  struct NaiveSide {
    std::set<int> tests;
    bool df_leader = false;
  };
  std::map<SideTuple, NaiveSide> writes;
  std::map<SideTuple, NaiveSide> reads;
  for (const SequentialProfile& profile : profiles) {
    if (!profile.ok) {
      continue;
    }
    for (const SharedAccess& a : profile.accesses) {
      PmcSide side{a.addr, a.len, a.site, a.value};
      NaiveSide& record =
          (a.type == AccessType::kWrite ? writes : reads)[ToTuple(side)];
      record.tests.insert(profile.test_id);
      record.df_leader = record.df_leader || a.df_leader;
    }
  }

  PmcRelation relation;
  for (const auto& [w_key, w] : writes) {
    const auto& [w_addr, w_len, w_site, w_value] = w_key;
    for (const auto& [r_key, r] : reads) {
      const auto& [r_addr, r_len, r_site, r_value] = r_key;
      GuestAddr ov_start = std::max(w_addr, r_addr);
      GuestAddr ov_end = std::min<GuestAddr>(w_addr + w_len, r_addr + r_len);
      if (ov_start >= ov_end) {
        continue;
      }
      uint32_t ov_len = ov_end - ov_start;
      if (ProjectValue(w_addr, w_len, w_value, ov_start, ov_len) ==
          ProjectValue(r_addr, r_len, r_value, ov_start, ov_len)) {
        continue;  // Equal projected values: not a communication.
      }
      relation[{w_key, r_key, r.df_leader}] =
          static_cast<uint64_t>(w.tests.size()) * static_cast<uint64_t>(r.tests.size());
    }
  }
  return relation;
}

PmcRelation ToRelation(const std::vector<Pmc>& pmcs) {
  PmcRelation relation;
  for (const Pmc& pmc : pmcs) {
    auto [it, inserted] = relation.try_emplace(
        std::tuple{ToTuple(pmc.key.write), ToTuple(pmc.key.read), pmc.key.df_leader},
        pmc.total_pairs);
    EXPECT_TRUE(inserted) << "duplicate PMC key in identified table";
  }
  return relation;
}

class PmcIdentifyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PmcIdentifyProperty, ScanMatchesNaiveReference) {
  Rng rng(GetParam());
  for (int round = 0; round < 12; round++) {
    std::vector<SequentialProfile> profiles = RandomProfiles(rng);
    ASSERT_EQ(ToRelation(IdentifyPmcs(profiles)), NaiveReference(profiles))
        << "round " << round;
  }
}

TEST_P(PmcIdentifyProperty, CapKeepsPrefixOfUncappedTable) {
  Rng rng(GetParam() ^ 0xbeef);
  std::vector<SequentialProfile> profiles = RandomProfiles(rng);

  std::vector<Pmc> full = IdentifyPmcs(profiles);
  if (full.size() < 2) {
    GTEST_SKIP() << "profile draw produced too few PMCs to truncate";
  }
  for (size_t cap : {size_t{0}, size_t{1}, full.size() / 2, full.size() - 1}) {
    std::vector<Pmc> capped = IdentifyPmcs(profiles, cap);
    ASSERT_EQ(capped.size(), cap);
    // Byte-identity with the prefix, not just the same relation: order, multiplicities,
    // and sampled exemplar pairs all survive the cap.
    EXPECT_EQ(PmcTableDigest(capped),
              PmcTableDigest(std::vector<Pmc>(full.begin(), full.begin() + cap)))
        << "cap " << cap;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmcIdentifyProperty,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace snowboard
