// Differential property test for PmcMatcher::FindIncidental (Algorithm 2 line 26): on
// random PMC tables and random traces, the dense-id search must return exactly what the
// brute-force search below returns — the same PMC indices in the same order, so the
// adoption draw made from them is the same. The reference is a reverse index from write
// feature to PMC indices, probed once per distinct write feature in first-occurrence trace
// order, each candidate's key and read side hashed on the spot. The tables share write
// features among PMCs, the current keys exclude some candidates, and the largest tables
// exceed the 64-match cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/snowboard/explorer.h"
#include "src/util/rng.h"

namespace snowboard {
namespace {

std::vector<uint32_t> BruteForceSearch(const std::vector<Pmc>& pmcs, size_t max_indexed,
                                       const Trace& trace,
                                       const std::unordered_set<uint64_t>& current_keys) {
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_write_feature;
  for (uint32_t i = 0; i < std::min(pmcs.size(), max_indexed); i++) {
    const PmcSide& w = pmcs[i].key.write;
    by_write_feature[AccessFeatureHash(AccessType::kWrite, w.addr, w.len, w.site, w.value)]
        .push_back(i);
  }
  std::vector<uint64_t> write_order;
  std::unordered_set<uint64_t> writes;
  std::unordered_set<uint64_t> reads;
  for (const Event& event : trace) {
    if (event.kind != EventKind::kAccess) {
      continue;
    }
    const Access& a = event.access;
    uint64_t h = AccessFeatureHash(a.type, a.addr, a.len, a.site, a.value);
    if (a.type == AccessType::kWrite) {
      if (writes.insert(h).second) {
        write_order.push_back(h);
      }
    } else {
      reads.insert(h);
    }
  }
  std::vector<uint32_t> matches;
  for (uint64_t write_feature : write_order) {
    auto it = by_write_feature.find(write_feature);
    if (it == by_write_feature.end()) {
      continue;
    }
    for (uint32_t index : it->second) {
      const PmcKey& key = pmcs[index].key;
      const PmcSide& r = key.read;
      if (current_keys.count(key.Hash()) != 0 ||
          reads.count(AccessFeatureHash(AccessType::kRead, r.addr, r.len, r.site,
                                        r.value)) == 0) {
        continue;
      }
      matches.push_back(index);
      if (matches.size() >= 64) {
        return matches;
      }
    }
  }
  return matches;
}

// A small feature pool, so write sides repeat across PMCs and trace accesses hit them.
PmcSide RandomSide(Rng& rng, uint32_t pool) {
  uint32_t id = static_cast<uint32_t>(rng.Below(pool));
  return PmcSide{0x1000 + 4 * (id % 16), static_cast<uint8_t>(1u << (id % 3)), 100 + id,
                 id % 5};
}

Event AccessOf(const PmcSide& side, AccessType type, VcpuId vcpu) {
  Event event;
  event.vcpu = vcpu;
  event.access.type = type;
  event.access.vcpu = vcpu;
  event.access.addr = side.addr;
  event.access.len = side.len;
  event.access.site = side.site;
  event.access.value = side.value;
  return event;
}

TEST(IncidentalSearchProperty, MatchesBruteForceOnRandomTables) {
  size_t capped = 0;
  size_t partial = 0;
  size_t excluded = 0;
  PmcMatcher::Search search;  // One search serves every table and trial.
  for (uint64_t seed = 1; seed <= 200; seed++) {
    Rng rng(seed);
    const uint32_t pool = 4 + static_cast<uint32_t>(rng.Below(60));
    std::vector<Pmc> pmcs(rng.Below(400));
    for (Pmc& pmc : pmcs) {
      pmc.key.write = RandomSide(rng, pool);
      pmc.key.read = RandomSide(rng, pool);
      pmc.key.df_leader = rng.Chance(1, 8);
    }
    const size_t max_indexed = rng.Chance(1, 3) ? rng.Below(pmcs.size() + 1) : pmcs.size();
    PmcMatcher matcher(&pmcs, max_indexed);

    for (int trial = 0; trial < 6; trial++) {
      std::unordered_set<uint64_t> current_keys;
      FlatSet<uint64_t> current_flat;
      for (uint64_t k = rng.Below(4); k > 0 && !pmcs.empty(); k--) {
        uint64_t hash = pmcs[rng.Below(pmcs.size())].key.Hash();
        current_keys.insert(hash);
        current_flat.Insert(hash);
      }
      Trace trace;
      for (uint64_t n = rng.Below(300); n > 0; n--) {
        const VcpuId vcpu = static_cast<VcpuId>(rng.Below(2));
        if (rng.Chance(1, 10)) {
          Event yield;
          yield.kind = EventKind::kYield;
          yield.vcpu = vcpu;
          trace.push_back(yield);
          continue;
        }
        const AccessType type = rng.Coin() ? AccessType::kWrite : AccessType::kRead;
        // Mostly pool features (PMC sides); sometimes a feature no PMC has.
        PmcSide side = RandomSide(rng, pool + 8);
        trace.push_back(AccessOf(side, type, vcpu));
      }

      std::vector<uint32_t> expected = BruteForceSearch(pmcs, max_indexed, trace, current_keys);
      matcher.FindIncidental(trace, current_flat, &search);
      ASSERT_EQ(search.matches(), expected) << "seed " << seed << " trial " << trial;

      capped += expected.size() == PmcMatcher::kMaxMatches ? 1 : 0;
      partial += !expected.empty() && expected.size() < PmcMatcher::kMaxMatches ? 1 : 0;
      excluded += BruteForceSearch(pmcs, max_indexed, trace, {}) != expected ? 1 : 0;
    }
  }
  // The generator must reach every regime the search distinguishes.
  EXPECT_GT(capped, 20u);
  EXPECT_GT(partial, 20u);
  EXPECT_GT(excluded, 20u);
}

}  // namespace
}  // namespace snowboard
