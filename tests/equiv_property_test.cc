// Schedule-equivalence pruning (src/snowboard/equiv.h): property tests for the
// happens-before fingerprint, units for the adaptive site table, and the
// prune-on vs prune-off A/B over the reference campaign.
//
// The fingerprint's contract is an iff: two trials hash equal exactly when they realize
// the same communication-edge sequence (modulo 64-bit collisions, which the seeded sweeps
// below would surface deterministically). Switch points are invariant by design — see
// equiv.h. Both directions are checked — random traces against an independently-computed
// canonical sequence, plus targeted mutations that must (or must not) move the hash.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/snowboard/equiv.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/report_html.h"
#include "src/util/counters.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "tests/golden.h"

namespace snowboard {
namespace {

// --- Fingerprint ⇔ canonical-sequence property on random traces. ---

// Independent oracle: the canonical communication description of a trace, computed with
// plain containers and no hashing. Two traces are detector-equivalent for the fingerprint
// iff their canonical strings are equal.
std::string CanonicalSequence(const Trace& trace) {
  std::map<uint64_t, std::pair<SiteId, VcpuId>> last_write;  // addr -> (site, vcpu).
  std::string out;
  for (const Event& event : trace) {
    if (event.kind != EventKind::kAccess) continue;  // Yields are not communication.
    const Access& access = event.access;
    if (access.type == AccessType::kWrite) {
      last_write[access.addr] = {access.site, access.vcpu};
    } else {
      auto it = last_write.find(access.addr);
      if (it != last_write.end() && it->second.second != access.vcpu) {
        StrAppendf(&out, "E %llu %llu %llu %llu\n",
                   static_cast<unsigned long long>(it->second.first),
                   static_cast<unsigned long long>(access.site),
                   static_cast<unsigned long long>(access.addr),
                   static_cast<unsigned long long>(access.value));
      }
    }
  }
  return out;
}

Event AccessEvent(VcpuId vcpu, AccessType type, GuestAddr addr, uint64_t value,
                  SiteId site) {
  Event event;
  event.kind = EventKind::kAccess;
  event.vcpu = vcpu;
  event.access.type = type;
  event.access.vcpu = vcpu;
  event.access.addr = addr;
  event.access.len = 4;
  event.access.value = value;
  event.access.site = site;
  return event;
}

Event YieldEvent(VcpuId vcpu) {
  Event event;
  event.kind = EventKind::kYield;
  event.vcpu = vcpu;
  return event;
}

// Small pools everywhere so random traces collide: shared addresses, repeated sites,
// repeated values — the regime where duplicate communication sequences actually occur.
Trace RandomTrace(Rng& rng) {
  Trace trace;
  size_t length = 4 + rng.Below(24);
  for (size_t i = 0; i < length; i++) {
    uint64_t roll = rng.Below(10);
    VcpuId vcpu = static_cast<VcpuId>(rng.Below(3));
    if (roll < 2) {
      trace.push_back(YieldEvent(vcpu));
    } else {
      AccessType type = rng.Coin() ? AccessType::kWrite : AccessType::kRead;
      GuestAddr addr = 0x1000 + 4 * static_cast<GuestAddr>(rng.Below(4));
      uint64_t value = rng.Below(3);
      SiteId site = 100 + rng.Below(5);
      trace.push_back(AccessEvent(vcpu, type, addr, value, site));
    }
  }
  return trace;
}

class HbFingerprintProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HbFingerprintProperty, EqualityMatchesCanonicalSequence) {
  Rng rng(GetParam());
  HbScratch scratch;
  std::map<std::string, uint64_t> canonical_to_fp;
  std::map<uint64_t, std::string> fp_to_canonical;
  int duplicate_sequences = 0;
  for (int i = 0; i < 400; i++) {
    Trace trace = RandomTrace(rng);
    uint64_t fp = HbFingerprint(trace, &scratch);
    std::string canonical = CanonicalSequence(trace);

    auto [fwd, fwd_new] = canonical_to_fp.try_emplace(canonical, fp);
    if (!fwd_new) {
      // Same communication sequence must hash identically (completeness).
      ASSERT_EQ(fwd->second, fp) << "canonical:\n" << canonical;
      duplicate_sequences++;
    }
    auto [rev, rev_new] = fp_to_canonical.try_emplace(fp, canonical);
    if (!rev_new) {
      // Same hash must mean the same sequence (soundness / no collision observed).
      ASSERT_EQ(rev->second, canonical) << "fp=" << fp;
    }
  }
  // The pools are small enough that the sweep genuinely exercises the completeness
  // direction; if this ever fails, shrink the pools rather than deleting the assert.
  EXPECT_GT(duplicate_sequences, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HbFingerprintProperty, ::testing::Values(1, 2, 3, 4, 5));

// --- Targeted invariance: changes invisible to the communication skeleton. ---

TEST(HbFingerprintTest, IgnoresNonCommunicatingDetail) {
  Trace base = {
      AccessEvent(0, AccessType::kWrite, 0x1000, 7, 101),
      AccessEvent(1, AccessType::kRead, 0x1000, 7, 202),  // Cross-vCPU edge.
      YieldEvent(1),
  };
  HbScratch scratch;
  uint64_t fp = HbFingerprint(base, &scratch);
  ASSERT_EQ(scratch.edge_sites.size(), 2u);

  // Same-vCPU read-after-write on a fresh address adds no edge.
  Trace same_vcpu = base;
  same_vcpu.insert(same_vcpu.begin(),
                   {AccessEvent(2, AccessType::kWrite, 0x2000, 1, 300),
                    AccessEvent(2, AccessType::kRead, 0x2000, 1, 300)});
  EXPECT_EQ(HbFingerprint(same_vcpu, &scratch), fp);

  // Lock events carry no communication either.
  Trace with_lock = base;
  Event lock;
  lock.kind = EventKind::kLockAcquire;
  lock.vcpu = 0;
  lock.lock_addr = 0x3000;
  with_lock.insert(with_lock.begin(), lock);
  EXPECT_EQ(HbFingerprint(with_lock, &scratch), fp);

  // A read with no prior write is not an edge, whatever its value.
  Trace cold_read = base;
  cold_read.insert(cold_read.begin(), AccessEvent(1, AccessType::kRead, 0x4000, 9, 400));
  EXPECT_EQ(HbFingerprint(cold_read, &scratch), fp);

  // Switch points are schedule identity, not communication: adding, removing, or moving
  // yields never moves the hash (every seeded trial's schedule is unique, so folding
  // yields in would make pruning vacuous — see equiv.h).
  Trace no_yield = {base[0], base[1]};
  EXPECT_EQ(HbFingerprint(no_yield, &scratch), fp);
  Trace other_yielder = base;
  other_yielder[2].vcpu = 0;
  EXPECT_EQ(HbFingerprint(other_yielder, &scratch), fp);
  Trace extra_yields = base;
  extra_yields.insert(extra_yields.begin(), YieldEvent(2));
  extra_yields.push_back(YieldEvent(0));
  EXPECT_EQ(HbFingerprint(extra_yields, &scratch), fp);
}

TEST(HbFingerprintTest, SensitiveToEveryEdgeFeature) {
  Trace base = {
      AccessEvent(0, AccessType::kWrite, 0x1000, 7, 101),
      AccessEvent(1, AccessType::kRead, 0x1000, 7, 202),
      YieldEvent(1),
  };
  HbScratch scratch;
  uint64_t fp = HbFingerprint(base, &scratch);

  Trace other_value = base;
  other_value[1].access.value = 8;
  EXPECT_NE(HbFingerprint(other_value, &scratch), fp);

  Trace other_read_site = base;
  other_read_site[1].access.site = 203;
  EXPECT_NE(HbFingerprint(other_read_site, &scratch), fp);

  Trace other_write_site = base;
  other_write_site[0].access.site = 102;
  EXPECT_NE(HbFingerprint(other_write_site, &scratch), fp);

  Trace other_addr = base;
  other_addr[0].access.addr = 0x2000;
  other_addr[1].access.addr = 0x2000;
  EXPECT_NE(HbFingerprint(other_addr, &scratch), fp);

  // Order sensitivity: the same two edges in the opposite order hash differently.
  Trace ab = {
      AccessEvent(0, AccessType::kWrite, 0x1000, 1, 101),
      AccessEvent(1, AccessType::kRead, 0x1000, 1, 201),
      AccessEvent(0, AccessType::kWrite, 0x2000, 2, 102),
      AccessEvent(1, AccessType::kRead, 0x2000, 2, 202),
  };
  Trace ba = {ab[2], ab[3], ab[0], ab[1]};
  EXPECT_NE(HbFingerprint(ab, &scratch), HbFingerprint(ba, &scratch));
}

TEST(HbFingerprintTest, EdgesOutDecodesTheEdgeList) {
  Trace trace = {
      AccessEvent(0, AccessType::kWrite, 0x1000, 7, 101),
      AccessEvent(1, AccessType::kRead, 0x1000, 7, 202),
      AccessEvent(1, AccessType::kWrite, 0x1000, 3, 203),
      AccessEvent(0, AccessType::kRead, 0x1000, 3, 104),
  };
  HbScratch scratch;
  std::vector<HbEdge> edges;
  HbFingerprint(trace, &scratch, &edges);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (HbEdge{101, 202, 0x1000, 7}));
  EXPECT_EQ(edges[1], (HbEdge{203, 104, 0x1000, 3}));
  // edge_sites carries both endpoints of each edge, in trace order.
  EXPECT_EQ(scratch.edge_sites, (std::vector<SiteId>{101, 202, 203, 104}));
}

// --- AdaptiveSiteTable units. ---

TEST(AdaptiveSiteTableTest, RecordedSitesAreHotUntilClear) {
  AdaptiveSiteTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.IsHot(7));
  table.Record(7);
  EXPECT_FALSE(table.empty());
  table.Record(9);
  table.Record(7);
  EXPECT_TRUE(table.IsHot(7));
  EXPECT_TRUE(table.IsHot(9));
  EXPECT_FALSE(table.IsHot(8));
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.IsHot(7));
  EXPECT_FALSE(table.IsHot(9));
  table.Record(8);  // A cleared table learns afresh.
  EXPECT_TRUE(table.IsHot(8));
  EXPECT_FALSE(table.IsHot(7));
}

// --- Prune-on vs prune-off A/B over the reference campaign. ---

PipelineOptions ReferenceOptions(bool prune, int num_workers = 2) {
  PipelineOptions options = ReferenceCampaignOptions(num_workers);
  options.explorer.prune.enabled = prune;
  return options;
}

TEST(PruneAbTest, PruneFindsSameIssuesWithFewerTrials) {
  ResetPipelineCounters();
  PipelineResult off = RunSnowboardPipeline(ReferenceOptions(false));
  ResetPipelineCounters();
  PipelineResult on = RunSnowboardPipeline(ReferenceOptions(true));

  // Identical masked issue set: pruning skips only detector-equivalent trials and ends
  // only saturated tests, so every distinct issue the unpruned campaign finds survives.
  ASSERT_FALSE(off.findings.first_findings().empty());
  std::vector<int> issues_off, issues_on;
  for (const auto& [issue, finding] : off.findings.first_findings()) {
    issues_off.push_back(issue);
  }
  for (const auto& [issue, finding] : on.findings.first_findings()) {
    issues_on.push_back(issue);
  }
  EXPECT_EQ(issues_on, issues_off);

  // The budget criterion: >= 25% fewer trial executions, and the funnel knows why.
  EXPECT_GT(on.trials_pruned, 0u);
  EXPECT_GT(on.tests_saturated, 0u);
  EXPECT_LE(on.total_trials * 4, off.total_trials * 3)
      << "prune-on ran " << on.total_trials << " trials vs " << off.total_trials;
  EXPECT_EQ(off.trials_pruned, 0u);
  EXPECT_EQ(off.tests_saturated, 0u);
  EXPECT_EQ(off.tests_executed, on.tests_executed);
}

// Pruning must not cost the determinism bar: the masked report of a prune-on campaign is
// byte-identical across worker counts (each test's prune state lives in its own trial
// loop, and outcomes fold in test-index order whichever worker ran them). Compared against
// the 1-worker run, not a golden, so the prune lane stays independent of the checkout path.
TEST(PruneAbTest, PruneOnMaskedReportInvariantAcrossWorkers) {
  auto masked_report = [](int workers) {
    ResetPipelineCounters();
    PipelineOptions options = ReferenceOptions(true, workers);
    PipelineResult result = RunSnowboardPipeline(options);
    CampaignReport report = BuildCampaignReport(options, result);
    return MaskReportVolatile(RenderReportJson(report));
  };
  std::string base = masked_report(1);
  ASSERT_FALSE(base.empty());
  for (int workers : {2, 4, 8}) {
    EXPECT_EQ(masked_report(workers), base) << "workers=" << workers;
  }
  // The funnel carries the prune rows.
  EXPECT_NE(base.find("\"stage\": \"trials_pruned\""), std::string::npos);
  EXPECT_NE(base.find("\"stage\": \"tests_saturated\""), std::string::npos);
  EXPECT_NE(base.find("\"switch_decisions\""), std::string::npos);
}

}  // namespace
}  // namespace snowboard
