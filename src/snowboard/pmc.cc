#include "src/snowboard/pmc.h"

#include <algorithm>
#include <unordered_map>

#include "src/util/assert.h"
#include "src/util/hash.h"

namespace snowboard {

namespace {

// Aggregation of all occurrences of one unique access key across the corpus.
struct SideRecord {
  PmcSide side;
  bool df_leader = false;           // Any occurrence led a double fetch (reads only).
  std::vector<int> tests;           // Distinct tests exhibiting it (capped).
  uint64_t total_tests = 0;
  int last_test = -1;               // Dedup helper (profiles are visited in test order).
};

uint64_t SideHash(const PmcSide& side) {
  return HashAll(side.addr, side.len, side.site, side.value);
}

// The ordered nested index (§4.2.1): start address, then range length, then site. Keys are
// unique per record (the table dedups on the full tuple), so the unstable sort is still
// deterministic.
void SortNestedIndex(std::vector<SideRecord>* records) {
  std::sort(records->begin(), records->end(), [](const SideRecord& a, const SideRecord& b) {
    if (a.side.addr != b.side.addr) {
      return a.side.addr < b.side.addr;
    }
    if (a.side.len != b.side.len) {
      return a.side.len < b.side.len;
    }
    if (a.side.site != b.side.site) {
      return a.side.site < b.side.site;
    }
    return a.side.value < b.side.value;
  });
}

// Per-type unique-key table. Record order is first-encounter order: profiles are added in
// corpus order and accesses in program order.
struct SideTable {
  std::unordered_map<uint64_t, size_t> index;
  std::vector<SideRecord> records;

  void Add(const SharedAccess& access, int test_id) {
    PmcSide side{access.addr, access.len, access.site, access.value};
    uint64_t h = SideHash(side);
    auto [it, inserted] = index.try_emplace(h, records.size());
    if (inserted) {
      records.push_back(SideRecord{side, access.df_leader, {test_id}, 1, test_id});
      return;
    }
    SideRecord& record = records[it->second];
    record.df_leader = record.df_leader || access.df_leader;
    if (record.last_test != test_id) {
      // Profiles arrive in test order, so a test-id change means a new test.
      record.last_test = test_id;
      record.total_tests++;
      if (record.tests.size() < kMaxPairsPerPmc) {
        record.tests.push_back(test_id);
      }
    }
  }
};

}  // namespace

uint64_t PmcKey::Hash() const {
  return HashAll(write.addr, write.len, write.site, write.value, read.addr, read.len,
                 read.site, read.value, static_cast<uint64_t>(df_leader));
}

uint64_t ProjectValue(GuestAddr addr, uint32_t len, uint64_t value, GuestAddr ov_start,
                      uint32_t ov_len) {
  SB_DCHECK(ov_start >= addr && ov_start + ov_len <= addr + len);
  uint32_t shift_bytes = ov_start - addr;
  uint64_t shifted = value >> (8 * shift_bytes);
  if (ov_len >= 8) {
    return shifted;
  }
  uint64_t mask = (1ull << (8 * ov_len)) - 1;
  return shifted & mask;
}

std::vector<Pmc> IdentifyPmcs(const std::vector<SequentialProfile>& profiles,
                              size_t max_pmcs) {
  SideTable writes;
  SideTable reads;
  for (const SequentialProfile& profile : profiles) {
    if (!profile.ok) {
      continue;
    }
    for (const SharedAccess& access : profile.accesses) {
      (access.type == AccessType::kWrite ? writes : reads).Add(access, profile.test_id);
    }
  }
  SortNestedIndex(&writes.records);
  SortNestedIndex(&reads.records);

  // Lines 6-15 of Algorithm 1: scan read/write overlaps through the ordered index. Ranges
  // are at most 8 bytes, so for a write starting at `a` only reads starting in (a-8,
  // a+len) can overlap. Output is appended in index order.
  std::vector<Pmc> pmcs;
  for (const SideRecord& w : writes.records) {
    GuestAddr window_start = w.side.addr >= 8 ? w.side.addr - 8 : 0;
    auto it = std::lower_bound(reads.records.begin(), reads.records.end(), window_start,
                               [](const SideRecord& r, GuestAddr addr) {
                                 return r.side.addr < addr;
                               });
    for (; it != reads.records.end() && it->side.addr < w.side.end(); ++it) {
      const SideRecord& r = *it;
      GuestAddr ov_start = std::max(w.side.addr, r.side.addr);
      GuestAddr ov_end = std::min(w.side.end(), r.side.end());
      if (ov_start >= ov_end) {
        continue;
      }
      uint32_t ov_len = ov_end - ov_start;
      uint64_t read_value =
          ProjectValue(r.side.addr, r.side.len, r.side.value, ov_start, ov_len);
      uint64_t write_value =
          ProjectValue(w.side.addr, w.side.len, w.side.value, ov_start, ov_len);
      if (read_value == write_value) {
        continue;  // The write would not change what the reader fetches: not a PMC.
      }
      if (pmcs.size() >= max_pmcs) {
        return pmcs;
      }
      Pmc pmc;
      pmc.key = PmcKey{w.side, r.side, r.df_leader};
      pmc.total_pairs = w.total_tests * r.total_tests;
      // Sample test pairs: diagonal-ish walk over the two capped test lists.
      size_t limit = std::max(w.tests.size(), r.tests.size());
      for (size_t i = 0; i < limit && pmc.pairs.size() < kMaxPairsPerPmc; i++) {
        pmc.pairs.push_back(PmcTestPair{w.tests[i % w.tests.size()],
                                        r.tests[i % r.tests.size()]});
      }
      pmcs.push_back(std::move(pmc));
    }
  }
  return pmcs;
}

}  // namespace snowboard
