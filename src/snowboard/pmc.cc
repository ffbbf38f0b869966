#include "src/snowboard/pmc.h"

#include <algorithm>

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

}  // namespace

// Per-type unique-key tables, built incrementally one profile at a time. Record order
// before Seal is first-encounter order — the same order the old one-shot CollectSides pass
// produced, because both visit profiles in corpus order and accesses in program order.
struct PmcAccumulator::Sides {
  struct Table {
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

  Table writes;
  Table reads;
};

PmcAccumulator::PmcAccumulator(const PmcIdentifyOptions& options)
    : options_(options), sides_(std::make_unique<Sides>()) {}

PmcAccumulator::~PmcAccumulator() = default;

void PmcAccumulator::AddProfile(const SequentialProfile& profile) {
  SB_DCHECK(!sealed_);
  if (!profile.ok) {
    return;
  }
  for (const SharedAccess& access : profile.accesses) {
    if (access.type == AccessType::kWrite) {
      sides_->writes.Add(access, profile.test_id);
    } else {
      sides_->reads.Add(access, profile.test_id);
    }
  }
}

void PmcAccumulator::Seal() {
  SB_DCHECK(!sealed_);
  // Optional hot-cell valve: drop addresses with pathological key counts.
  if (options_.max_keys_per_address != SIZE_MAX) {
    auto prune = [this](std::vector<SideRecord>* records) {
      std::unordered_map<GuestAddr, size_t> per_addr;
      for (const SideRecord& r : *records) {
        per_addr[r.side.addr]++;
      }
      records->erase(std::remove_if(records->begin(), records->end(),
                                    [&](const SideRecord& r) {
                                      return per_addr[r.side.addr] >
                                             options_.max_keys_per_address;
                                    }),
                     records->end());
    };
    prune(&sides_->writes.records);
    prune(&sides_->reads.records);
  }
  SortNestedIndex(&sides_->writes.records);
  SortNestedIndex(&sides_->reads.records);
  sides_->writes.index.clear();
  sides_->reads.index.clear();
  sealed_ = true;
}

size_t PmcAccumulator::PlanPartitions(int num_workers) {
  SB_DCHECK(sealed_);
  size_t resolved = num_workers > 0 ? static_cast<size_t>(num_workers) : 1;
  // Several partitions per worker so PMC-dense regions balance. Partition boundaries
  // depend only on the table size, and the merge is an ordered concatenation, so the
  // merged table is invariant under this value (pmc_shard_property_test).
  num_partitions_ = std::min(sides_->writes.records.size(), resolved * 4);
  if (num_partitions_ == 0 && !sides_->writes.records.empty()) {
    num_partitions_ = 1;
  }
  partition_pmcs_.assign(num_partitions_, {});
  return num_partitions_;
}

void PmcAccumulator::ScanPartition(size_t partition) {
  SB_DCHECK(sealed_ && partition < num_partitions_);
  const std::vector<SideRecord>& writes = sides_->writes.records;
  const std::vector<SideRecord>& reads = sides_->reads.records;
  size_t begin = writes.size() * partition / num_partitions_;
  size_t end = writes.size() * (partition + 1) / num_partitions_;
  std::vector<Pmc>* out = &partition_pmcs_[partition];

  // Lines 6-15 of Algorithm 1: scan read/write overlaps through the ordered index. Ranges
  // are at most 8 bytes, so for a write starting at `a` only reads starting in (a-8,
  // a+len) can overlap. Output is appended in index order, capped at max_pmcs per
  // partition (the global truncation happens after the ordered merge and can never need
  // more than max_pmcs from any prefix).
  for (size_t wi = begin; wi < end; wi++) {
    const SideRecord& w = writes[wi];
    GuestAddr window_start = w.side.addr >= 8 ? w.side.addr - 8 : 0;
    auto it = std::lower_bound(reads.begin(), reads.end(), window_start,
                               [](const SideRecord& r, GuestAddr addr) {
                                 return r.side.addr < addr;
                               });
    for (; it != reads.end() && it->side.addr < w.side.end(); ++it) {
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
      Pmc pmc;
      pmc.key = PmcKey{w.side, r.side, r.df_leader};
      pmc.total_pairs = w.total_tests * r.total_tests;
      // Sample test pairs: diagonal-ish walk over the two capped test lists.
      size_t limit = std::max(w.tests.size(), r.tests.size());
      for (size_t i = 0; i < limit && pmc.pairs.size() < kMaxPairsPerPmc; i++) {
        pmc.pairs.push_back(PmcTestPair{w.tests[i % w.tests.size()],
                                        r.tests[i % r.tests.size()]});
      }
      out->push_back(std::move(pmc));
      if (out->size() >= options_.max_pmcs) {
        return;
      }
    }
  }
}

std::vector<Pmc> PmcAccumulator::Merge() {
  SB_DCHECK(sealed_);
  // Concatenation order == sequential scan order == canonical PMC order.
  std::vector<Pmc> pmcs;
  for (std::vector<Pmc>& partition : partition_pmcs_) {
    for (Pmc& pmc : partition) {
      if (pmcs.size() >= options_.max_pmcs) {
        return pmcs;
      }
      pmcs.push_back(std::move(pmc));
    }
  }
  return pmcs;
}

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

bool AccessMatchesSide(const SharedAccess& access, const PmcSide& side) {
  return access.addr == side.addr && access.len == side.len && access.site == side.site &&
         access.value == side.value;
}

std::vector<Pmc> IdentifyPmcs(const std::vector<SequentialProfile>& profiles,
                              const PmcIdentifyOptions& options) {
  PmcAccumulator accumulator(options);
  for (const SequentialProfile& profile : profiles) {
    accumulator.AddProfile(profile);
  }
  accumulator.Seal();

  size_t num_partitions = accumulator.PlanPartitions(1);
  for (size_t p = 0; p < num_partitions; p++) {
    accumulator.ScanPartition(p);
  }
  return accumulator.Merge();
}

}  // namespace snowboard
