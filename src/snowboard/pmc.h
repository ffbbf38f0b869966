// PMC identification — §4.2, Algorithm 1.
//
// A potential memory communication pairs a write access from one sequential test with a read
// access from another (or the same) test such that their memory ranges overlap and the
// values projected onto the overlap differ. The PMC key carries both accesses' full feature
// tuples (memory range, instruction site, value); multiple test pairs can map to one key
// (Algorithm 1 line 15).
//
// The access index is the paper's "ordered nested index" (§4.2.1): outer order by range
// start address, nested by range length, then by instruction site — scanned with a bounded
// window to enumerate all read/write overlaps without the naive quadratic pass.
//
// The scan shards: the index's address space is partitioned into disjoint ranges (contiguous
// runs of the sorted write table), each shard runs Algorithm 1's overlap scan against the
// shared read-only read table, and shard outputs are concatenated in partition order. The
// index order is the canonical PMC order — (write side, read side) lexicographic — and every
// shard emits its slice already in that order, so the merged table (multiplicities, sampled
// exemplar pairs, and the max_pmcs truncation point included) is byte-identical for any
// worker count. §4.4.1's fleet-scale identification ("169 billion PMCs") motivates the
// fan-out.
#ifndef SRC_SNOWBOARD_PMC_H_
#define SRC_SNOWBOARD_PMC_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/snowboard/profile.h"

namespace snowboard {

// One side (read or write) of a PMC: the features Algorithm 1 indexes accesses by.
struct PmcSide {
  GuestAddr addr = kGuestNull;
  uint8_t len = 0;
  SiteId site = kInvalidSite;
  uint64_t value = 0;

  bool operator==(const PmcSide&) const = default;
  GuestAddr end() const { return addr + len; }
};

struct PmcKey {
  PmcSide write;
  PmcSide read;
  bool df_leader = false;  // The read side led a double fetch (S-CH-DOUBLE feature).

  bool operator==(const PmcKey&) const = default;
  uint64_t Hash() const;
};

struct PmcTestPair {
  int write_test = -1;
  int read_test = -1;
};

struct Pmc {
  PmcKey key;
  // Sampled test pairs exhibiting this PMC (capped at kMaxPairsPerPmc), plus the total.
  std::vector<PmcTestPair> pairs;
  uint64_t total_pairs = 0;
};

inline constexpr size_t kMaxPairsPerPmc = 8;

struct PmcIdentifyOptions {
  // Skip accesses whose address is touched by more than this many distinct (site, value)
  // keys across the corpus — scalability valve for white-hot cells (none by default).
  size_t max_keys_per_address = SIZE_MAX;
  // Hard cap on materialized PMCs (the paper stores S-FULL's 169B PMC *keys* on disk; we
  // cap in memory). Identification stops adding past this.
  size_t max_pmcs = 50'000'000;
};

// Algorithm 1: index all profiled shared accesses, scan read/write overlaps, keep pairs
// whose projected values differ.
std::vector<Pmc> IdentifyPmcs(const std::vector<SequentialProfile>& profiles,
                              const PmcIdentifyOptions& options = PmcIdentifyOptions{});

// Incremental PMC identification, decomposed so the campaign engine (pipeline.cc) can fold
// profiles into the access index WHILE the profile tail is still executing and fan the
// overlap scan out over the shared worker pool afterwards. The protocol (single-consumer
// fold, multi-worker scan):
//   1. AddProfile(profile) once per profile, in corpus order — order is load-bearing:
//      per-key test lists dedup via "the test id changed" exactly like the batch pass.
//   2. Seal() once after the last profile: prunes hot cells and sorts both side tables
//      into the ordered nested index (§4.2.1).
//   3. PlanPartitions(num_workers), then ScanPartition(p) for each p — concurrently from
//      any threads; partition p writes only its own output slice.
//   4. Merge() concatenates slices in partition order and applies the max_pmcs cap.
// For any profile set, AddProfile* → Seal → scan → Merge is byte-identical to
// IdentifyPmcs (which is itself implemented on top of this class), for any worker count
// and any partition interleaving.
class PmcAccumulator {
 public:
  explicit PmcAccumulator(const PmcIdentifyOptions& options);
  ~PmcAccumulator();

  void AddProfile(const SequentialProfile& profile);
  void Seal();

  // Chooses the partition count for `num_workers` (several partitions per worker so
  // PMC-dense regions balance) and sizes the output slices. Returns the count.
  size_t PlanPartitions(int num_workers);
  void ScanPartition(size_t partition);
  std::vector<Pmc> Merge();

 private:
  struct Sides;  // Per-type unique-key tables (pmc.cc).

  PmcIdentifyOptions options_;
  std::unique_ptr<Sides> sides_;
  bool sealed_ = false;
  size_t num_partitions_ = 0;
  std::vector<std::vector<Pmc>> partition_pmcs_;
};

// project_value (Algorithm 1 lines 9-10): the bytes of `value` (at [addr, addr+len))
// restricted to [ov_start, ov_start+ov_len), little-endian.
uint64_t ProjectValue(GuestAddr addr, uint32_t len, uint64_t value, GuestAddr ov_start,
                      uint32_t ov_len);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_PMC_H_
