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
// window to enumerate all read/write overlaps without the naive quadratic pass. The index
// order is the canonical PMC order — (write side, read side) lexicographic — so the table
// depends only on the profiles, never on how they were computed.
#ifndef SRC_SNOWBOARD_PMC_H_
#define SRC_SNOWBOARD_PMC_H_

#include <cstddef>
#include <cstdint>
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

// Hard cap on materialized PMCs (the paper stores S-FULL's 169B PMC *keys* on disk; we cap
// in memory). Identification stops adding past this.
inline constexpr size_t kMaxPmcs = 50'000'000;

// Algorithm 1 in one pass: index every profiled shared access (profiles in corpus order,
// accesses in program order), sort the index, and scan each write's read/write overlaps,
// keeping pairs whose projected values differ. Stops at `max_pmcs` entries, a prefix of
// the uncapped table.
std::vector<Pmc> IdentifyPmcs(const std::vector<SequentialProfile>& profiles,
                              size_t max_pmcs = kMaxPmcs);

// project_value (Algorithm 1 lines 9-10): the bytes of `value` (at [addr, addr+len))
// restricted to [ov_start, ov_start+ov_len), little-endian.
uint64_t ProjectValue(GuestAddr addr, uint32_t len, uint64_t value, GuestAddr ov_start,
                      uint32_t ov_len);

}  // namespace snowboard

#endif  // SRC_SNOWBOARD_PMC_H_
