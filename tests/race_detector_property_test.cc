// Differential property test for RaceDetector::Detect: on random traces the flat detector
// (one remembered-entry vector chained per (granule, vCPU), locksets as ranges of a
// per-trial snapshot pool) must report exactly what the vector-based detector below
// reports — the same races, with the same fields, in the same order. The reference keeps
// the original storage: a std::vector of remembered entries per (granule, vCPU), each
// owning a copy of its lockset. The traces run on 2 and 3 vCPUs with nested, recursive
// and shared locks, marked atomics, unaligned overlapping ranges, and more distinct sites
// per granule than the 16 a (granule, vCPU) remembers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <unordered_set>
#include <vector>

#include "src/snowboard/detectors.h"
#include "src/util/rng.h"

namespace snowboard {
namespace {

constexpr int kVcpus = RaceDetector::kMaxVcpus;
using Clock = std::array<uint64_t, kVcpus>;

void Join(Clock& into, const Clock& from) {
  for (int i = 0; i < kVcpus; i++) {
    into[i] = std::max(into[i], from[i]);
  }
}

bool Disjoint(const std::vector<GuestAddr>& a, const std::vector<GuestAddr>& b) {
  for (GuestAddr lock : a) {
    if (std::find(b.begin(), b.end(), lock) != b.end()) {
      return false;
    }
  }
  return true;
}

std::vector<RaceReport> ReferenceDetect(const Trace& trace) {
  struct Remembered {
    SiteId site;
    AccessType type;
    bool marked;
    GuestAddr addr;
    uint8_t len;
    uint64_t own_ts;
    std::vector<GuestAddr> lockset;
  };
  Clock clocks[kVcpus] = {};
  std::vector<GuestAddr> locksets[kVcpus];
  std::map<GuestAddr, Clock> lock_release;
  std::map<GuestAddr, Clock> atomic_release;
  std::map<GuestAddr, std::array<std::vector<Remembered>, kVcpus>> granules;
  std::unordered_set<uint64_t> seen;
  std::vector<RaceReport> races;

  for (const Event& event : trace) {
    if (event.vcpu < 0 || event.vcpu >= kVcpus) {
      continue;
    }
    const int v = event.vcpu;
    clocks[v][v]++;
    std::vector<GuestAddr>& held = locksets[v];
    if (event.kind == EventKind::kLockAcquire || event.kind == EventKind::kSharedAcquire) {
      if (std::find(held.begin(), held.end(), event.lock_addr) == held.end()) {
        held.push_back(event.lock_addr);
      }
      auto release = lock_release.find(event.lock_addr);
      if (release != lock_release.end()) {
        Join(clocks[v], release->second);
      }
      continue;
    }
    if (event.kind == EventKind::kLockRelease || event.kind == EventKind::kSharedRelease) {
      held.erase(std::remove(held.begin(), held.end(), event.lock_addr), held.end());
      Join(lock_release[event.lock_addr], clocks[v]);
      continue;
    }
    if (event.kind != EventKind::kAccess) {
      continue;
    }

    const Access& a = event.access;
    if (a.type == AccessType::kWrite) {
      if (a.marked_atomic) {
        atomic_release[a.addr] = clocks[v];
      } else {
        atomic_release.erase(a.addr);
      }
    } else {
      auto release = atomic_release.find(a.addr);
      if (release != atomic_release.end()) {
        Join(clocks[v], release->second);
      }
    }

    for (GuestAddr granule = a.addr & ~3u; granule <= ((a.addr + a.len - 1) & ~3u);
         granule += 4) {
      auto& per_vcpu = granules[granule];
      for (int o = 0; o < kVcpus; o++) {
        if (o == v) {
          continue;
        }
        for (const Remembered& other : per_vcpu[o]) {
          bool overlap = a.addr < other.addr + other.len && other.addr < a.addr + a.len;
          bool some_write = a.type == AccessType::kWrite || other.type == AccessType::kWrite;
          if (!overlap || !some_write || (a.marked_atomic && other.marked) ||
              !Disjoint(held, other.lockset) || other.own_ts <= clocks[v][o]) {
            continue;
          }
          RaceReport report;
          report.write_site = a.type == AccessType::kWrite ? a.site : other.site;
          report.other_site = a.type == AccessType::kWrite ? other.site : a.site;
          report.addr = a.addr;
          report.write_write = a.type == AccessType::kWrite && other.type == AccessType::kWrite;
          if (seen.insert(report.Signature()).second) {
            races.push_back(report);
          }
        }
      }
      std::vector<Remembered>& mine = per_vcpu[v];
      auto same = std::find_if(mine.begin(), mine.end(), [&](const Remembered& r) {
        return r.site == a.site && r.type == a.type;
      });
      if (same == mine.end()) {
        if (mine.size() >= 16) {
          continue;
        }
        same = mine.insert(mine.end(), Remembered{a.site, a.type, false, 0, 0, 0, {}});
      }
      same->marked = a.marked_atomic;
      same->addr = a.addr;
      same->len = a.len;
      same->own_ts = clocks[v][v];
      same->lockset = held;
    }
  }
  return races;
}

Trace RandomTrace(Rng& rng, int vcpus) {
  constexpr GuestAddr kLocks[] = {0x9000, 0x9010, 0x9020};
  // Few granules and many sites, so (granule, vCPU) chains overflow their 16 entries.
  const uint32_t sites = 12 + static_cast<uint32_t>(rng.Below(40));
  Trace trace;
  std::vector<GuestAddr> held[kVcpus];
  for (uint64_t n = 100 + rng.Below(400); n > 0; n--) {
    Event event;
    event.vcpu = static_cast<VcpuId>(rng.Below(vcpus));
    std::vector<GuestAddr>& mine = held[event.vcpu];
    uint64_t roll = rng.Below(100);
    if (roll < 8) {
      // Nested or recursive acquire; a third of them shared (read-side rwlock).
      event.kind = rng.Chance(1, 3) ? EventKind::kSharedAcquire : EventKind::kLockAcquire;
      event.lock_addr = kLocks[rng.Below(3)];
      mine.push_back(event.lock_addr);
    } else if (roll < 15 && !mine.empty()) {
      // Release any held lock, not only the innermost.
      size_t which = rng.Below(mine.size());
      event.kind = rng.Coin() ? EventKind::kLockRelease : EventKind::kSharedRelease;
      event.lock_addr = mine[which];
      mine.erase(mine.begin() + static_cast<ptrdiff_t>(which));
    } else if (roll < 18) {
      event.kind = rng.Coin() ? EventKind::kYield : EventKind::kRcuReadLock;
    } else {
      event.kind = EventKind::kAccess;
      Access& a = event.access;
      a.vcpu = event.vcpu;
      a.type = rng.Chance(2, 5) ? AccessType::kWrite : AccessType::kRead;
      a.len = static_cast<uint8_t>(1 + rng.Below(8));
      a.addr = 0x2000 + static_cast<GuestAddr>(rng.Below(24));  // Unaligned, overlapping.
      a.site = 1 + rng.Below(sites);
      a.marked_atomic = rng.Chance(1, 4);
      a.value = rng.Below(4);
    }
    trace.push_back(event);
  }
  return trace;
}

TEST(RaceDetectorProperty, MatchesVectorReferenceOnRandomTraces) {
  RaceDetector detector;  // One instance across every trace: scratch reuse is under test.
  std::vector<RaceReport> races;
  size_t traces_with_races = 0;
  for (uint64_t seed = 1; seed <= 300; seed++) {
    Rng rng(seed);
    const int vcpus = seed % 2 == 0 ? 2 : 3;
    const Trace trace = RandomTrace(rng, vcpus);
    const std::vector<RaceReport> expected = ReferenceDetect(trace);
    detector.Detect(trace, &races);
    ASSERT_EQ(races, expected) << "seed " << seed << ", " << vcpus << " vCPUs";
    traces_with_races += expected.empty() ? 0 : 1;
  }
  EXPECT_GT(traces_with_races, 100u);
}

}  // namespace
}  // namespace snowboard
