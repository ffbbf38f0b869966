// Scheduler interface: the hook the engine consults after every guest memory access.
//
// This is the hypervisor-side half of Algorithm 2. The engine serializes vCPUs and, once an
// access has executed and been recorded, asks the installed Scheduler's AfterAccess whether
// to switch. Returning true arms a pending switch that the engine takes before the current
// vCPU's next instruction (Algorithm 2's `switch = random()` after `pmc_access_coming` /
// `performed_pmc_access`, then `if switch then yield()`). Every scheduler decides here:
// Snowboard's PmcScheduler, the random baseline and both SKI schedulers.
#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <array>
#include <cstdint>

#include "src/sim/access.h"
#include "src/sim/types.h"

namespace snowboard {

// Approximate membership filter over guest addresses, sized for a scheduler's per-test
// watch set (PMC sides + learned flags: tens of addresses). The per-access matching hook
// runs on EVERY guest memory access — the hottest call site in a trial — while virtually
// all accesses touch addresses nowhere near the watch set, so a scheduler fronts its exact
// hash-set probes with MayContain() and early-exits on a miss.
//
// Design: a fixed 2048-bit table (32 × uint64, two cache lines) probed at two bit
// positions derived from one 32-bit multiplicative mix of the address. Membership sets
// both bits; a query misses when either bit is clear. Add() can only set bits, so the
// filter has NO false negatives by construction — a miss is definitive, and a (rare) false
// positive merely falls through to the exact check the caller was doing anyway. Word-array
// layout keeps Clear() a trivial fill and the probes branch-free bit tests, which
// vectorize/pipeline well without any explicit SIMD intrinsics.
class AccessAddrFilter {
 public:
  void Clear() { words_.fill(0); }

  void Add(GuestAddr addr) {
    uint32_t mix = Mix(addr);
    words_[(mix >> 5) & kWordMask] |= 1ull << (mix & 63);
    words_[(mix >> 21) & kWordMask] |= 1ull << ((mix >> 11) & 63);
  }

  bool MayContain(GuestAddr addr) const {
    uint32_t mix = Mix(addr);
    uint64_t a = words_[(mix >> 5) & kWordMask] >> (mix & 63);
    uint64_t b = words_[(mix >> 21) & kWordMask] >> ((mix >> 11) & 63);
    return (a & b & 1ull) != 0;
  }

 private:
  static constexpr uint32_t kWords = 32;  // 2048 bits.
  static constexpr uint32_t kWordMask = kWords - 1;

  // Fibonacci-style multiplicative mix (golden-ratio constant): cheap, and spreads the
  // low-entropy (small, 8-byte-aligned) guest addresses across the whole 32-bit range.
  static uint32_t Mix(GuestAddr addr) { return addr * 0x9E3779B1u; }

  std::array<uint64_t, kWords> words_{};
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // The scheduling hook (see file comment). Default: never switch — sequential execution.
  virtual bool AfterAccess(VcpuId vcpu, const Access& access) { return false; }
};

// Runs each vCPU to completion in order, never preempting: used for boot and for sequential
// test profiling (§4.1), where the thread under test must run alone.
class SequentialScheduler : public Scheduler {};

}  // namespace snowboard

#endif  // SRC_SIM_SCHEDULER_H_
