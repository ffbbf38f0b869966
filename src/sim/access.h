// Memory-access and synchronization events recorded by the hypervisor.
//
// Every guest load/store produces an Access carrying exactly the features Algorithm 1
// consumes: memory range (addr, len), access type, value read/written, and instruction
// (site) address — plus the vCPU and a global sequence number for trace analysis. Lock and
// RCU operations are recorded in the same stream so the race detector can reconstruct
// locksets and release/acquire ordering post-mortem.
#ifndef SRC_SIM_ACCESS_H_
#define SRC_SIM_ACCESS_H_

#include <cstdint>
#include <vector>

#include "src/sim/types.h"

namespace snowboard {

enum class AccessType : uint8_t { kRead = 0, kWrite = 1 };

struct Access {
  AccessType type = AccessType::kRead;
  // True for accesses the kernel marks as intentionally concurrent (READ_ONCE/WRITE_ONCE,
  // RCU pointer loads/stores, lock-word RMWs). The race detector exempts them, mirroring
  // KCSAN's treatment; PMC identification still sees them, as in the paper.
  bool marked_atomic = false;
  uint8_t len = 0;  // 1..8 bytes.
  VcpuId vcpu = kInvalidVcpu;
  GuestAddr addr = kGuestNull;
  uint64_t value = 0;  // Value read or written, zero-extended.
  SiteId site = kInvalidSite;
  uint64_t seq = 0;  // Global order within the trial (execution is serialized).
  // The vCPU's simulated kernel stack pointer when the access executed; input to the
  // paper's ESP-mask stack filter (§4.1.1).
  GuestAddr esp = 0;

  GuestAddr end() const { return addr + len; }
};

enum class EventKind : uint8_t {
  kAccess = 0,
  kLockAcquire,   // Mutual-exclusion acquire (spinlock/mutex/write-side rwlock).
  kLockRelease,
  kSharedAcquire,  // Read-side rwlock acquire (shared; excludes writers only).
  kSharedRelease,
  kRcuReadLock,    // RCU read-side critical section: does NOT exclude writers.
  kRcuReadUnlock,
  kYield,          // Scheduler-induced vCPU switch (for trace diagnostics).
  // Mutual-exclusion acquire *attempted*: emitted before the CAS spin, so a vCPU that
  // blocks forever on a contended lock still leaves its "wants lock L" edge in the trace.
  // The lock-order detector needs this: in an actual ABBA deadlock neither vCPU ever
  // reaches its second kLockAcquire.
  kLockAcquireAttempt,
  // Wait-channel primitives (sleep/wakeup analogs). kWaitBlock marks a vCPU entering a
  // blocking wait on a channel cell, kWaitResume marks it observing the wakeup, and
  // kWaitNotify marks a waker bumping the channel. A kWaitBlock with no later matching
  // kWaitResume on a hung trial is the lost-wakeup detector's witness.
  kWaitBlock,
  kWaitNotify,
  kWaitResume,
};

struct Event {
  EventKind kind = EventKind::kAccess;
  VcpuId vcpu = kInvalidVcpu;
  uint64_t seq = 0;
  // For kAccess: the access. For lock events: lock_addr identifies the lock object.
  Access access;
  GuestAddr lock_addr = kGuestNull;
};

using Trace = std::vector<Event>;

}  // namespace snowboard

#endif  // SRC_SIM_ACCESS_H_
