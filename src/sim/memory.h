// Guest physical memory.
//
// A flat byte-addressable arena that holds *all* kernel state (the mini-kernel never keeps
// mutable state in host objects). Because of that, the paper's "VM snapshot" — taken once
// after boot and restored before every sequential profile and every concurrent-test trial
// (§4.1) — is a byte copy of the arena.
//
// Restore is the hot path of the testing loop (Algorithm 2 line 8, `resume_snapshot()`), so
// the arena maintains a page-granular dirty bitmap: every raw store marks the pages it
// touches, and RestoreDirty() copies back only the pages written since memory last matched
// the snapshot — the touch-tracking trick low-overhead record/replay systems use to make
// iteration cost proportional to state actually dirtied. Full Restore() remains as the
// reference path and as the self-healing fallback when tracking does not cover the given
// snapshot (see Snapshot::epoch below).
//
// Memory itself performs raw, untraced byte moves; all *guest* accesses go through
// Ctx::Load/Store/Copy (engine.h), which add tracing and scheduling hooks. Raw accessors are
// reserved for the engine, detectors, and tests.
#ifndef SRC_SIM_MEMORY_H_
#define SRC_SIM_MEMORY_H_

#include <cstdint>
#include <vector>

#include "src/sim/types.h"

namespace snowboard {

class Memory {
 public:
  // Dirty-tracking granularity: 1 KiB pages. Finer than the 4 KiB guest page so a trial
  // that scribbles over a couple of task stacks and a few heap objects restores tens of
  // KiB, not hundreds; coarse enough that the whole 1 MiB default arena needs only a
  // 1024-bit bitmap (16 words), so the clear/scan cost is noise (see DESIGN.md §4.2).
  static constexpr uint32_t kDirtyPageShift = 10;
  static constexpr uint32_t kDirtyPageSize = 1u << kDirtyPageShift;

  // Default 1 MiB guest; plenty for the mini-kernel while keeping snapshots cheap.
  explicit Memory(uint32_t size = 1u << 20);

  uint32_t size() const { return static_cast<uint32_t>(bytes_.size()); }

  // True if [addr, addr+len) is a mapped, non-null-page range. Computed without relying on
  // `addr + len` wrap-around ordering: `addr < size()` first, then the remaining room
  // `size() - addr` (no overflow) must hold `len`.
  bool Valid(GuestAddr addr, uint32_t len) const {
    return addr >= kGuestNullPageSize && len > 0 && addr < size() && size() - addr >= len;
  }

  // Raw little-endian load/store of 1..8 bytes, no tracing. Caller must pass a Valid range.
  uint64_t ReadRaw(GuestAddr addr, uint32_t len) const;
  void WriteRaw(GuestAddr addr, uint32_t len, uint64_t value);

  // Raw byte-block helpers for tests and boot-time initialization.
  void FillRaw(GuestAddr addr, uint32_t len, uint8_t byte);

  // Boot-time bump allocator for "static" kernel objects (subsystem global structs, lock
  // words, the kalloc heap region itself). Alignment must be a power of two. Only used
  // before the snapshot is taken.
  GuestAddr StaticAlloc(uint32_t len, uint32_t align = 8);

  struct Snapshot {
    std::vector<uint8_t> bytes;
    uint32_t static_brk = 0;
    // Identity of the tracking generation this snapshot anchors (process-unique, 0 for a
    // default-constructed snapshot, which never matches live tracking).
    uint64_t epoch = 0;
  };

  // Per-restore accounting, surfaced up to PipelineCounters by KernelVm.
  struct RestoreStats {
    uint64_t bytes_copied = 0;
    uint32_t dirty_pages = 0;    // Pages copied by a delta restore (0 for a full restore).
    uint32_t skipped_pages = 0;  // Dirty pages whose bytes still matched (no copy-back).
    bool full = false;           // True if the whole arena was copied.
  };

  // Captures the full guest state and re-anchors dirty tracking to it: after TakeSnapshot,
  // memory equals the snapshot and no page is dirty, so subsequent stores are tracked
  // relative to it.
  Snapshot TakeSnapshot();

  // Reference path: whole-arena memcpy back to `snapshot`, and re-anchor tracking to it.
  void Restore(const Snapshot& snapshot);

  // Copies back only the pages dirtied since memory last matched `snapshot`, then clears
  // the bitmap. If tracking is not anchored to this snapshot (different epoch — e.g. the
  // first restore after boot wrote pages under another snapshot, or snapshots are being
  // mixed), falls back to one full Restore, after which delta tracking covers `snapshot`.
  // Byte-equivalence with Restore() is locked in by tests/snapshot_delta_property_test.cc.
  //
  // Untouched-page skip: a dirty bit only means "a store landed here", not "the bytes
  // changed" — trials routinely write back the value a lock word or counter already held.
  // Each dirty page is memcmp'd against the snapshot first and the copy-back is skipped
  // when it still matches (counted in RestoreStats::skipped_pages). An exact compare is
  // used rather than stored per-page hashes: memcmp early-exits on the first differing
  // byte (cheaper than hashing a full page on the changed-page path), needs no extra
  // per-snapshot state, and cannot produce a false skip the way a hash collision could.
  RestoreStats RestoreDirty(const Snapshot& snapshot);

  // Dirty pages accumulated since the last TakeSnapshot/Restore/RestoreDirty (diagnostic).
  uint32_t DirtyPageCount() const;

  // Whole-arena view for tests and digests (no copy, no tracking side effects).
  const std::vector<uint8_t>& raw_bytes() const { return bytes_; }

 private:
  void MarkDirty(GuestAddr addr, uint32_t len) {
    uint32_t first = addr >> kDirtyPageShift;
    uint32_t last = (addr + len - 1) >> kDirtyPageShift;
    for (uint32_t page = first; page <= last; page++) {  // One iteration for len <= 8.
      dirty_[page >> 6] |= 1ull << (page & 63);
    }
  }
  void ClearDirty();

  std::vector<uint8_t> bytes_;
  std::vector<uint64_t> dirty_;  // One bit per kDirtyPageSize page.
  uint32_t static_brk_;  // Next free byte for StaticAlloc; starts after the null page.
  uint64_t tracking_epoch_ = 0;  // Snapshot the dirty bitmap is relative to; 0 = none.
};

}  // namespace snowboard

#endif  // SRC_SIM_MEMORY_H_
