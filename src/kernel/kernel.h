// The mini-kernel: global layout and the booted-VM bundle.
//
// This is the reproduction's stand-in for the Linux guest the paper tests. Requirements that
// shaped it:
//   * ALL mutable kernel state lives in the guest memory arena, so the paper's fixed initial
//     kernel state (§4.1) is a snapshot taken right after Boot() and restored by memcpy
//     before every sequential profile and every concurrent-test trial.
//   * Every subsystem mirrors a Linux subsystem in which Table 2 reports an issue, and seeds
//     a concurrency bug of the same class caused by the same synchronization mistake (see
//     DESIGN.md §2 for the issue ↔ subsystem map and snowboard/report.h for the catalog).
//   * Kernel code is written in a deliberately C-like style against Ctx's traced accessors —
//     structs are guest addresses plus field-offset constants — because guest state must be
//     arena-resident and every field access must be a schedulable traced instruction.
//
// The KernelGlobals struct records the guest addresses of boot-allocated objects. It is
// immutable after boot (the addresses are part of the snapshot layout), so keeping it in a
// host-side struct is safe and keeps subsystem code readable.
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include "src/sim/engine.h"
#include "src/sim/memory.h"
#include "src/sim/types.h"

namespace snowboard {

// errno-style return codes for the syscall layer.
inline constexpr int64_t kEPERM = -1;
inline constexpr int64_t kENOENT = -2;
inline constexpr int64_t kEIO = -5;
inline constexpr int64_t kEBADF = -9;
inline constexpr int64_t kENOMEM = -12;
inline constexpr int64_t kEBUSY = -16;
inline constexpr int64_t kEEXIST = -17;
inline constexpr int64_t kEINVAL = -22;
inline constexpr int64_t kEMFILE = -24;
inline constexpr int64_t kENOTCONN = -107;

// Maximum vCPUs a concurrent test can use. Two is the paper's configuration; the third
// supports the §6 "Testing Thread Count" extension (1 writer + 2 readers / PMC chains).
inline constexpr int kMaxTestVcpus = 3;

struct KernelGlobals {
  // --- Core. ---
  GuestAddr rcu_readers = 0;   // RCU read-side counter cell (sync.h RCU primitives).
  GuestAddr kheap = 0;         // kalloc heap descriptor (kalloc.h).
  GuestAddr tasks[kMaxTestVcpus] = {0, 0, 0};  // Per-vCPU task structs (task.h).

  // --- Subsystem anchors (each points at that subsystem's boot-allocated global block). ---
  GuestAddr rtnl_lock = 0;     // Global networking mutex (rtnl_lock analog).
  GuestAddr netdevs = 0;       // net/netdev.h: device table.
  GuestAddr l2tp = 0;          // net/l2tp.h: tunnel registry.
  GuestAddr packet = 0;        // net/packet.h: fanout groups.
  GuestAddr fib6 = 0;          // net/fib6.h: route table.
  GuestAddr tcp_cong = 0;      // net/tcp_cong.h: congestion-control globals.
  GuestAddr sbfs = 0;          // fs/sbfs.h: superblock + inode table.
  GuestAddr configfs = 0;      // fs/configfs.h: directory tree.
  GuestAddr blockdevs = 0;     // block/blockdev.h: block devices.
  GuestAddr msgipc = 0;        // ipc/msg.h: message-queue namespace (rhashtable-backed).
  GuestAddr ports = 0;         // ipc/port.h: message ports (detector-tier prey, #18/21/22).
  GuestAddr mounts = 0;        // fs/vfs.h mount table (detector-tier prey, #19/20).
  GuestAddr tty = 0;           // tty/serial.h: serial ports.
  GuestAddr sndcard = 0;       // sound/ctl.h: sound card.
};

// A booted guest: engine + kernel layout + the post-boot snapshot.
//
// One KernelVm per worker thread (it is not internally synchronized); the layout (and hence
// KernelGlobals) is identical across instances because boot is deterministic.
class KernelVm {
 public:
  KernelVm();

  Engine& engine() { return engine_; }
  const KernelGlobals& globals() const { return globals_; }

  // Rewinds guest memory to the fixed initial kernel state (§4.1). Called by the profiler
  // before each sequential test and by the explorer before each trial (Algorithm 2 line 8).
  // Copies back only the pages dirtied since the last restore (Memory::RestoreDirty, which
  // falls back to one full copy when the tracking epoch is stale). Copied bytes/pages and
  // wall time are accounted in GlobalPipelineCounters().
  void RestoreSnapshot();

  // Re-captures the CURRENT guest memory as the fixed initial state. Ablation hook: lets a
  // bench patch the booted image (e.g. flip the rhashtable fetch mode, Figure 4's
  // "compiler option") and explore from the patched state.
  void RefreshSnapshot() { snapshot_ = engine_.mem().TakeSnapshot(); }

  // Wall-clock seconds this VM has spent in RestoreSnapshot (diagnostic; the process-wide
  // aggregate lives in GlobalPipelineCounters().snapshot_restore_nanos).
  double restore_seconds() const { return restore_seconds_; }

 private:
  Engine engine_;
  KernelGlobals globals_;
  Memory::Snapshot snapshot_;
  double restore_seconds_ = 0;
};

// Boots the kernel inside `engine` (runs all subsystem init), returning the layout. Used by
// KernelVm; exposed for tests that need a custom engine.
KernelGlobals BootKernel(Engine& engine);

}  // namespace snowboard

#endif  // SRC_KERNEL_KERNEL_H_
