// Kernel boot: constructs every subsystem inside the arena and produces the layout. The
// KernelVm wrapper takes the post-boot snapshot — the paper's fixed initial kernel state.
#include "src/kernel/kernel.h"

#include <chrono>

#include "src/kernel/block/blockdev.h"
#include "src/kernel/fs/configfs.h"
#include "src/kernel/fs/sbfs.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/ipc/msg.h"
#include "src/kernel/ipc/port.h"
#include "src/kernel/kalloc.h"
#include "src/kernel/net/fib6.h"
#include "src/kernel/net/l2tp.h"
#include "src/kernel/net/netdev.h"
#include "src/kernel/net/packet.h"
#include "src/kernel/net/tcp_cong.h"
#include "src/kernel/sound/ctl.h"
#include "src/kernel/task.h"
#include "src/kernel/tty/serial.h"
#include "src/sim/sync.h"
#include "src/util/assert.h"
#include "src/util/counters.h"
#include "src/util/trace.h"

namespace snowboard {

KernelGlobals BootKernel(Engine& engine) {
  Memory& mem = engine.mem();
  KernelGlobals g;

  // Core machinery.
  g.rcu_readers = mem.StaticAlloc(4, 4);
  RcuInit(mem, g.rcu_readers);
  g.kheap = KallocInit(mem, /*heap_bytes=*/192 * 1024);
  for (int i = 0; i < kMaxTestVcpus; i++) {
    g.tasks[i] = TaskInit(mem, /*tid=*/static_cast<uint32_t>(i) + 1);
  }

  // Subsystems.
  g.netdevs = NetdevInit(mem, &g.rtnl_lock);
  g.l2tp = L2tpInit(mem);
  g.packet = PacketInit(mem);
  g.fib6 = Fib6Init(mem);
  g.tcp_cong = TcpCongInit(mem);
  g.sbfs = SbfsInit(mem);
  g.configfs = ConfigfsInit(mem);
  g.blockdevs = BlockDevInit(mem);
  g.msgipc = MsgIpcInit(mem);
  g.tty = TtyInit(mem);
  g.sndcard = SndInit(mem);

  // Pre-populate configfs with the /cfg/a and /cfg/b dirents so lookups from the fixed
  // initial state have something to walk (and rmdir has something to race against).
  for (uint32_t name_id = 1; name_id <= 2; name_id++) {
    GuestAddr dirent = mem.StaticAlloc(kDirentSize, 8);
    GuestAddr inode = mem.StaticAlloc(kCfgInodeSize, 8);
    ConfigfsBootMkdir(mem, g.configfs, dirent, inode, name_id);
  }

  // Detector-tier prey (PR 8) — allocated LAST so every pre-existing subsystem keeps its
  // guest address and the checked-in replay corpus stays byte-identical.
  g.ports = PortIpcInit(mem);
  g.mounts = MountInit(mem);

  return g;
}

KernelVm::KernelVm() : engine_(1u << 20) {
  ActiveCounters().vm_boots.fetch_add(1, std::memory_order_relaxed);
  globals_ = BootKernel(engine_);
  snapshot_ = engine_.mem().TakeSnapshot();
}

void KernelVm::RestoreSnapshot() {
  TRACE_SPAN("vm.restore");
  auto start = std::chrono::steady_clock::now();
  Memory::RestoreStats stats = engine_.mem().RestoreDirty(snapshot_);
  uint64_t nanos = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                             std::chrono::steady_clock::now() - start)
                                             .count());
  restore_seconds_ += static_cast<double>(nanos) * 1e-9;

  PipelineCounters& counters = ActiveCounters();
  if (stats.full) {
    counters.snapshot_full_restores.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters.snapshot_delta_restores.fetch_add(1, std::memory_order_relaxed);
    counters.snapshot_restored_pages.fetch_add(stats.dirty_pages, std::memory_order_relaxed);
    counters.snapshot_skipped_pages.fetch_add(stats.skipped_pages, std::memory_order_relaxed);
  }
  counters.snapshot_restored_bytes.fetch_add(stats.bytes_copied, std::memory_order_relaxed);
  counters.snapshot_restore_nanos.fetch_add(nanos, std::memory_order_relaxed);
  TRACE_COUNTER("vm.restore_bytes", stats.bytes_copied);
}

}  // namespace snowboard
