// Edge-case coverage across kernel subsystems: boundary arguments, error paths, state
// carried across operations, and behaviors the main suites don't pin down.
#include <gtest/gtest.h>

#include "src/kernel/fs/sbfs.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kalloc.h"
#include "src/kernel/net/l2tp.h"
#include "src/kernel/net/netdev.h"
#include "src/kernel/net/packet.h"
#include "src/kernel/syscalls.h"
#include "src/kernel/task.h"
#include "src/sim/site.h"

namespace snowboard {
namespace {

class KernelEdgeTest : public ::testing::Test {
 protected:
  int64_t Sys(Ctx& ctx, uint32_t nr, int64_t a0 = 0, int64_t a1 = 0, int64_t a2 = 0) {
    int64_t args[4] = {a0, a1, a2, 0};
    return DoSyscall(ctx, vm_.globals(), nr, args);
  }
  void Enter(Ctx& ctx, int task = 0) { TaskEnter(ctx, vm_.globals().tasks[task]); }
  KernelVm vm_;
};

TEST_F(KernelEdgeTest, MulticastMacRefusedByGetname) {
  const KernelGlobals& g = vm_.globals();
  vm_.engine().RunSequential([&](Ctx& ctx) {
    Enter(ctx);
    GuestAddr sk = SockAlloc(ctx, g, kAfPacket, 0);
    // Seed 1 yields first octet 0x21 (odd => multicast): getname must refuse.
    EXPECT_EQ(DevIoctlSetMac(ctx, g, 0, 1), 0);
    EXPECT_EQ(PacketGetname(ctx, g, sk), kEINVAL);
    // Seed 2 yields 0x32 (even => unicast): accepted.
    EXPECT_EQ(DevIoctlSetMac(ctx, g, 0, 2), 0);
    EXPECT_EQ(PacketGetname(ctx, g, sk) & 0xFF, 0x32);
  });
}

TEST_F(KernelEdgeTest, TwoTunnelsCoexist) {
  const KernelGlobals& g = vm_.globals();
  vm_.engine().RunSequential([&](Ctx& ctx) {
    Enter(ctx);
    GuestAddr sk1 = SockAlloc(ctx, g, kPxProtoOl2tp, 0);
    GuestAddr sk2 = SockAlloc(ctx, g, kPxProtoOl2tp, 0);
    EXPECT_EQ(PppoL2tpConnect(ctx, g, sk1, 1), 0);
    EXPECT_EQ(PppoL2tpConnect(ctx, g, sk2, 2), 0);
    GuestAddr t1 = L2tpTunnelGet(ctx, g, 1);
    GuestAddr t2 = L2tpTunnelGet(ctx, g, 2);
    EXPECT_NE(t1, kGuestNull);
    EXPECT_NE(t2, kGuestNull);
    EXPECT_NE(t1, t2);
    // A third socket connecting to tunnel 1 shares the existing tunnel.
    GuestAddr sk3 = SockAlloc(ctx, g, kPxProtoOl2tp, 0);
    EXPECT_EQ(PppoL2tpConnect(ctx, g, sk3, 1), 0);
    EXPECT_EQ(ctx.Load32(sk3 + kSockProtoData, SB_SITE()), t1);
    EXPECT_EQ(ctx.Load32(g.l2tp + kL2tpCount, SB_SITE()), 2u);
  });
}

TEST_F(KernelEdgeTest, WriteSizeWrapsAt4096) {
  vm_.engine().RunSequential([&](Ctx& ctx) {
    Enter(ctx);
    int64_t fd = Sys(ctx, kSysOpen, 0, 0);
    // len is folded mod 4096 and zero becomes 1 in the vfs layer.
    EXPECT_EQ(Sys(ctx, kSysWrite, fd, 0, 1), 1);
    EXPECT_EQ(Sys(ctx, kSysWrite, fd, 4096 + 5, 1), 5);
  });
}

TEST_F(KernelEdgeTest, FtruncateGrowKeepsBlocks) {
  const KernelGlobals& g = vm_.globals();
  vm_.engine().RunSequential([&](Ctx& ctx) {
    Enter(ctx);
    GuestAddr inode = SbfsInodeAddr(ctx, g.sbfs, 1);
    uint32_t block_before = ctx.Load32(inode + kInodeBlock0, SB_SITE());
    EXPECT_EQ(SbfsFtruncate(ctx, g, inode, 500), 0);  // Grow: no block release.
    EXPECT_EQ(ctx.Load32(inode + kInodeBlock0, SB_SITE()), block_before);
    EXPECT_EQ(ctx.Load32(inode + kInodeSize, SB_SITE()), 500u);
    // Checksum stays consistent: a read succeeds.
    EXPECT_GE(SbfsRead(ctx, g, inode, 4), 0);
  });
}

TEST_F(KernelEdgeTest, SwapBootLoaderOnBootInodeRejected) {
  const KernelGlobals& g = vm_.globals();
  vm_.engine().RunSequential([&](Ctx& ctx) {
    Enter(ctx);
    GuestAddr boot = SbfsInodeAddr(ctx, g.sbfs, 0);
    EXPECT_EQ(SbfsSwapInodeBootLoader(ctx, g, boot), kEINVAL);
  });
}

TEST_F(KernelEdgeTest, SwapBootLoaderIsAnInvolution) {
  const KernelGlobals& g = vm_.globals();
  vm_.engine().RunSequential([&](Ctx& ctx) {
    Enter(ctx);
    GuestAddr inode = SbfsInodeAddr(ctx, g.sbfs, 1);
    SbfsWrite(ctx, g, inode, 123, 0x42);
    uint32_t data = ctx.Load32(inode + kInodeData, SB_SITE());
    EXPECT_EQ(SbfsSwapInodeBootLoader(ctx, g, inode), 0);
    EXPECT_NE(ctx.Load32(inode + kInodeData, SB_SITE()), data);
    EXPECT_EQ(SbfsSwapInodeBootLoader(ctx, g, inode), 0);  // Swap back.
    EXPECT_EQ(ctx.Load32(inode + kInodeData, SB_SITE()), data);
    EXPECT_EQ(ctx.Load32(inode + kInodeSize, SB_SITE()), 123u);
  });
}

TEST_F(KernelEdgeTest, FanoutTwoGroupsIndependent) {
  const KernelGlobals& g = vm_.globals();
  vm_.engine().RunSequential([&](Ctx& ctx) {
    Enter(ctx);
    GuestAddr a = SockAlloc(ctx, g, kAfPacket, 0);
    GuestAddr b = SockAlloc(ctx, g, kAfPacket, 0);
    EXPECT_EQ(FanoutAdd(ctx, g, a, 0), 0);
    EXPECT_EQ(FanoutAdd(ctx, g, b, 1), 0);
    EXPECT_EQ(PacketSendmsg(ctx, g, a, 10), 10);
    EXPECT_EQ(FanoutUnlink(ctx, g, a), 0);
    EXPECT_EQ(PacketSendmsg(ctx, g, b, 10), 10);  // Group 1 unaffected.
  });
}

TEST_F(KernelEdgeTest, CloseReleasesFdForReuse) {
  vm_.engine().RunSequential([&](Ctx& ctx) {
    Enter(ctx);
    int64_t fd1 = Sys(ctx, kSysOpen, 0, 0);
    EXPECT_EQ(Sys(ctx, kSysClose, fd1), 0);
    int64_t fd2 = Sys(ctx, kSysOpen, 1, 0);
    EXPECT_EQ(fd2, fd1);  // Lowest-free-slot allocation.
  });
}

TEST_F(KernelEdgeTest, TasksHaveIsolatedFdTables) {
  const KernelGlobals& g = vm_.globals();
  Engine::RunOptions opts;
  Engine::RunResult result = vm_.engine().Run(
      {[&](Ctx& ctx) {
         TaskEnter(ctx, g.tasks[0]);
         int64_t args[4] = {0, 0, 0, 0};
         EXPECT_EQ(DoSyscall(ctx, g, kSysOpen, args), 0);  // fd 0 in task 0.
       },
       [&](Ctx& ctx) {
         TaskEnter(ctx, g.tasks[1]);
         int64_t args[4] = {0, 4, 0, 0};
         // Task 1's fd 0 does not exist yet: read fails even though task 0 opened fd 0.
         EXPECT_EQ(DoSyscall(ctx, g, kSysRead, args), kEBADF);
       }},
      opts);
  EXPECT_TRUE(result.completed);
}

TEST_F(KernelEdgeTest, KallocClassBoundaries) {
  Engine engine(1 << 18);
  GuestAddr heap = KallocInit(engine.mem(), 16 * 1024);
  engine.RunSequential([&](Ctx& ctx) {
    // Allocations at exact class boundaries land in distinct classes and free correctly.
    for (uint32_t size : {16u, 17u, 32u, 33u, 1024u}) {
      GuestAddr block = Kmalloc(ctx, heap, size);
      ASSERT_NE(block, kGuestNull) << size;
      Kfree(ctx, heap, block, size);
      GuestAddr again = Kmalloc(ctx, heap, size);
      EXPECT_EQ(again, block) << "free list per class must recycle, size " << size;
      Kfree(ctx, heap, again, size);
    }
  });
}

TEST_F(KernelEdgeTest, RecvmsgReflectsRcvbuf) {
  vm_.engine().RunSequential([&](Ctx& ctx) {
    Enter(ctx);
    int64_t sock = Sys(ctx, kSysSocket, kAfInet, 0);
    EXPECT_EQ(Sys(ctx, kSysRecvmsg, sock), 0);
    EXPECT_EQ(Sys(ctx, kSysSetsockopt, sock, kSoRcvbuf, 512), 0);
    EXPECT_EQ(Sys(ctx, kSysRecvmsg, sock), 512);
  });
}

TEST_F(KernelEdgeTest, SnapshotIsolatesConsecutiveTrials) {
  // State mutated by one trial must never leak into the next after RestoreSnapshot — the
  // foundation of the fixed-initial-state methodology.
  const KernelGlobals& g = vm_.globals();
  for (int round = 0; round < 3; round++) {
    vm_.RestoreSnapshot();
    vm_.engine().RunSequential([&](Ctx& ctx) {
      Enter(ctx);
      EXPECT_EQ(ctx.Load32(g.l2tp + kL2tpCount, SB_SITE()), 0u) << "tunnel leaked";
      GuestAddr sk = SockAlloc(ctx, g, kPxProtoOl2tp, 0);
      EXPECT_EQ(PppoL2tpConnect(ctx, g, sk, 1), 0);
      EXPECT_EQ(ctx.Load32(g.l2tp + kL2tpCount, SB_SITE()), 1u);
    });
  }
}

}  // namespace
}  // namespace snowboard
