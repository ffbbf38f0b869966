// Engine tests: serialized execution, tracing, scheduling hooks, faults, RMWs, copies.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/site.h"

namespace snowboard {
namespace {

GuestAddr Alloc(Engine& engine, uint32_t bytes) { return engine.mem().StaticAlloc(bytes, 8); }

TEST(EngineTest, SequentialRunRecordsAccesses) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
    ctx.Store32(cell, 7, SB_SITE());
    EXPECT_EQ(ctx.Load32(cell, SB_SITE()), 7u);
  });
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.panicked);
  ASSERT_EQ(result.trace.size(), 2u);
  EXPECT_EQ(result.trace[0].access.type, AccessType::kWrite);
  EXPECT_EQ(result.trace[0].access.value, 7u);
  EXPECT_EQ(result.trace[1].access.type, AccessType::kRead);
  EXPECT_EQ(result.trace[1].access.value, 7u);
}

TEST(EngineTest, SeqNumbersIncrease) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
    for (int i = 0; i < 5; i++) {
      ctx.Store32(cell, static_cast<uint32_t>(i), SB_SITE());
    }
  });
  for (size_t i = 1; i < result.trace.size(); i++) {
    EXPECT_GT(result.trace[i].seq, result.trace[i - 1].seq);
  }
}

TEST(EngineTest, NullDereferencePanics) {
  Engine engine(1 << 16);
  Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
    ctx.Load32(8, SB_SITE());  // Inside the null page.
    ADD_FAILURE() << "unreachable after fault";
  });
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.panicked);
  EXPECT_NE(result.panic_message.find("NULL pointer dereference"), std::string::npos);
}

TEST(EngineTest, OutOfRangePageFaultPanics) {
  Engine engine(1 << 16);
  Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
    ctx.Load32((1u << 16) + 100, SB_SITE());
  });
  EXPECT_TRUE(result.panicked);
  EXPECT_NE(result.panic_message.find("page fault"), std::string::npos);
}

TEST(EngineTest, ExplicitPanicStopsTrial) {
  Engine engine(1 << 16);
  Engine::RunResult result =
      engine.RunSequential([&](Ctx& ctx) { ctx.Panic("BUG: test panic"); });
  EXPECT_TRUE(result.panicked);
  EXPECT_EQ(result.panic_message, "BUG: test panic");
  ASSERT_FALSE(result.console.empty());
  EXPECT_EQ(result.console[0], "BUG: test panic");
}

TEST(EngineTest, InstructionBudgetHangs) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  Engine::RunOptions opts;
  opts.max_instructions = 100;
  Engine::RunResult result = engine.Run(
      {[&](Ctx& ctx) {
        for (;;) {
          ctx.Store32(cell, 1, SB_SITE());
          ctx.Store32(cell + 4, 1, SB_SITE());  // Alternate windows to defeat is_live.
        }
      }},
      opts);
  EXPECT_TRUE(result.hang);
  EXPECT_FALSE(result.completed);
}

TEST(EngineTest, TwoVcpusBothRunSerialized) {
  Engine engine(1 << 16);
  GuestAddr a = Alloc(engine, 8);
  GuestAddr b = Alloc(engine, 8);
  Engine::RunOptions opts;
  std::vector<std::thread::id> ran_on;
  Engine::RunResult result = engine.Run(
      {[&](Ctx& ctx) {
         ran_on.push_back(std::this_thread::get_id());
         ctx.Store32(a, 1, SB_SITE());
       },
       [&](Ctx& ctx) {
         ran_on.push_back(std::this_thread::get_id());
         ctx.Store32(b, 2, SB_SITE());
       }},
      opts);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(engine.mem().ReadRaw(a, 4), 1u);
  EXPECT_EQ(engine.mem().ReadRaw(b, 4), 2u);
  // vCPU 0 runs first and to completion (no scheduler switches): its event precedes 1's.
  ASSERT_EQ(result.trace.size(), 2u);
  EXPECT_EQ(result.trace[0].vcpu, 0);
  EXPECT_EQ(result.trace[1].vcpu, 1);
  // Both vCPUs are fibers on the caller's thread.
  ASSERT_EQ(ran_on.size(), 2u);
  for (std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

// A scheduler that switches after every access: verifies alternation and determinism.
class AlternatingScheduler : public Scheduler {
 public:
  bool AfterAccess(VcpuId vcpu, const Access& access) override { return true; }
};

TEST(EngineTest, SchedulerSwitchInterleaves) {
  Engine engine(1 << 16);
  GuestAddr log_cell = Alloc(engine, 64);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  auto writer = [&](int base) {
    return [&, base](Ctx& ctx) {
      for (int i = 0; i < 3; i++) {
        ctx.Store32(log_cell + 4 * static_cast<uint32_t>(i) + static_cast<uint32_t>(base),
                    1, SB_SITE());
      }
    };
  };
  Engine::RunResult result = engine.Run({writer(0), writer(16)}, opts);
  EXPECT_TRUE(result.completed);
  // The access stream alternates vCPUs after the first.
  std::vector<VcpuId> order;
  for (const Event& e : result.trace) {
    if (e.kind == EventKind::kAccess) {
      order.push_back(e.vcpu);
    }
  }
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 0);
}

TEST(EngineTest, YieldEventsRecorded) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  auto two_stores = [&](Ctx& ctx) {
    ctx.Store32(cell, 1, SB_SITE());
    ctx.Store32(cell, 2, SB_SITE());
  };
  Engine::RunResult result = engine.Run({two_stores, two_stores}, opts);
  bool saw_yield = false;
  for (const Event& e : result.trace) {
    saw_yield = saw_yield || e.kind == EventKind::kYield;
  }
  EXPECT_TRUE(saw_yield);
}

TEST(EngineTest, Cas32SucceedsAndFails) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  engine.RunSequential([&](Ctx& ctx) {
    EXPECT_TRUE(ctx.Cas32(cell, 0, 5, SB_SITE()));
    EXPECT_FALSE(ctx.Cas32(cell, 0, 9, SB_SITE()));
    EXPECT_EQ(ctx.Load32(cell, SB_SITE()), 5u);
  });
}

TEST(EngineTest, CasIsAtomicUnderPreemption) {
  // Even with a switch-happy scheduler, the CAS read and write are one scheduling unit.
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  std::atomic<int> acquired{0};
  Engine::RunResult result = engine.Run(
      {[&](Ctx& ctx) {
         if (ctx.Cas32(cell, 0, 1, SB_SITE())) {
           acquired.fetch_add(1);
         }
       },
       [&](Ctx& ctx) {
         if (ctx.Cas32(cell, 0, 2, SB_SITE())) {
           acquired.fetch_add(1);
         }
       }},
      opts);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(acquired.load(), 1);  // Exactly one CAS wins.
}

TEST(EngineTest, FetchAddAccumulates) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  engine.RunSequential([&](Ctx& ctx) {
    EXPECT_EQ(ctx.FetchAdd32(cell, 3, SB_SITE()), 0u);
    EXPECT_EQ(ctx.FetchAdd32(cell, -1, SB_SITE()), 3u);
    EXPECT_EQ(ctx.Load32(cell, SB_SITE()), 2u);
  });
}

TEST(EngineTest, CopyIsChunked) {
  Engine engine(1 << 16);
  GuestAddr src = Alloc(engine, 16);
  GuestAddr dst = Alloc(engine, 16);
  engine.mem().WriteRaw(src, 4, 0x44332211);
  engine.mem().WriteRaw(src + 4, 2, 0x6655);
  Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
    ctx.Copy(dst, src, 6, SB_SITE(), SB_SITE());
  });
  // 6 bytes => one 4-byte chunk + one 2-byte chunk => 2 loads + 2 stores.
  ASSERT_EQ(result.trace.size(), 4u);
  EXPECT_EQ(engine.mem().ReadRaw(dst, 4), 0x44332211u);
  EXPECT_EQ(engine.mem().ReadRaw(dst + 4, 2), 0x6655u);
}

TEST(EngineTest, EspStampedOnAccesses) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
    ctx.esp = 0x4000;
    ctx.Store32(cell, 1, SB_SITE());
  });
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace[0].access.esp, 0x4000u);
}

TEST(EngineTest, EngineReusableAcrossRuns) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  for (int i = 0; i < 5; i++) {
    Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
      ctx.Store32(cell, static_cast<uint32_t>(i), SB_SITE());
    });
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.trace.size(), 1u);
  }
}

TEST(EngineTest, PanicOnOneVcpuAbortsOther) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  // Counts its destructions; vCPU 1 holds one while it is switched out.
  struct Probe {
    int* destroyed;
    ~Probe() { (*destroyed)++; }
  };
  int probes_destroyed = 0;
  bool second_finished = false;
  Engine::RunResult result = engine.Run(
      {[&](Ctx& ctx) {
         ctx.Store32(cell, 1, SB_SITE());
         ctx.Store32(cell, 3, SB_SITE());  // Switches first: vCPU 1 starts, then yields back.
         ctx.Panic("BUG: vcpu0 dies");
       },
       [&](Ctx& ctx) {
         Probe probe{&probes_destroyed};
         for (int i = 0; i < 100; i++) {
           ctx.Store32(cell, 2, SB_SITE());
         }
         second_finished = true;
       }},
      opts);
  EXPECT_TRUE(result.panicked);
  EXPECT_FALSE(second_finished);  // Aborted mid-flight.
  // vCPU 1's stack unwound before Run returned, and the engine runs again.
  EXPECT_EQ(probes_destroyed, 1);
  EXPECT_TRUE(engine.RunSequential([&](Ctx& ctx) { ctx.Store32(cell, 4, SB_SITE()); })
                  .completed);
}

TEST(EngineTest, ConsoleCapturedPerRun) {
  Engine engine(1 << 16);
  Engine::RunResult r1 = engine.RunSequential([&](Ctx& ctx) { ctx.Printk("hello"); });
  Engine::RunResult r2 = engine.RunSequential([&](Ctx& ctx) { ctx.Printk("world"); });
  ASSERT_EQ(r1.console.size(), 1u);
  ASSERT_EQ(r2.console.size(), 1u);
  EXPECT_EQ(r1.console[0], "hello");
  EXPECT_EQ(r2.console[0], "world");
}

}  // namespace
}  // namespace snowboard
