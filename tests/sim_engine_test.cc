// Engine tests: serialized execution, tracing, scheduling hooks, faults, RMWs, copies.
#include <gtest/gtest.h>
#include <xmmintrin.h>

#include <cfenv>
#include <cstdio>
#include <cstring>
#include <string>
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

// The rounding mode of both the x87 unit and SSE, or -1 when their control words disagree.
// MXCSR holds the same two rounding bits three places higher than the x87 control word.
int RoundingMode() {
  const int x87 = fegetround();
  const int sse = static_cast<int>((_mm_getcsr() & _MM_ROUND_MASK) >> 3);
  return x87 == sse ? x87 : -1;
}

TEST(EngineTest, FloatingPointControlIsPerVcpu) {
  ASSERT_EQ(RoundingMode(), FE_TONEAREST);
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  int vcpu0_resumed = 0;
  int vcpu1_started = 0;
  Engine::RunResult result = engine.Run(
      {[&](Ctx& ctx) {
         fesetround(FE_UPWARD);
         ctx.Store32(cell, 1, SB_SITE());
         ctx.Store32(cell, 2, SB_SITE());  // Switches first: vCPU 1 runs, then yields back.
         vcpu0_resumed = RoundingMode();
       },
       [&](Ctx& ctx) {
         vcpu1_started = RoundingMode();
         fesetround(FE_DOWNWARD);
         ctx.Store32(cell, 3, SB_SITE());
         ctx.Store32(cell, 4, SB_SITE());
       }},
      opts);
  const int caller_after = RoundingMode();
  fesetround(FE_TONEAREST);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(vcpu1_started, FE_TONEAREST);  // A vCPU starts with the caller's modes.
  EXPECT_EQ(vcpu0_resumed, FE_UPWARD);
  EXPECT_EQ(caller_after, FE_TONEAREST);
}

// Recurses `depth` frames; each frame formats `value` with snprintf (a variadic call with a
// double, whose prologue spills XMM registers with aligned stores) before a switch point,
// and counts the results that differ from `expected`.
int CountMisformats(Ctx& ctx, GuestAddr cell, int depth, double value, const char* expected) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  ctx.Store32(cell, static_cast<uint32_t>(depth), SB_SITE());
  int wrong = std::strcmp(text, expected) != 0 ? 1 : 0;
  if (depth > 0) {
    wrong += CountMisformats(ctx, cell, depth - 1, value, expected);
  }
  return wrong;
}

TEST(EngineTest, VcpuStacksAreAbiAligned) {
  constexpr int kDepth = 1000;
  for (int vcpus : {2, 3}) {
    Engine engine(1 << 16);
    GuestAddr cell = Alloc(engine, 8);
    AlternatingScheduler scheduler;
    Engine::RunOptions opts;
    opts.scheduler = &scheduler;
    std::vector<std::string> expected;
    std::vector<int> misformats(static_cast<size_t>(vcpus), -1);
    std::vector<Engine::GuestFn> fns;
    for (int v = 0; v < vcpus; v++) {
      const double value = 0.1 * (v + 1);
      char text[32];
      std::snprintf(text, sizeof(text), "%.17g", value);
      expected.emplace_back(text);
      fns.push_back([&, v, value](Ctx& ctx) {
        misformats[static_cast<size_t>(v)] =
            CountMisformats(ctx, cell, kDepth, value, expected[static_cast<size_t>(v)].c_str());
      });
    }
    Engine::RunResult result = engine.Run(fns, opts);
    EXPECT_TRUE(result.completed) << vcpus << " vCPUs";
    for (int wrong : misformats) {
      EXPECT_EQ(wrong, 0) << vcpus << " vCPUs";
    }
  }
}

uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

TEST(EngineTest, ManySwitchesKeepCalleeSavedState) {
  constexpr int kStores = 20'000;
  Engine engine(1 << 16);
  GuestAddr cells = Alloc(engine, 16);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  uint64_t final_state[2] = {0, 0};
  auto worker = [&](int v) {
    return [&, v](Ctx& ctx) {
      // `state` and `i` live across every Store64, so they sit in callee-saved registers.
      uint64_t state = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(v + 1);
      for (int i = 0; i < kStores; i++) {
        state = XorShift(state);
        ctx.Store64(cells + 8 * static_cast<uint32_t>(v), state, SB_SITE());
      }
      final_state[v] = state;
    };
  };
  Engine::RunResult result = engine.Run({worker(0), worker(1)}, opts);
  EXPECT_TRUE(result.completed);
  for (int v = 0; v < 2; v++) {
    uint64_t state = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(v + 1);
    for (int i = 0; i < kStores; i++) {
      state = XorShift(state);
    }
    EXPECT_EQ(final_state[v], state) << "vCPU " << v;
  }
  size_t accesses = 0;
  for (const Event& e : result.trace) {
    accesses += e.kind == EventKind::kAccess ? 1 : 0;
  }
  EXPECT_EQ(accesses, 2u * kStores);
}

}  // namespace
}  // namespace snowboard
