// The execution engine: a two-vCPU (generally N-vCPU) serialized guest machine.
//
// This is the reproduction of the paper's customized QEMU hypervisor (§4.1.1, §4.4.1):
//   * "It segregates reader/writer threads in separate vCPUs, and only executes one vCPU at
//     a time, enforcing the desired interleaving schedule among them."
//   * "The hypervisor performs tracing of every kernel memory access instruction."
//   * Provides the yield primitive, the is_live heuristic, and guest console capture.
//
// Each vCPU is a fiber on the calling thread running guest (mini-kernel) code against the
// shared Memory arena, so exactly one vCPU executes at any instant by construction; every
// vCPU switch is a direct register switch (fiber_switch_x86_64.S, no system call) at a
// memory-access boundary chosen by the installed Scheduler. The result is fully
// deterministic given (guest code, scheduler decisions).
#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/access.h"
#include "src/sim/console.h"
#include "src/sim/liveness.h"
#include "src/sim/memory.h"
#include "src/sim/scheduler.h"
#include "src/sim/types.h"

namespace snowboard {

class Engine;

// Thrown inside guest code to unwind a vCPU when the trial ends abnormally (panic, hang,
// instruction budget). Guest kernel code never catches it; the engine does.
struct TrialAbort {};

// Per-vCPU guest execution context: the only door through which kernel code touches guest
// memory. Every Load/Store/Copy/RMW is a traced, schedulable "instruction".
class Ctx {
 public:
  Ctx(Engine* engine, VcpuId vcpu) : engine_(engine), vcpu_(vcpu) {}

  VcpuId vcpu() const { return vcpu_; }
  Engine& engine() { return *engine_; }
  Memory& mem();

  // --- Traced guest memory accesses (1..8 bytes, little-endian). ---
  // `marked_atomic` corresponds to READ_ONCE/WRITE_ONCE-style annotations: still traced and
  // still PMC material, but exempt from the data-race oracle.
  uint64_t Load(GuestAddr addr, uint32_t len, SiteId site, bool marked_atomic = false);
  void Store(GuestAddr addr, uint32_t len, uint64_t value, SiteId site,
             bool marked_atomic = false);

  uint8_t Load8(GuestAddr a, SiteId s) { return static_cast<uint8_t>(Load(a, 1, s)); }
  uint16_t Load16(GuestAddr a, SiteId s) { return static_cast<uint16_t>(Load(a, 2, s)); }
  uint32_t Load32(GuestAddr a, SiteId s) { return static_cast<uint32_t>(Load(a, 4, s)); }
  uint64_t Load64(GuestAddr a, SiteId s) { return Load(a, 8, s); }
  void Store8(GuestAddr a, uint8_t v, SiteId s) { Store(a, 1, v, s); }
  void Store16(GuestAddr a, uint16_t v, SiteId s) { Store(a, 2, v, s); }
  void Store32(GuestAddr a, uint32_t v, SiteId s) { Store(a, 4, v, s); }
  void Store64(GuestAddr a, uint64_t v, SiteId s) { Store(a, 8, v, s); }

  // Atomic compare-and-swap on a 32-bit cell: one scheduling point, read+write recorded as
  // marked-atomic events with no switch possible in between (a single guest instruction).
  bool Cas32(GuestAddr addr, uint32_t expected, uint32_t desired, SiteId site);
  // Atomic fetch-and-add on a 32-bit cell; returns the previous value.
  uint32_t FetchAdd32(GuestAddr addr, int32_t delta, SiteId site);

  // memcpy analog: copies in 4-byte chunks (plus a tail), each chunk a separate load+store
  // instruction pair — so a concurrent reader can observe a *partially updated* object, the
  // mechanism behind the Figure 3 MAC-address race.
  void Copy(GuestAddr dst, GuestAddr src, uint32_t len, SiteId read_site, SiteId write_site);

  // --- Scheduling and events. ---
  void Pause();  // PAUSE-instruction analog: liveness hint + yield.
  // `site` (optional) is stored in the event's access.site slot so detectors can name the
  // caller in witnesses (lock-order cycles, missed notifies) instead of the primitive.
  void LockEvent(EventKind kind, GuestAddr lock_addr, SiteId site = kInvalidSite);
  // Syscall boundary marker: resets liveness progress tracking and, importantly, gives the
  // fuzzer's coverage map a site-edge source.
  void OnSyscallEntry();

  // --- Console / oracles. ---
  void Printk(const std::string& line);
  [[noreturn]] void Panic(const std::string& message);

  // --- Per-vCPU machine state mirrored by kernel code. ---
  // Current task struct (arena address) and simulated stack pointer; kernel code updates esp
  // when using its in-arena stack so the profiler's ESP-mask filter has real input.
  GuestAddr current_task = kGuestNull;
  GuestAddr esp = 0;

 private:
  friend class Engine;
  Engine* engine_;
  VcpuId vcpu_;
};

class Engine {
 public:
  using GuestFn = std::function<void(Ctx&)>;

  struct RunOptions {
    Scheduler* scheduler = nullptr;  // nullptr => sequential.
    uint64_t max_instructions = 2'000'000;
  };

  struct RunResult {
    bool completed = false;  // All vCPUs ran their guest function to the end.
    bool hang = false;       // Aborted by liveness/instruction budget.
    bool panicked = false;   // Guest panic (kernel oops analog).
    std::string panic_message;
    uint64_t instructions = 0;
    Trace trace;
    std::vector<std::string> console;
  };

  explicit Engine(uint32_t mem_size = 1u << 20);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Memory& mem() { return memory_; }
  Console& console() { return console_; }

  // Runs one guest function per vCPU, serialized under `opts.scheduler`, until all complete
  // or the trial aborts. vCPU 0 runs first. Reentrant across Engine instances (each worker
  // in the distributed queue owns its own Engine); not reentrant per instance.
  //
  // Every vCPU runs as a fiber on the calling thread. A vCPU's stack is mapped by the first
  // run that needs it and reused by every later run; after that, neither a run's setup nor
  // a vCPU switch makes a system call. Each vCPU keeps its own floating-point control
  // modes, starting from the caller's. Every guest stack has unwound when this returns.
  RunResult Run(const std::vector<GuestFn>& vcpu_fns, const RunOptions& opts);

  // Allocation-free variant for the trial hot loop: recycles `result`'s buffers (trace
  // storage in particular) instead of building a fresh RunResult. After warm-up, a caller
  // that reuses one RunResult across trials performs zero heap allocations per run here
  // (panic/console strings allocate only on abnormal trials). `vcpu_fns` must outlive the
  // call; callers should hoist its construction out of their loop too.
  void RunInto(const std::vector<GuestFn>& vcpu_fns, const RunOptions& opts,
               RunResult* result);

  // Convenience: single-vCPU sequential run (boot, sequential profiling).
  RunResult RunSequential(const GuestFn& fn, uint64_t max_instructions = 20'000'000);

 private:
  friend class Ctx;

  struct VcpuState {
    bool finished = false;
    bool pending_switch = false;
  };

  // An execution context: a vCPU, or the thread that called RunInto.
  struct Fiber {
    // While switched out: the stack pointer sb_fiber_switch saved, which addresses its
    // register frame (fiber_switch_x86_64.S).
    void* sp = nullptr;
    // The stack: mapped for a vCPU (a PROT_NONE guard page sits below `stack`); for the
    // caller, learned under ASan only.
    const void* stack = nullptr;
    size_t stack_size = 0;
    void* tsan_fiber = nullptr;       // TSan's handle for this context.
    void* asan_fake_stack = nullptr;  // ASan's fake stack, saved while switched out.
  };

  // --- Guest-side services (called on the running vCPU's fiber). ---
  void OnAccess(Ctx& ctx, Access& access);        // Schedule, perform, trace.
  // Atomic RMW: one scheduling point; the write executes iff do_write_if(read value).
  void OnRmw(Ctx& ctx, Access& read, const std::function<bool(uint64_t)>& do_write_if,
             Access& write);
  void RecordEvent(Event event);
  void Yield(VcpuId from, bool record_event);
  void CheckBudgetAndLiveness(Ctx& ctx);
  [[noreturn]] void AbortTrial(VcpuId vcpu, bool panic, const std::string& message);
  void PerformAccess(Access& access);             // Raw memory op + fault check.
  void FaultCheck(Ctx& ctx, const Access& access);

  // --- Fibers. ---
  // Maps stacks up to `n` vCPUs and writes on each an entry frame that starts FiberMain.
  void MakeVcpuContexts(int n);
  // Entry of every vCPU fiber.
  static void FiberMain(Engine* engine);
  // Runs the active vCPU's guest function, marks it finished, names its live successor in
  // active_vcpu_ and switches back to the caller for good.
  [[noreturn]] void RunActiveVcpu();
  // Switches to `to`; returns when something switches back to `from`. A null `from` leaves
  // the running fiber for good.
  void SwitchFiber(Fiber* from, Fiber* to);
  VcpuId NextLiveVcpu(VcpuId from) const;         // kInvalidVcpu if none.

  Memory memory_;
  Console console_;

  // Per-run state.
  Scheduler* scheduler_ = nullptr;
  SequentialScheduler sequential_;
  RunOptions opts_;
  std::vector<VcpuState> vcpus_;
  std::vector<Ctx> ctxs_;
  LivenessMonitor liveness_{1};
  Trace trace_;
  uint64_t seq_ = 0;
  uint64_t instructions_ = 0;
  bool abort_ = false;
  bool panicked_ = false;
  bool hang_ = false;
  std::string panic_message_;
  VcpuId active_vcpu_ = kInvalidVcpu;
  const std::vector<GuestFn>* run_fns_ = nullptr;  // Valid while a run is in flight.

  Fiber caller_;
  std::vector<Fiber> fibers_;  // Grown to the high-water vCPU count, never shrunk.
  void* dead_sp_ = nullptr;    // Where a finished vCPU's last switch saves; never loaded.
};

}  // namespace snowboard

#endif  // SRC_SIM_ENGINE_H_
