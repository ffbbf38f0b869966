#include "src/sim/engine.h"

#include <sys/mman.h>

#include "src/sim/site.h"
#include "src/util/assert.h"
#include "src/util/strings.h"
#include "src/util/trace.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace snowboard {

namespace {

// Every vCPU stack, and the PROT_NONE guard page mapped below it. Guest code and scheduler
// hooks peak at about 8 KiB of stack across the test suite; pages never touched cost no
// memory.
constexpr size_t kFiberStackBytes = 256 * 1024;
constexpr size_t kGuardBytes = 4096;

}  // namespace

// --------------------------------------------------------------------------------------------
// Ctx: guest-side access API.
// --------------------------------------------------------------------------------------------

Memory& Ctx::mem() { return engine_->memory_; }

uint64_t Ctx::Load(GuestAddr addr, uint32_t len, SiteId site, bool marked_atomic) {
  Access access;
  access.type = AccessType::kRead;
  access.marked_atomic = marked_atomic;
  access.len = static_cast<uint8_t>(len);
  access.vcpu = vcpu_;
  access.addr = addr;
  access.site = site;
  engine_->OnAccess(*this, access);
  return access.value;
}

void Ctx::Store(GuestAddr addr, uint32_t len, uint64_t value, SiteId site, bool marked_atomic) {
  Access access;
  access.type = AccessType::kWrite;
  access.marked_atomic = marked_atomic;
  access.len = static_cast<uint8_t>(len);
  access.vcpu = vcpu_;
  access.addr = addr;
  access.value = value;
  access.site = site;
  engine_->OnAccess(*this, access);
}

bool Ctx::Cas32(GuestAddr addr, uint32_t expected, uint32_t desired, SiteId site) {
  Access read;
  read.type = AccessType::kRead;
  read.marked_atomic = true;
  read.len = 4;
  read.vcpu = vcpu_;
  read.addr = addr;
  read.site = site;

  Access write = read;
  write.type = AccessType::kWrite;
  write.value = desired;

  engine_->OnRmw(*this, read, /*do_write_if=*/
                 [&](uint64_t old) { return old == expected; }, write);
  return read.value == expected;
}

uint32_t Ctx::FetchAdd32(GuestAddr addr, int32_t delta, SiteId site) {
  Access read;
  read.type = AccessType::kRead;
  read.marked_atomic = true;
  read.len = 4;
  read.vcpu = vcpu_;
  read.addr = addr;
  read.site = site;

  Access write = read;
  write.type = AccessType::kWrite;

  engine_->OnRmw(*this, read,
                 [&](uint64_t old) {
                   write.value = static_cast<uint32_t>(old) + static_cast<uint32_t>(delta);
                   return true;
                 },
                 write);
  return static_cast<uint32_t>(read.value);
}

void Ctx::Copy(GuestAddr dst, GuestAddr src, uint32_t len, SiteId read_site,
               SiteId write_site) {
  // Word-at-a-time copy: each chunk is an independent instruction pair, so the scheduler can
  // interleave another vCPU mid-copy and a reader can observe a torn object.
  uint32_t off = 0;
  while (off < len) {
    uint32_t chunk = len - off >= 4 ? 4 : len - off;
    uint64_t v = Load(src + off, chunk, read_site);
    Store(dst + off, chunk, v, write_site);
    off += chunk;
  }
}

void Ctx::ExplicitYield() { engine_->Yield(vcpu_, /*record_event=*/true); }

void Ctx::Pause() {
  Engine& e = *engine_;
  e.liveness_.OnPause(vcpu_);
  // A spinner with no live partner can never be satisfied: classic hang.
  if (!e.liveness_.IsLive(vcpu_) && e.NextLiveVcpu(vcpu_) == kInvalidVcpu) {
    e.AbortTrial(vcpu_, /*panic=*/false, "hang: spinning with no runnable partner");
  }
  e.Yield(vcpu_, /*record_event=*/false);
}

void Ctx::LockEvent(EventKind kind, GuestAddr lock_addr, SiteId site) {
  Event event;
  event.kind = kind;
  event.vcpu = vcpu_;
  event.lock_addr = lock_addr;
  event.access.site = site;
  event.access.vcpu = vcpu_;
  engine_->RecordEvent(event);
}

void Ctx::OnSyscallEntry() { engine_->liveness_.OnProgress(vcpu_); }

void Ctx::Printk(const std::string& line) { engine_->console_.Printk(line); }

void Ctx::Panic(const std::string& message) {
  engine_->console_.Printk(message);
  engine_->AbortTrial(vcpu_, /*panic=*/true, message);
}

// --------------------------------------------------------------------------------------------
// Engine.
// --------------------------------------------------------------------------------------------

Engine::Engine(uint32_t mem_size) : memory_(mem_size) {}

Engine::~Engine() {
  for (Fiber& fiber : fibers_) {
    munmap(static_cast<char*>(const_cast<void*>(fiber.stack)) - kGuardBytes,
           kGuardBytes + kFiberStackBytes);
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(fiber.tsan_fiber);
#endif
  }
}

Engine::RunResult Engine::Run(const std::vector<GuestFn>& vcpu_fns, const RunOptions& opts) {
  RunResult result;
  RunInto(vcpu_fns, opts, &result);
  return result;
}

void Engine::RunInto(const std::vector<GuestFn>& vcpu_fns, const RunOptions& opts,
                     RunResult* result) {
  TRACE_SPAN("engine.run", vcpu_fns.size());
  SB_CHECK(!vcpu_fns.empty());
  const int n = static_cast<int>(vcpu_fns.size());

  // Reset per-run state, recycling buffer capacity from the previous run (and the caller's
  // trace buffer via `result`): at steady state nothing here touches the heap.
  opts_ = opts;
  scheduler_ = opts.scheduler != nullptr ? opts.scheduler : &sequential_;
  vcpus_.assign(static_cast<size_t>(n), VcpuState());
  ctxs_.clear();
  ctxs_.reserve(static_cast<size_t>(n));
  for (int v = 0; v < n; v++) {
    ctxs_.emplace_back(this, v);
  }
  liveness_.Reset(n, LivenessMonitor::Options());
  trace_ = std::move(result->trace);
  trace_.clear();
  seq_ = 0;
  instructions_ = 0;
  abort_ = false;
  panicked_ = false;
  hang_ = false;
  panic_message_.clear();
  console_.Clear();
  run_fns_ = &vcpu_fns;
  MakeVcpuContexts(n);
#if defined(__SANITIZE_THREAD__)
  caller_.tsan_fiber = __tsan_get_current_fiber();
#endif

  // Each vCPU comes back here once, when it has returned or unwound; resume its successor
  // until none is left.
  scheduler_->OnTrialStart(n);
  active_vcpu_ = 0;
  while (active_vcpu_ != kInvalidVcpu) {
    SwitchFiber(&caller_, &fibers_[static_cast<size_t>(active_vcpu_)]);
  }
  run_fns_ = nullptr;
  scheduler_->OnTrialEnd();

  result->completed = !abort_;
  result->hang = hang_;
  result->panicked = panicked_;
  result->panic_message = panic_message_;
  result->instructions = instructions_;
  result->trace = std::move(trace_);
  trace_ = Trace();
  result->console = console_.lines();
}

Engine::RunResult Engine::RunSequential(const GuestFn& fn, uint64_t max_instructions) {
  RunOptions opts;
  opts.max_instructions = max_instructions;
  return Run({fn}, opts);
}

void Engine::MakeVcpuContexts(int n) {
  while (fibers_.size() < static_cast<size_t>(n)) {
    void* mapping = mmap(nullptr, kGuardBytes + kFiberStackBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    SB_CHECK(mapping != MAP_FAILED);
    SB_CHECK(mprotect(mapping, kGuardBytes, PROT_NONE) == 0);
    Fiber& fiber = fibers_.emplace_back();
    fiber.stack = static_cast<char*>(mapping) + kGuardBytes;
    fiber.stack_size = kFiberStackBytes;
#if defined(__SANITIZE_THREAD__)
    fiber.tsan_fiber = __tsan_create_fiber(0);
#endif
  }
  const uintptr_t self = reinterpret_cast<uintptr_t>(this);
  for (int v = 0; v < n; v++) {
    Fiber& fiber = fibers_[static_cast<size_t>(v)];
    SB_CHECK(getcontext(&fiber.context) == 0);
    fiber.context.uc_stack.ss_sp = const_cast<void*>(fiber.stack);
    fiber.context.uc_stack.ss_size = fiber.stack_size;
    fiber.context.uc_link = nullptr;
    // makecontext passes int-sized words, so the Engine's address travels in two halves.
    makecontext(&fiber.context, reinterpret_cast<void (*)()>(&Engine::FiberMain), 2,
                static_cast<uint32_t>(self >> 32), static_cast<uint32_t>(self));
  }
}

void Engine::FiberMain(uint32_t engine_hi, uint32_t engine_lo) {
  reinterpret_cast<Engine*>((uintptr_t{engine_hi} << 32) | engine_lo)->RunActiveVcpu();
}

void Engine::RunActiveVcpu() {
  const VcpuId vcpu = active_vcpu_;
#if defined(__SANITIZE_ADDRESS__)
  // vCPU 0 is always entered from RunInto: learn the caller's stack to switch back to.
  __sanitizer_finish_switch_fiber(nullptr, vcpu == 0 ? &caller_.stack : nullptr,
                                  vcpu == 0 ? &caller_.stack_size : nullptr);
#endif
  try {
    // A vCPU first entered after the trial aborted never starts its guest function.
    if (!abort_) {
      (*run_fns_)[static_cast<size_t>(vcpu)](ctxs_[static_cast<size_t>(vcpu)]);
    }
  } catch (const TrialAbort&) {
    // Unwound guest code.
  }
  vcpus_[static_cast<size_t>(vcpu)].finished = true;
  active_vcpu_ = NextLiveVcpu(vcpu);
  SwitchFiber(nullptr, &caller_);
  __builtin_unreachable();
}

void Engine::SwitchFiber(Fiber* from, Fiber* to) {
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(from != nullptr ? &from->asan_fake_stack : nullptr,
                                 to->stack, to->stack_size);
#endif
  if (from == nullptr) {
    setcontext(&to->context);
    SB_CHECK(false && "setcontext returned");
  }
  SB_CHECK(swapcontext(&from->context, &to->context) == 0);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(from->asan_fake_stack, nullptr, nullptr);
#endif
}

VcpuId Engine::NextLiveVcpu(VcpuId from) const {
  const int n = static_cast<int>(vcpus_.size());
  for (int i = 1; i < n; i++) {
    VcpuId candidate = (from + i) % n;
    if (!vcpus_[static_cast<size_t>(candidate)].finished) {
      return candidate;
    }
  }
  return kInvalidVcpu;
}

void Engine::Yield(VcpuId from, bool record_event) {
  VcpuId next = NextLiveVcpu(from);
  if (next == kInvalidVcpu) {
    return;  // No one to switch to; keep running.
  }
  if (record_event) {
    Event event;
    event.kind = EventKind::kYield;
    event.vcpu = from;
    event.seq = seq_++;
    trace_.push_back(event);
  }
  active_vcpu_ = next;
  SwitchFiber(&fibers_[static_cast<size_t>(from)], &fibers_[static_cast<size_t>(next)]);
  // Resumed by a peer's Yield, or by RunInto after the trial aborted elsewhere.
  if (abort_) {
    throw TrialAbort{};
  }
}

void Engine::RecordEvent(Event event) {
  event.seq = seq_++;
  if (event.kind == EventKind::kAccess) {
    event.access.seq = event.seq;
  }
  trace_.push_back(event);
}

void Engine::AbortTrial(VcpuId vcpu, bool panic, const std::string& message) {
  abort_ = true;
  if (panic) {
    panicked_ = true;
    panic_message_ = message;
  } else {
    hang_ = true;
  }
  throw TrialAbort{};
}

void Engine::FaultCheck(Ctx& ctx, const Access& access) {
  if (memory_.Valid(access.addr, access.len)) {
    return;
  }
  std::string message;
  if (access.addr < kGuestNullPageSize) {
    message = StrPrintf("BUG: kernel NULL pointer dereference, address: 0x%08x at %s",
                        access.addr, SiteName(access.site).c_str());
  } else {
    message = StrPrintf("BUG: unable to handle page fault for address: 0x%08x at %s",
                        access.addr, SiteName(access.site).c_str());
  }
  ctx.Panic(message);
}

void Engine::PerformAccess(Access& access) {
  if (access.type == AccessType::kRead) {
    access.value = memory_.ReadRaw(access.addr, access.len);
  } else {
    memory_.WriteRaw(access.addr, access.len, access.value);
  }
}

void Engine::CheckBudgetAndLiveness(Ctx& ctx) {
  VcpuId v = ctx.vcpu_;
  instructions_++;
  if (instructions_ > opts_.max_instructions) {
    AbortTrial(v, /*panic=*/false, "hang: instruction budget exhausted");
  }
  if (!liveness_.IsLive(v)) {
    scheduler_->OnNotLive(v);
    VcpuId next = NextLiveVcpu(v);
    if (next == kInvalidVcpu) {
      AbortTrial(v, /*panic=*/false, "hang: not live with no runnable partner");
    }
    if (!liveness_.IsLive(next)) {
      // Both threads stuck in low-liveness loops: deadlock/livelock. End the trial.
      AbortTrial(v, /*panic=*/false, "hang: all vCPUs not live (deadlock suspected)");
    }
    Yield(v, /*record_event=*/true);
  }
}

void Engine::OnAccess(Ctx& ctx, Access& access) {
  VcpuId v = ctx.vcpu_;
  VcpuState& state = vcpus_[static_cast<size_t>(v)];

  // A switch armed by the previous instruction (Algorithm 2: `if switch then yield()`), or a
  // scheduler decision to preempt before this instruction executes.
  bool do_switch = state.pending_switch;
  state.pending_switch = false;
  if (scheduler_->BeforeAccess(v, access)) {
    do_switch = true;
  }
  if (do_switch) {
    Yield(v, /*record_event=*/true);
  }

  CheckBudgetAndLiveness(ctx);
  FaultCheck(ctx, access);
  access.esp = ctx.esp;
  PerformAccess(access);

  Event event;
  event.kind = EventKind::kAccess;
  event.vcpu = v;
  event.access = access;
  RecordEvent(event);
  // RecordEvent stamped event.access.seq; mirror it into the caller-visible access.
  access.seq = event.access.seq;

  liveness_.OnAccess(v, access);
  state.pending_switch = scheduler_->AfterAccess(v, access);
}

void Engine::OnRmw(Ctx& ctx, Access& read, const std::function<bool(uint64_t)>& do_write_if,
                   Access& write) {
  VcpuId v = ctx.vcpu_;
  VcpuState& state = vcpus_[static_cast<size_t>(v)];

  bool do_switch = state.pending_switch;
  state.pending_switch = false;
  if (scheduler_->BeforeAccess(v, read)) {
    do_switch = true;
  }
  if (do_switch) {
    Yield(v, /*record_event=*/true);
  }

  CheckBudgetAndLiveness(ctx);
  FaultCheck(ctx, read);
  read.esp = ctx.esp;
  write.esp = ctx.esp;

  // Read and (conditional) write happen back-to-back with no scheduling point in between:
  // this models a single atomic RMW instruction.
  PerformAccess(read);
  Event read_event;
  read_event.kind = EventKind::kAccess;
  read_event.vcpu = v;
  read_event.access = read;
  RecordEvent(read_event);
  read.seq = read_event.access.seq;
  liveness_.OnAccess(v, read);

  bool pending = scheduler_->AfterAccess(v, read);
  if (do_write_if(read.value)) {
    PerformAccess(write);
    Event write_event;
    write_event.kind = EventKind::kAccess;
    write_event.vcpu = v;
    write_event.access = write;
    RecordEvent(write_event);
    write.seq = write_event.access.seq;
    liveness_.OnAccess(v, write);
    pending = scheduler_->AfterAccess(v, write) || pending;
  }
  state.pending_switch = pending;
}

}  // namespace snowboard
