// Sequential test programs: "self-sufficient snippets of code that set up and perform
// several system operations" (§3.1) — the unit the whole Snowboard pipeline works with.
//
// A Program is a short sequence of syscalls with syzkaller-style resource references: an
// argument is either a constant or the *result* of an earlier call (r0 = socket(...);
// connect(r0, ...)). The executor resolves references at run time on the guest.
#ifndef SRC_FUZZ_PROGRAM_H_
#define SRC_FUZZ_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/syscalls.h"
#include "src/sim/engine.h"

namespace snowboard {

inline constexpr int kMaxCallsPerProgram = 8;
inline constexpr int kMaxSyscallArgs = 4;

struct Arg {
  enum Kind : uint8_t { kConst = 0, kResult = 1 };
  Kind kind = kConst;
  int64_t value = 0;  // For kConst: the literal; for kResult: index of the producing call.

  static Arg Const(int64_t v) { return Arg{kConst, v}; }
  static Arg Result(int call_index) { return Arg{kResult, call_index}; }
  bool operator==(const Arg&) const = default;
};

struct Call {
  uint32_t nr = 0;
  Arg args[kMaxSyscallArgs];
  bool operator==(const Call&) const = default;
};

struct Program {
  std::vector<Call> calls;
  bool operator==(const Program&) const = default;

  // Stable content hash over the full call list (length-seeded, so a program and its
  // extension never share an intermediate state). Used for corpus dedup and deterministic
  // ids; 64 bits cannot guarantee injectivity, so equality still needs operator==.
  uint64_t Hash() const;
  // Syzkaller-style rendering: "r0 = socket(0x2, 0x1)\nconnect(r0, 0x3)".
  std::string Format() const;
};

// Result of executing a program on one guest task. Inline storage (capacity
// kMaxCallsPerProgram) — RunProgram executes inside the trial hot loop for every task on
// every trial, and must not heap-allocate.
struct ProgramResult {
  class Results {
   public:
    int64_t operator[](size_t i) const { return values_[i]; }
    size_t size() const { return count_; }
    void push_back(int64_t v) { values_[count_++] = v; }

   private:
    int64_t values_[kMaxCallsPerProgram] = {};
    size_t count_ = 0;
  };
  Results call_results;
};

// Executes `program` on the current task of `ctx` (TaskEnter must have been called),
// resolving resource references. Never throws except via engine trial aborts.
ProgramResult RunProgram(Ctx& ctx, const KernelGlobals& g, const Program& program);

// Convenience: a GuestFn that enters task `task_index` and runs the program.
Engine::GuestFn MakeProgramRunner(const KernelGlobals& g, const Program& program,
                                  int task_index);

}  // namespace snowboard

#endif  // SRC_FUZZ_PROGRAM_H_
