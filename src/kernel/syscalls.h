// The syscall table: the kernel's user-facing API and the fuzzer's input vocabulary.
#ifndef SRC_KERNEL_SYSCALLS_H_
#define SRC_KERNEL_SYSCALLS_H_

#include <cstdint>

#include "src/kernel/kernel.h"
#include "src/sim/engine.h"

namespace snowboard {

enum Syscall : uint32_t {
  kSysOpen = 0,     // open(path_id, flags) -> fd
  kSysClose,        // close(fd)
  kSysRead,         // read(fd, len)
  kSysWrite,        // write(fd, len, value)
  kSysFtruncate,    // ftruncate(fd, size)
  kSysRename,       // rename(path_id, path_id)
  kSysIoctl,        // ioctl(fd, cmd, arg)
  kSysFadvise,      // fadvise(fd, advice)
  kSysSocket,       // socket(family, proto) -> fd
  kSysConnect,      // connect(fd, arg)  (l2tp: tunnel id; inet: peer)
  kSysBind,         // bind(fd, ifindex)
  kSysSendmsg,      // sendmsg(fd, len)
  kSysRecvmsg,      // recvmsg(fd)
  kSysGetsockname,  // getsockname(fd)
  kSysSetsockopt,   // setsockopt(fd, opt, val)
  kSysMsgget,       // msgget(key) -> msqid
  kSysMsgctl,       // msgctl(msqid, cmd)
  kSysMsgsnd,       // msgsnd(msqid, len)
  kSysSysctl,       // sysctl(id, val)
  kSysMkdir,        // mkdir(path_id)  (configfs)
  kSysRmdir,        // rmdir(path_id)  (configfs)
  kSysDup,          // dup(fd) -> fd
  kSysFstat,        // fstat(fd)
  kSysGetdents,     // getdents(fd)  (configfs directory listing)
  // --- Detector-tier prey (ipc/port, fs/vfs mount). NOT in the fuzzer vocabulary: the
  // generator draws from kNumFuzzSyscalls below, so these are reachable only from
  // handcrafted programs (the detector repro tests). ---
  kSysPortCreate,   // port_create(id) -> port id
  kSysPortSend,     // port_send(id)
  kSysPortRecv,     // port_recv(id, flags)  (kPortRecvWait sleeps on empty)
  kSysPortClose,    // port_close(id)
  kSysPortTransfer, // port_transfer(src, dst)
  kSysMount,        // mount()
  kSysUmount,       // umount(flags)  (kUmountWait polls sb_refs to zero)
  kNumSyscalls,
};

// The generator's draw vocabulary, frozen at the pre-port/mount table size so every seeded
// corpus, profile, and checked-in replay token stays byte-identical. Grow this
// only with a deliberate corpus regeneration.
inline constexpr uint32_t kNumFuzzSyscalls = 24;
static_assert(kNumFuzzSyscalls <= kNumSyscalls);

// Socket options (setsockopt).
enum SockOpt : uint32_t {
  kSoPacketFanout = 1,       // join fanout group <val> (issue #17 setup).
  kSoPacketFanoutLeave = 2,  // __fanout_unlink (issue #17 writer).
  kSoTcpCongestion = 3,      // val==0: read default (issue #16 reader); else set by id.
  kSoRcvbuf = 4,
};

// Sysctl ids.
enum SysctlId : uint32_t {
  kSysctlTcpCongestion = 0,  // tcp_set_default_congestion_control (issue #16 writer).
};

// Human-readable syscall name (reports, program pretty-printing).
const char* SyscallName(uint32_t nr);

// Executes one syscall on the current task of `ctx`. `args` are fully resolved values (the
// test executor substitutes resource slots first). Returns the syscall result (fds/msqids
// are >= 0; errors are negative).
int64_t DoSyscall(Ctx& ctx, const KernelGlobals& g, uint32_t nr, const int64_t args[4]);

}  // namespace snowboard

#endif  // SRC_KERNEL_SYSCALLS_H_
