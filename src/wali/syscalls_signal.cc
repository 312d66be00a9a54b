// Signal syscalls (paper §3.3). rt_sigaction maintains the virtual sigtable;
// masks are 64-bit words matching the kernel sigset layout on every ISA, so
// a bound process's mask-based calls are zero-copy passthrough, and an
// unbound process's act on its table alone; sigreturn traps (§3.6).
#include <errno.h>
#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "src/abi/layout.h"
#include "src/wali/runtime.h"

namespace wali {

namespace {

int64_t SysRtSigaction(WaliCtx& c, const int64_t* a) {
  int signo = static_cast<int>(a[0]);
  SigEntry old;
  if (a[1] != 0) {
    const auto* act = c.TypedPtr<wabi::WaliKSigaction>(a[1]);
    if (act == nullptr) return -EFAULT;
    SigEntry entry;
    entry.handler = act->handler;
    entry.flags = act->flags;
    entry.mask = act->mask;
    int rc = c.proc.sigtable.SetAction(signo, entry, &old);
    if (rc != 0) return rc;
  } else {
    if (signo < 1 || signo > kNumSignals) return -EINVAL;
    old = c.proc.sigtable.GetAction(signo);
  }
  if (a[2] != 0) {
    auto* oldact = c.TypedPtr<wabi::WaliKSigaction>(a[2]);
    if (oldact == nullptr) return -EFAULT;
    oldact->handler = old.handler;
    oldact->flags = old.flags;
    oldact->mask = old.mask;
  }
  return 0;
}

int64_t SysRtSigprocmask(WaliCtx& c, const int64_t* a) {
  int how = static_cast<int>(a[0]);
  uint64_t old_virtual = c.proc.sigtable.virtual_mask();
  const uint64_t* set = nullptr;
  if (a[1] != 0) {
    set = c.TypedPtr<const uint64_t>(a[1]);
    if (set == nullptr) return -EFAULT;
  }
  if (a[2] != 0) {
    auto* old_out = c.TypedPtr<uint64_t>(a[2]);
    if (old_out == nullptr) return -EFAULT;
    *old_out = old_virtual;
  }
  if (set == nullptr) return 0;
  uint64_t next;
  switch (how) {
    case SIG_BLOCK: next = old_virtual | *set; break;
    case SIG_UNBLOCK: next = old_virtual & ~*set; break;
    case SIG_SETMASK: next = *set; break;
    default: return -EINVAL;
  }
  // SIGKILL and SIGSTOP cannot be blocked.
  next &= ~(SigBit(SIGKILL) | SigBit(SIGSTOP));
  c.proc.sigtable.set_virtual_mask(next);
  // The virtual mask gates safepoint delivery, at the next loop header or
  // function entry. A bound process also passes it through, which keeps
  // kernel-side blocking consistent for the signals the kernel delivers.
  if (!c.proc.sigtable.bound()) return 0;
  return c.Raw(SYS_rt_sigprocmask, how, reinterpret_cast<long>(set), 0, 8);
}

int64_t SysRtSigpending(WaliCtx& c, const int64_t* a) {
  auto* out = c.TypedPtr<uint64_t>(a[0]);
  if (out == nullptr) return -EFAULT;
  uint64_t native = 0;
  if (c.proc.sigtable.bound()) {
    c.Raw(SYS_rt_sigpending, reinterpret_cast<long>(&native), 8);
  }
  *out = native | c.proc.sigtable.pending();
  return 0;
}

int64_t SysRtSigsuspend(WaliCtx& c, const int64_t* a) {
  const void* mask = c.Ptr(a[0], 8);
  if (mask == nullptr) return -EFAULT;
  return c.Raw(SYS_rt_sigsuspend, reinterpret_cast<long>(mask), 8);
}

int64_t SysRtSigtimedwait(WaliCtx& c, const int64_t* a) {
  const void* set = c.Ptr(a[0], 8);
  if (set == nullptr) return -EFAULT;
  long info_ptr = 0, ts_ptr = 0;
  if (a[1] != 0) {
    void* p = c.Ptr(a[1], 128);  // siginfo_t
    if (p == nullptr) return -EFAULT;
    info_ptr = reinterpret_cast<long>(p);
  }
  if (a[2] != 0) {
    void* p = c.Ptr(a[2], 16);
    if (p == nullptr) return -EFAULT;
    ts_ptr = reinterpret_cast<long>(p);
  }
  return c.Raw(SYS_rt_sigtimedwait, reinterpret_cast<long>(set), info_ptr, ts_ptr, 8);
}

int64_t SysRtSigreturn(WaliCtx& c, const int64_t* a) {
  // §3.6 "Signal Trampoline": handler execution is fully engine-managed, so
  // a direct sigreturn is a classic SROP gadget — trap instead.
  c.exec.SetTrap(wasm::TrapKind::kHostError,
                 "sigreturn is prohibited inside WALI modules");
  return -ENOSYS;
}

// An unbound process (a pooled tenant) is not the host process: its kill,
// tkill and tgkill reach only its own table, and only when aimed at the
// process itself (the host's pid, which its getpid answers) or one of its
// threads. A bound process is the host, so its calls pass through.
int64_t RaiseOwn(WaliCtx& c, bool own, int sig) {
  if (sig < 0 || sig > kNumSignals) return -EINVAL;
  if (!own) return -EPERM;
  if (sig != 0) c.proc.sigtable.RaiseVirtual(sig);
  return 0;
}

bool OwnTid(WaliCtx& c, pid_t tid) {
  return tid == ::syscall(SYS_gettid) || c.proc.IsGuestThread(tid);
}

int64_t SysKill(WaliCtx& c, const int64_t* a) {
  if (c.proc.sigtable.bound()) return c.Raw(SYS_kill, a[0], a[1]);
  const pid_t pid = static_cast<pid_t>(a[0]);
  return RaiseOwn(c, pid == 0 || pid == ::getpid(), static_cast<int>(a[1]));
}

int64_t SysTkill(WaliCtx& c, const int64_t* a) {
  if (c.proc.sigtable.bound()) return c.Raw(SYS_tkill, a[0], a[1]);
  return RaiseOwn(c, OwnTid(c, static_cast<pid_t>(a[0])), static_cast<int>(a[1]));
}

int64_t SysTgkill(WaliCtx& c, const int64_t* a) {
  if (c.proc.sigtable.bound()) return c.Raw(SYS_tgkill, a[0], a[1], a[2]);
  bool own = static_cast<pid_t>(a[0]) == ::getpid() &&
             OwnTid(c, static_cast<pid_t>(a[1]));
  return RaiseOwn(c, own, static_cast<int>(a[2]));
}

int64_t SysPause(WaliCtx& c, const int64_t* a) {
#ifdef SYS_pause
  return c.Raw(SYS_pause);
#else
  return c.Raw(SYS_ppoll, 0, 0, 0, 0);
#endif
}

int64_t SysSigaltstack(WaliCtx& c, const int64_t* a) {
  // The Wasm value/call stack is non-addressable; alternate native stacks
  // are meaningless inside the sandbox.
  return -ENOSYS;
}

}  // namespace

void RegisterSignalSyscalls(std::vector<SyscallDef>& defs) {
  defs.insert(defs.end(), {
      {"rt_sigaction", 4, SysRtSigaction, true, 44},
      {"rt_sigprocmask", 4, SysRtSigprocmask, true, 24},
      {"rt_sigpending", 2, SysRtSigpending, true, 8},
      {"rt_sigsuspend", 2, SysRtSigsuspend, false, 4},
      {"rt_sigtimedwait", 4, SysRtSigtimedwait, false, 12},
      {"rt_sigreturn", 0, SysRtSigreturn, false, 2},
      {"kill", 2, SysKill, false, 7},
      {"tkill", 2, SysTkill, false, 7},
      {"tgkill", 3, SysTgkill, false, 9},
      {"pause", 0, SysPause, false, 1},
      {"sigaltstack", 2, SysSigaltstack, false, 1},
  });
}

}  // namespace wali
