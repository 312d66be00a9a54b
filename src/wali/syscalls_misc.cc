// Polling, futex, epoll, eventfd, randomness. pollfd/epoll_event/fd_set all
// have ISA-independent layouts — zero-copy passthrough after translation.
#include <errno.h>
#include <limits.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/select.h>
#include <sys/syscall.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/abi/layout.h"
#include "src/wali/runtime.h"

namespace wali {

namespace {

int64_t SysFutex(WaliCtx& c, const int64_t* a) {
  void* uaddr = c.Ptr(a[0], 4);
  if (uaddr == nullptr) return -EFAULT;
  long timeout_ptr = 0;
  int op = static_cast<int>(a[1]) & 0x7F;  // mask FUTEX_PRIVATE_FLAG
  // Timer-class FUTEX_WAIT offload: a plain WAIT with a timeout in a
  // process that has no other threads has no possible waker, so the wait
  // can only end when the timeout elapses — a pure timer park. The value
  // check happens inline (no concurrent writer exists to race with):
  // mismatch answers -EAGAIN without parking, and the re-dispatch at
  // resume reports -ETIMEDOUT exactly as the kernel would. Untimed or
  // multi-threaded waits keep the blocking path, where a real waker can
  // reach them. The gate tolerates only FUTEX_PRIVATE_FLAG:
  // FUTEX_CLOCK_REALTIME (or any other modifier) changes what the timeout
  // means — the offload would silently park on a relative monotonic sleep
  // — so those stay on the blocking path, where the kernel also reports its
  // true errno for combinations it rejects.
  if ((a[1] & ~0x80L) == 0 /*FUTEX_WAIT, no modifier bits*/ && a[3] != 0 &&
      (c.resumed || c.CanOffload()) && c.proc.thread_count() == 0) {
    void* tsp = c.Ptr(a[3], 16);
    if (tsp == nullptr) return -EFAULT;
    wabi::WaliTimespec ts;
    std::memcpy(&ts, tsp, sizeof(ts));
    int64_t dur = 0;
    if (!SleepDurationNanos(ts, &dur)) return -EINVAL;
    uint32_t cur;
    std::memcpy(&cur, uaddr, 4);
    if (cur != static_cast<uint32_t>(a[2])) return -EAGAIN;
    if (c.resumed) return -ETIMEDOUT;  // the parked timeout elapsed
    c.Park(IoOp::Sleep(dur));
    return 0;
  }
  // FUTEX_WAIT-class ops pass a timespec; WAKE-class pass a count in arg4.
  bool has_timeout = (op == 0 /*WAIT*/ || op == 9 /*WAIT_BITSET*/);
  if (has_timeout && a[3] != 0) {
    void* ts = c.Ptr(a[3], 16);
    if (ts == nullptr) return -EFAULT;
    timeout_ptr = reinterpret_cast<long>(ts);
  } else {
    timeout_ptr = a[3];
  }
  long uaddr2 = 0;
  if (a[4] != 0) {
    void* p = c.Ptr(a[4], 4);
    if (p == nullptr) return -EFAULT;
    uaddr2 = reinterpret_cast<long>(p);
  }
  return c.Raw(SYS_futex, reinterpret_cast<long>(uaddr), a[1], a[2], timeout_ptr,
               uaddr2, a[5]);
}

// Parks a poll/ppoll on its full interest set: one IoOp member per
// guest pollfd entry, events passed through verbatim (the union of
// requested interests — a POLLIN|POLLOUT waiter wakes on either class, and
// error/hup/nval always count). Negative fds ride along as placeholders
// and are skipped by every backend, so an all-negative set parks as a pure
// timer, matching poll(2). At resume the call is re-dispatched with
// timeout 0: readiness completions fill in revents, timeout completions
// report 0 ready fds.
void ParkPollSet(WaliCtx& c, const void* fds, uint64_t nfds,
                 int64_t timeout_nanos) {
  IoOp::PollFds set;
  for (uint64_t i = 0; i < nfds; ++i) {
    struct pollfd pfd;
    std::memcpy(&pfd, static_cast<const char*>(fds) + i * 8, sizeof(pfd));
    set.push_back(IoOp::PollFd{pfd.fd, pfd.events});
  }
  c.Park(IoOp::PollSet(set, timeout_nanos));
}

// poll(2) itself: SYS_poll where the ISA has it, else ppoll.
int64_t RawPoll(WaliCtx& c, void* fds, uint64_t nfds, int64_t timeout) {
#ifdef SYS_poll
  return c.Raw(SYS_poll, reinterpret_cast<long>(fds), nfds, timeout);
#else
  struct timespec ts;
  struct timespec* tsp = nullptr;
  if (timeout >= 0) {
    ts.tv_sec = timeout / 1000;
    ts.tv_nsec = (timeout % 1000) * 1000000;
    tsp = &ts;
  }
  return c.Raw(SYS_ppoll, reinterpret_cast<long>(fds), nfds,
               reinterpret_cast<long>(tsp), 0, 8);
#endif
}

int64_t SysPoll(WaliCtx& c, const int64_t* a) {
  uint64_t nfds = static_cast<uint64_t>(a[1]);
  void* fds = c.Ptr(a[0], nfds * 8);  // struct pollfd = 8 bytes everywhere
  if (fds == nullptr && nfds != 0) return -EFAULT;
  const int64_t timeout = c.resumed ? 0 : a[2];
  // Blocking polls park on the whole interest set — multi-fd, dual-interest
  // (POLLIN|POLLOUT), the lot — bounded by the poll's own timeout, but only
  // when the kernel would block: the guest's own call runs first with
  // timeout 0, and a ready member answers it at once. Zero-timeout polls
  // are non-blocking by contract and go straight to the kernel; oversized
  // sets take the blocking path (see IoOp::kMaxPollFds).
  if (c.CanOffload() && timeout != 0 && nfds >= 1 &&
      nfds <= IoOp::kMaxPollFds) {
    const int64_t ready = RawPoll(c, fds, nfds, 0);
    if (ready > 0) return ready;
    // poll(2)'s timeout is an int of milliseconds; clamp to that range
    // before converting so a guest-supplied 64-bit value can't signed-
    // overflow the nanosecond product (>INT_MAX ms is ~25 days — treat it
    // as infinite rather than wrap negative and park with no timeout).
    int64_t timeout_nanos =
        (timeout < 0 || timeout > INT_MAX) ? -1 : timeout * 1000000;
    ParkPollSet(c, fds, nfds, timeout_nanos);
    return 0;
  }
  return RawPoll(c, fds, nfds, timeout);
}

int64_t SysPpoll(WaliCtx& c, const int64_t* a) {
  uint64_t nfds = static_cast<uint64_t>(a[1]);
  void* fds = c.Ptr(a[0], nfds * 8);
  if (fds == nullptr && nfds != 0) return -EFAULT;
  long ts_ptr = 0, mask_ptr = 0;
  if (a[2] != 0) {
    void* ts = c.Ptr(a[2], 16);
    if (ts == nullptr) return -EFAULT;
    ts_ptr = reinterpret_cast<long>(ts);
  }
  if (a[3] != 0) {
    void* mask = c.Ptr(a[3], 8);
    if (mask == nullptr) return -EFAULT;
    mask_ptr = reinterpret_cast<long>(mask);
  }
  // ppoll is what musl-linked guests actually call for poll(3), so it
  // parks through the same path as SysPoll, under the same rule: the call
  // runs first with a host-side zero timeout, and only 0 ready fds (or an
  // error) parks. A non-null sigmask needs the atomic mask-swap ppoll
  // exists for, which a parked completion loop cannot honor — refuse to
  // park and let the kernel do it. The parked guest's timespec is never
  // written back, so re-dispatching with a host-side zero timeout is
  // semantically equivalent at resume. A null timespec blocks forever
  // (timeout -1); a zero one is non-blocking and answers inline.
  struct timespec zero = {0, 0};
  if (c.CanOffload() && a[3] == 0 && nfds >= 1 && nfds <= IoOp::kMaxPollFds) {
    int64_t timeout_nanos = -1;
    if (ts_ptr != 0) {
      wabi::WaliTimespec ts;
      std::memcpy(&ts, reinterpret_cast<const void*>(ts_ptr), sizeof(ts));
      if (!SleepDurationNanos(ts, &timeout_nanos)) return -EINVAL;
    }
    if (timeout_nanos != 0) {
      const int64_t ready = c.Raw(SYS_ppoll, reinterpret_cast<long>(fds), nfds,
                                  reinterpret_cast<long>(&zero), 0, 8);
      if (ready > 0) return ready;
      ParkPollSet(c, fds, nfds, timeout_nanos);
      return 0;
    }
  }
  if (c.resumed) {
    ts_ptr = reinterpret_cast<long>(&zero);
  }
  return c.Raw(SYS_ppoll, reinterpret_cast<long>(fds), nfds, ts_ptr, mask_ptr, 8);
}

int64_t SysSelect(WaliCtx& c, const int64_t* a) {
  long sets[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    if (a[1 + i] != 0) {
      void* p = c.Ptr(a[1 + i], sizeof(fd_set));
      if (p == nullptr) return -EFAULT;
      sets[i] = reinterpret_cast<long>(p);
    }
  }
  long tv_ptr = 0;
  if (a[4] != 0) {
    void* tv = c.Ptr(a[4], 16);
    if (tv == nullptr) return -EFAULT;
    tv_ptr = reinterpret_cast<long>(tv);
  }
#ifdef SYS_select
  return c.Raw(SYS_select, a[0], sets[0], sets[1], sets[2], tv_ptr);
#else
  return -ENOSYS;
#endif
}

int64_t SysPselect6(WaliCtx& c, const int64_t* a) {
  long sets[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    if (a[1 + i] != 0) {
      void* p = c.Ptr(a[1 + i], sizeof(fd_set));
      if (p == nullptr) return -EFAULT;
      sets[i] = reinterpret_cast<long>(p);
    }
  }
  long ts_ptr = 0;
  if (a[4] != 0) {
    void* ts = c.Ptr(a[4], 16);
    if (ts == nullptr) return -EFAULT;
    ts_ptr = reinterpret_cast<long>(ts);
  }
  // The 6th arg (sigmask descriptor) is not translated: passed as null.
  return c.Raw(SYS_pselect6, a[0], sets[0], sets[1], sets[2], ts_ptr, 0);
}

int64_t SysEpollCreate1(WaliCtx& c, const int64_t* a) {
  return c.Raw(SYS_epoll_create1, a[0]);
}

int64_t SysEpollCtl(WaliCtx& c, const int64_t* a) {
  long ev_ptr = 0;
  if (a[3] != 0) {
    void* ev = c.Ptr(a[3], 12);  // struct epoll_event is packed 12 bytes
    if (ev == nullptr) return -EFAULT;
    ev_ptr = reinterpret_cast<long>(ev);
  }
  return c.Raw(SYS_epoll_ctl, a[0], a[1], a[2], ev_ptr);
}

int64_t SysEpollWait(WaliCtx& c, const int64_t* a) {
  uint64_t maxevents = static_cast<uint64_t>(a[2]);
  void* events = c.Ptr(a[1], maxevents * 12);
  if (events == nullptr && maxevents != 0) return -EFAULT;
#ifdef SYS_epoll_wait
  return c.Raw(SYS_epoll_wait, a[0], reinterpret_cast<long>(events), a[2], a[3]);
#else
  return c.Raw(SYS_epoll_pwait, a[0], reinterpret_cast<long>(events), a[2], a[3], 0, 8);
#endif
}

int64_t SysEpollPwait(WaliCtx& c, const int64_t* a) {
  uint64_t maxevents = static_cast<uint64_t>(a[2]);
  void* events = c.Ptr(a[1], maxevents * 12);
  if (events == nullptr && maxevents != 0) return -EFAULT;
  long mask_ptr = 0;
  if (a[4] != 0) {
    void* mask = c.Ptr(a[4], 8);
    if (mask == nullptr) return -EFAULT;
    mask_ptr = reinterpret_cast<long>(mask);
  }
  return c.Raw(SYS_epoll_pwait, a[0], reinterpret_cast<long>(events), a[2], a[3],
               mask_ptr, 8);
}

int64_t SysEventfd2(WaliCtx& c, const int64_t* a) {
  return c.Raw(SYS_eventfd2, a[0], a[1]);
}

int64_t SysGetrandom(WaliCtx& c, const int64_t* a) {
  void* buf = c.Ptr(a[0], a[1]);
  if (buf == nullptr && a[1] != 0) return -EFAULT;
  return c.Raw(SYS_getrandom, reinterpret_cast<long>(buf), a[1], a[2]);
}

int64_t SysMembarrier(WaliCtx& c, const int64_t* a) {
  return c.Raw(SYS_membarrier, a[0], a[1], 0);
}

// Modeled as unsupported: niche interfaces that passthrough engines expose
// via the auto-generation path later (paper §6 "Expansion of Syscalls").
int64_t SysEnosys(WaliCtx& c, const int64_t* a) { return -ENOSYS; }

}  // namespace

void RegisterMiscSyscalls(std::vector<SyscallDef>& defs) {
  defs.insert(defs.end(), {
      {"futex", 6, SysFutex, false, 6, /*can_park=*/true},
      {"poll", 3, SysPoll, false, 12, /*can_park=*/true},
      {"ppoll", 5, SysPpoll, false, 12, /*can_park=*/true},
      {"select", 5, SysSelect, false, 14},
      {"pselect6", 6, SysPselect6, false, 14},
      {"epoll_create1", 1, SysEpollCreate1, false, 3},
      {"epoll_ctl", 4, SysEpollCtl, false, 6},
      {"epoll_wait", 4, SysEpollWait, false, 6},
      {"epoll_pwait", 5, SysEpollPwait, false, 8},
      {"eventfd2", 2, SysEventfd2, false, 3},
      {"getrandom", 3, SysGetrandom, false, 4},
      {"membarrier", 2, SysMembarrier, false, 3},
      {"rseq", 4, SysEnosys, false, 1},
      {"io_uring_setup", 2, SysEnosys, false, 1},
      {"io_uring_enter", 6, SysEnosys, false, 1},
  });
}

}  // namespace wali
