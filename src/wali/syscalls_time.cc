// Clock/timer syscalls. WALI's portable timespec/timeval use 64-bit fields,
// matching the LP64 kernel layout, so these are zero-copy passthrough.
#include <errno.h>
#include <sys/syscall.h>
#include <time.h>

#include <cstdint>
#include <cstring>

#include "src/abi/layout.h"
#include "src/wali/runtime.h"

namespace wali {

// Validates a guest timespec and flattens it to nanoseconds (kernel
// nanosleep rules: negative seconds or out-of-range nanos are EINVAL).
// Durations past int64 range (sec is guest-controlled) saturate: a
// ~292-year sleep and an infinite one are indistinguishable in practice,
// and the multiply must not be allowed to overflow (UB) into a 0ns sleep.
// Declared in runtime.h: the ppoll and futex offload gates share it.
bool SleepDurationNanos(const wabi::WaliTimespec& ts, int64_t* out) {
  if (ts.sec < 0 || ts.nsec < 0 || ts.nsec >= 1000000000) {
    return false;
  }
  if (ts.sec > (INT64_MAX - ts.nsec) / 1000000000) {
    *out = INT64_MAX;
    return true;
  }
  *out = ts.sec * 1000000000 + ts.nsec;
  return true;
}

namespace {

int64_t SysClockGettime(WaliCtx& c, const int64_t* a) {
  void* ts = c.Ptr(a[1], sizeof(wabi::WaliTimespec));
  if (ts == nullptr) return -EFAULT;
  return c.Raw(SYS_clock_gettime, a[0], reinterpret_cast<long>(ts));
}

int64_t SysClockGetres(WaliCtx& c, const int64_t* a) {
  long ts_ptr = 0;
  if (a[1] != 0) {
    void* ts = c.Ptr(a[1], sizeof(wabi::WaliTimespec));
    if (ts == nullptr) return -EFAULT;
    ts_ptr = reinterpret_cast<long>(ts);
  }
  return c.Raw(SYS_clock_getres, a[0], ts_ptr);
}

int64_t SysClockSettime(WaliCtx& c, const int64_t* a) {
  return -EPERM;  // never allow the sandbox to set host clocks
}

int64_t SysNanosleep(WaliCtx& c, const int64_t* a) {
  const void* req = c.Ptr(a[0], sizeof(wabi::WaliTimespec));
  if (req == nullptr) return -EFAULT;
  long rem_ptr = 0;
  if (a[1] != 0) {
    void* rem = c.Ptr(a[1], sizeof(wabi::WaliTimespec));
    if (rem == nullptr) return -EFAULT;
    rem_ptr = reinterpret_cast<long>(rem);
  }
  if (c.resumed || c.CanOffload()) {
    // Offload: elapse the duration on the host's completion loop instead of
    // parking a worker thread in the kernel. By the time the park is
    // re-dispatched the sleep has elapsed, so both paths answer 0 — an
    // offloaded sleep is never EINTR'd, so `rem` is left untouched, exactly
    // like an uninterrupted kernel sleep.
    wabi::WaliTimespec ts;
    std::memcpy(&ts, req, sizeof(ts));
    int64_t dur = 0;
    if (!SleepDurationNanos(ts, &dur)) return -EINVAL;
    if (!c.resumed) c.Park(IoOp::Sleep(dur));
    return 0;
  }
  return c.Raw(SYS_nanosleep, reinterpret_cast<long>(req), rem_ptr);
}

int64_t SysClockNanosleep(WaliCtx& c, const int64_t* a) {
  const void* req = c.Ptr(a[2], sizeof(wabi::WaliTimespec));
  if (req == nullptr) return -EFAULT;
  long rem_ptr = 0;
  if (a[3] != 0) {
    void* rem = c.Ptr(a[3], sizeof(wabi::WaliTimespec));
    if (rem == nullptr) return -EFAULT;
    rem_ptr = reinterpret_cast<long>(rem);
  }
  // Only the relative form is offloadable: TIMER_ABSTIME is anchored to the
  // target clock's epoch, which a manual-clock completion loop cannot
  // honor; it takes the blocking path.
  if ((a[1] & TIMER_ABSTIME) == 0 && (c.resumed || c.CanOffload())) {
    wabi::WaliTimespec ts;
    std::memcpy(&ts, req, sizeof(ts));
    int64_t dur = 0;
    if (!SleepDurationNanos(ts, &dur)) return -EINVAL;
    if (!c.resumed) c.Park(IoOp::Sleep(dur));
    return 0;
  }
  return c.Raw(SYS_clock_nanosleep, a[0], a[1], reinterpret_cast<long>(req), rem_ptr);
}

int64_t SysGettimeofday(WaliCtx& c, const int64_t* a) {
  long tv_ptr = 0;
  if (a[0] != 0) {
    void* tv = c.Ptr(a[0], 16);
    if (tv == nullptr) return -EFAULT;
    tv_ptr = reinterpret_cast<long>(tv);
  }
  return c.Raw(SYS_gettimeofday, tv_ptr, 0);
}

int64_t SysTimes(WaliCtx& c, const int64_t* a) {
  long buf_ptr = 0;
  if (a[0] != 0) {
    void* buf = c.Ptr(a[0], 32);  // struct tms: 4 x clock_t
    if (buf == nullptr) return -EFAULT;
    buf_ptr = reinterpret_cast<long>(buf);
  }
  return c.Raw(SYS_times, buf_ptr);
}

int64_t SysSetitimer(WaliCtx& c, const int64_t* a) {
  // The interval timers are the host process's: only a bound process, which
  // is the host, may arm them. A tenant's SIGALRM would kill the host.
  if (!c.proc.sigtable.bound()) return -EPERM;
  const void* newval = c.Ptr(a[1], 32);  // struct itimerval
  if (newval == nullptr) return -EFAULT;
  long old_ptr = 0;
  if (a[2] != 0) {
    void* old = c.Ptr(a[2], 32);
    if (old == nullptr) return -EFAULT;
    old_ptr = reinterpret_cast<long>(old);
  }
  return c.Raw(SYS_setitimer, a[0], reinterpret_cast<long>(newval), old_ptr);
}

int64_t SysGetitimer(WaliCtx& c, const int64_t* a) {
  void* val = c.Ptr(a[1], 32);
  if (val == nullptr) return -EFAULT;
  return c.Raw(SYS_getitimer, a[0], reinterpret_cast<long>(val));
}

}  // namespace

void RegisterTimeSyscalls(std::vector<SyscallDef>& defs) {
  defs.insert(defs.end(), {
      {"clock_gettime", 2, SysClockGettime, false, 4},
      {"clock_getres", 2, SysClockGetres, false, 6},
      {"clock_settime", 2, SysClockSettime, false, 1},
      {"nanosleep", 2, SysNanosleep, false, 8, /*can_park=*/true},
      {"clock_nanosleep", 4, SysClockNanosleep, false, 8, /*can_park=*/true},
      {"gettimeofday", 2, SysGettimeofday, false, 5},
      {"times", 1, SysTimes, false, 5},
      {"setitimer", 3, SysSetitimer, false, 10},
      {"getitimer", 2, SysGetitimer, false, 4},
  });
}

}  // namespace wali
