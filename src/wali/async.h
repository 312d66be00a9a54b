// Async syscall offload seam (the "park at the WALI boundary" path).
//
// A blocking-capable syscall handler that can offload does not block its
// worker thread: it files a PendingIo on the process with WaliCtx::Park —
// its wait as one poll(2) call would spell it (IoOp: an fd set plus a
// timeout), which the host's completion loop can wait on without knowing
// anything about WALI or guest memory — and the dispatch wrapper
// records which syscall parked and its six guest arguments next to it, then
// unwinds the interpreter with wasm::TrapKind::kSyscallPending. The park is
// plain data: nothing in it points into the process or a host thread. The
// host supervisor registers the IoOp with its IoBackend (host::IoReactor,
// io_uring, or a deterministic fake in tests), parks the job off-worker,
// and hands the IoCompletion to WaliRuntime::ResumeMain, which finishes the
// syscall itself: a completion that carries the answer is used as is, and
// otherwise WALI re-dispatches the parked handler, told that its wait has
// ended, so the syscall's meaning lives only in its handler.
//
// This header is intentionally tiny and dependency-free: it is the whole
// contract between the WALI syscall layer and the host completion loop.
#ifndef SRC_WALI_ASYNC_H_
#define SRC_WALI_ASYNC_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace wali {

// One offloadable blocking operation: the arguments of one poll(2) call.
// The completion loop waits until any member of `poll_fds` is ready or
// `timeout_nanos` elapses, and a sleep is a poll with no members. Every
// backend handles this one shape; the syscall itself is re-dispatched at
// resume once the op is ready, so completion loops never touch guest state.
struct IoOp {
  // Most members a set carries: completion loops register one waiter per
  // member, so a guest-sized set must not turn into unbounded kernel
  // registrations (larger polls take the blocking path).
  static constexpr size_t kMaxPollFds = 64;

  // One member: the fd and its requested events mask, exactly as in struct
  // pollfd (revents are materialized at resume, never here).
  struct PollFd {
    int fd = -1;
    short events = 0;
  };

  // At most kMaxPollFds members, stored inline: an op is copied at every
  // park (the supervisor's deadline fold, the backend's record), and a
  // heap-backed set, allocated on one thread and freed on another, cost
  // the fd-park path measurable CPU per request.
  class PollFds {
   public:
    PollFds() = default;
    PollFds(std::initializer_list<PollFd> fds) {
      for (const PollFd& m : fds) push_back(m);
    }
    // Callers bound the set by kMaxPollFds first; a member past it is
    // dropped rather than written out of bounds.
    void push_back(const PollFd& m) {
      if (size_ < kMaxPollFds) fds_[size_++] = m;
    }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const PollFd& operator[](size_t i) const { return fds_[i]; }
    const PollFd* begin() const { return fds_; }
    const PollFd* end() const { return fds_ + size_; }

   private:
    PollFd fds_[kMaxPollFds];
    size_t size_ = 0;
  };

  // Ready when ANY member's readiness matches its events mask (poll(2)
  // semantics: error/hup/nval always count, negative fds are skipped, so an
  // all-negative or empty set is a pure timer).
  PollFds poll_fds;
  // Relative; < 0 means wait forever. On expiry the op completes kTimedOut
  // and the re-dispatched syscall (a sleep, or poll with timeout 0) yields
  // the syscall's timeout answer.
  int64_t timeout_nanos = -1;

  // A pure timer. A negative duration waits 0, never forever.
  static IoOp Sleep(int64_t nanos) {
    IoOp op;
    op.timeout_nanos = nanos < 0 ? 0 : nanos;
    return op;
  }
  // The fd gates' wait: one member, no timeout.
  static IoOp Fd(int fd, short events) { return PollSet({{fd, events}}); }
  static IoOp PollSet(const PollFds& fds, int64_t timeout_nanos = -1) {
    IoOp op;
    op.poll_fds = fds;
    op.timeout_nanos = timeout_nanos;
    return op;
  }
};

// One completion, delivered exactly once per submitted op (unless the
// waiter cancels it first), and the input WaliRuntime::ResumeMain finishes
// the parked syscall from.
struct IoCompletion {
  enum class Status : uint8_t {
    kReady = 0,  // a member of the set became ready
    kTimedOut,   // the op's own timeout (or a sleep's duration) elapsed
    kError,      // the backend cannot wait on this op; value = -errno
  };

  Status status = Status::kReady;
  int64_t value = 0;
  // When true, `value` IS the syscall result and nothing is re-dispatched.
  // Real backends leave this false (the parked syscall is re-dispatched,
  // now ready); fakes and callers that already know the answer set it.
  bool has_value = false;

  static IoCompletion Ready() { return IoCompletion{}; }
  static IoCompletion TimedOut() {
    IoCompletion c;
    c.status = Status::kTimedOut;
    return c;
  }
  static IoCompletion Result(int64_t v) {
    IoCompletion c;
    c.value = v;
    c.has_value = true;
    return c;
  }
  // kError with value = -errno but has_value left false, which keeps a
  // backend failure distinct from a scripted result. Resume answers it as
  // is: the op never became ready, so re-dispatching would block.
  static IoCompletion Error(int64_t v) {
    IoCompletion c;
    c.status = Status::kError;
    c.value = v;
    return c;
  }
};

// The park request one syscall files instead of blocking. Owned by the
// WaliProcess; the handler arms it (via WaliCtx::Park) and the dispatch
// wrapper records the syscall's identity; WaliRuntime::ResumeMain consumes
// it. At most one is armed per process at a time — the main invocation is
// suspended the moment it is filed. Pure data, so a parked process can be
// snapshotted whatever it parked in (src/wali/process_snapshot.h).
struct PendingIo {
  bool armed = false;
  IoOp op;
  // The parked syscall: registry id and its guest arguments (unused
  // trailing slots are zero), re-dispatched at resume.
  uint32_t syscall_id = 0;
  uint64_t args[6] = {};
  // The syscall already completed and `scripted_result` is its answer:
  // resume uses it and re-dispatches nothing. Set only by the park hook
  // WaliProcess::park_after_syscalls for deterministic park-anywhere
  // testing (tests/wasm_snapshot_test.cc), whose op is Sleep(0).
  bool scripted = false;
  int64_t scripted_result = 0;

  void Reset() { *this = PendingIo(); }
};

}  // namespace wali

#endif  // SRC_WALI_ASYNC_H_
