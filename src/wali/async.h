// Async syscall offload seam (the "park at the WALI boundary" path).
//
// A blocking-capable syscall handler that can offload does not block its
// worker thread: it files a PendingIo on the process with WaliCtx::Park —
// a readiness class (IoOp) the host's completion loop can wait on without
// knowing anything about WALI or guest memory — and the dispatch wrapper
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
#include <utility>
#include <vector>

namespace wali {

// One offloadable blocking operation, as a readiness class. The completion
// loop only ever needs "this fd is readable/writable" or "this much time
// elapsed" — the syscall itself is re-dispatched at resume once the op is
// ready, so completion loops never touch guest state.
struct IoOp {
  enum class Kind : uint8_t {
    kNone = 0,
    kSleep,     // elapse `sleep_nanos` on the backend's clock
    kReadable,  // wait until `fd` is readable (or error/hup: the syscall decides)
    kWritable,  // wait until `fd` is writable
    // The syscall already completed and `scripted_result` is its answer;
    // the completion loop resumes with it immediately and nothing is
    // re-dispatched. Filed only by the park hook
    // WaliProcess::park_after_syscalls for deterministic park-anywhere
    // testing (tests/wasm_snapshot_test.cc).
    kScripted,
    // Wait until ANY entry of `poll_fds` has readiness matching its events
    // mask (poll(2) semantics: error/hup/nval always count, negative fds
    // are skipped). This is the multi-fd AND dual-interest (POLLIN|POLLOUT)
    // op class: the re-dispatched poll runs with timeout 0 to materialize
    // revents. Ordered after kScripted so serialized kind values never
    // shift.
    kPollSet,
  };

  // Most members a kPollSet carries: completion loops register one waiter
  // per member, so a guest-sized set must not turn into unbounded kernel
  // registrations (larger polls take the blocking path).
  static constexpr size_t kMaxPollFds = 64;

  // One member of a kPollSet: the fd and its requested events mask, exactly
  // as in struct pollfd (revents are materialized at resume, never here).
  struct PollFd {
    int fd = -1;
    short events = 0;
  };

  Kind kind = Kind::kNone;
  int fd = -1;              // kReadable / kWritable
  int64_t sleep_nanos = 0;  // kSleep: relative duration
  // kReadable/kWritable/kPollSet: the op's own timeout (poll(2) semantics),
  // relative; < 0 means wait forever. On expiry the op completes kTimedOut
  // and the re-dispatched syscall (e.g. poll with timeout 0) yields the
  // syscall's timeout answer.
  int64_t timeout_nanos = -1;
  int64_t scripted_result = 0;  // kScripted: the syscall's known result
  std::vector<PollFd> poll_fds;  // kPollSet: the interest set

  static IoOp Sleep(int64_t nanos) {
    IoOp op;
    op.kind = Kind::kSleep;
    op.sleep_nanos = nanos;
    return op;
  }
  static IoOp Readable(int fd, int64_t timeout_nanos = -1) {
    IoOp op;
    op.kind = Kind::kReadable;
    op.fd = fd;
    op.timeout_nanos = timeout_nanos;
    return op;
  }
  static IoOp Writable(int fd, int64_t timeout_nanos = -1) {
    IoOp op;
    op.kind = Kind::kWritable;
    op.fd = fd;
    op.timeout_nanos = timeout_nanos;
    return op;
  }
  static IoOp Scripted(int64_t result) {
    IoOp op;
    op.kind = Kind::kScripted;
    op.scripted_result = result;
    return op;
  }
  static IoOp PollSet(std::vector<PollFd> fds, int64_t timeout_nanos = -1) {
    IoOp op;
    op.kind = Kind::kPollSet;
    op.poll_fds = std::move(fds);
    op.timeout_nanos = timeout_nanos;
    return op;
  }
};

// One completion, delivered exactly once per submitted op (unless the
// waiter cancels it first), and the input WaliRuntime::ResumeMain finishes
// the parked syscall from.
struct IoCompletion {
  enum class Status : uint8_t {
    kReady = 0,  // the readiness class was satisfied
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

  void Reset() { *this = PendingIo(); }
};

}  // namespace wali

#endif  // SRC_WALI_ASYNC_H_
