// IoReactor: the completion loop behind the supervisor's async syscall
// offload (ROADMAP "async syscall batching").
//
// When a guest enters a blocking-capable syscall, the WALI layer parks the
// run (wasm::TrapKind::kSyscallPending, see src/wali/async.h) and the
// supervisor registers the operation here instead of letting a worker
// thread block 1:1 with the guest. The backend waits the op out as one
// poll(2) call would (any member of its fd set ready, or its timeout
// elapsed; a sleep is a set with no members) and delivers exactly one
// completion per cookie; the supervisor then re-admits the parked job and
// hands the completion to WaliRuntime::ResumeMain, which finishes the
// syscall.
//
// The API is submit/complete in the io_uring style — cookie-keyed ops, a
// single completion sink, cancellation — and IoUringBackend
// (io_uring_backend.h) stands behind the same seam. Two implementations
// live here:
//
//   IoReactor     poll(2)/self-pipe loop on the monotonic clock; the
//                 production backend.
//   FakeIoBackend manual clock + scriptable completions, all delivered
//                 synchronously on the test's thread in deterministic
//                 order. This is the seam the scheduler-level tests drive
//                 to interleave completions, cancellations, deadline sheds
//                 of parked guests, and budget exhaustion mid-park without
//                 touching real I/O or real time.
#ifndef SRC_HOST_IO_REACTOR_H_
#define SRC_HOST_IO_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/wali/async.h"

namespace host {

class Telemetry;

// Shared metrics wiring for IoBackend implementations: submit/complete/
// cancel counters plus the in-flight gauge (`io_*` series, labeled with the
// backend's identity, e.g. io_submits_total{io_backend="poll"}). The series
// live in a registry of their own until Wire re-points them at a
// Telemetry's, so the hooks never branch.
class IoBackendMetrics {
 public:
  // `backend` becomes the io_backend label value on every series
  // ("poll", "io_uring", "fake").
  explicit IoBackendMetrics(const char* backend) : backend_(backend) {
    Wire(nullptr);
  }

  // Re-points every series at `tel`'s registry (null: at the private one).
  // Call it before the backend's first Submit, as the backends'
  // SetTelemetry contract says: nothing counted in the private registry
  // is carried over.
  void Wire(Telemetry* tel);
  // Where the series currently live, for backend-specific series.
  metrics::Registry& registry() const { return *registry_; }

  void OnSubmit() {
    submits_->Inc();
    in_flight_->Add(1);
  }
  void OnComplete() {
    completes_->Inc();
    in_flight_->Sub(1);
  }
  void OnCancel() {
    cancels_->Inc();
    in_flight_->Sub(1);
  }

 private:
  const char* backend_;
  metrics::Registry own_;
  metrics::Registry* registry_ = &own_;
  metrics::Counter* submits_ = nullptr;
  metrics::Counter* completes_ = nullptr;
  metrics::Counter* cancels_ = nullptr;
  metrics::Gauge* in_flight_ = nullptr;
};

// One completion per submitted cookie; defined next to the park it
// completes (src/wali/async.h), which ResumeMain finishes from.
using wali::IoCompletion;

// Completion-loop seam. Completions may be delivered from any thread (the
// reactor's loop, or the test thread driving a fake) and are always
// delivered OUTSIDE the backend's internal lock, so the handler may call
// back into Submit/Cancel and may take its own locks.
class IoBackend {
 public:
  using CompletionFn = std::function<void(uint64_t cookie, const IoCompletion&)>;

  virtual ~IoBackend() = default;

  // Installs (or, with a null fn, detaches) the completion sink. Set it
  // before the first Submit. Detaching blocks until any delivery already in
  // flight has returned, so after SetCompletionHandler(nullptr) the old
  // sink will never be entered again — callers rely on this to tear down
  // safely while the backend lives on.
  virtual void SetCompletionHandler(CompletionFn fn) = 0;

  // Registers `op` under a caller-chosen cookie (callers key their parked
  // state by cookie BEFORE submitting, so a completion can never arrive for
  // an unknown-but-live op).
  virtual void Submit(uint64_t cookie, const wali::IoOp& op) = 0;

  // True: the op was dropped and its completion will never be delivered.
  // False: unknown cookie — the completion was already delivered (or never
  // submitted); the caller must be ready to ignore it.
  virtual bool Cancel(uint64_t cookie) = 0;

  // The clock ops' timeouts are measured on. Manual in fakes.
  virtual int64_t NowNanos() const = 0;

  // Ops submitted and not yet completed/cancelled.
  virtual size_t pending() const = 0;
};

// The completion sink every backend delivers through, and the one place
// the SetCompletionHandler contract lives: Deliver holds the sink's lock
// across the handler, so Set(nullptr) returns only once a delivery in
// flight has drained, and the old handler is never entered again. Backends
// call Deliver outside their own op lock and never take that lock under
// this one.
class CompletionSink {
 public:
  void Set(IoBackend::CompletionFn fn) {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = std::move(fn);
  }
  void Deliver(uint64_t cookie, const IoCompletion& completion) {
    std::lock_guard<std::mutex> lock(mu_);
    if (fn_) {
      fn_(cookie, completion);
    }
  }

 private:
  std::mutex mu_;
  IoBackend::CompletionFn fn_;
};

// Production backend: one reactor thread multiplexing every parked op's
// members over one poll(2) table, woken through a self-pipe on submit/
// cancel/shutdown, with every op's deadline kept next to it. fd errors
// (POLLERR/POLLHUP/POLLNVAL) complete as kReady — the re-dispatched syscall
// surfaces the kernel's own answer (EOF, EPIPE, EBADF, ...).
class IoReactor : public IoBackend {
 public:
  IoReactor();
  ~IoReactor() override;  // cancels everything and joins the loop

  IoReactor(const IoReactor&) = delete;
  IoReactor& operator=(const IoReactor&) = delete;

  void SetCompletionHandler(CompletionFn fn) override;
  void Submit(uint64_t cookie, const wali::IoOp& op) override;
  bool Cancel(uint64_t cookie) override;
  int64_t NowNanos() const override;
  size_t pending() const override;

  // Re-points the io_* series at `tel`'s registry (null: back at the
  // backend's own). Call before the first Submit.
  void SetTelemetry(Telemetry* tel) { tm_.Wire(tel); }

  // The loop's poll(2) timeout, in ms, to wake by `deadline` (absolute on
  // `now`'s clock; -1 = none, wait forever): rounded up so the loop never
  // spins on a sub-millisecond remainder, and clamped to INT_MAX, which is
  // safe because the loop recomputes it whenever it wakes.
  static int PollTimeoutMillis(int64_t deadline, int64_t now);

 private:
  struct Op {
    wali::IoOp op;
    int64_t deadline_nanos = -1;  // absolute; -1 = none
  };

  void Loop();
  void Wake();

  CompletionSink sink_;
  mutable std::mutex mu_;
  std::map<uint64_t, Op> ops_;
  int wake_fds_[2] = {-1, -1};  // [0] read end polled by the loop
  std::atomic<bool> stopping_{false};
  std::thread loop_;
  IoBackendMetrics tm_{"poll"};
};

// Deterministic test backend: time only moves when the test advances it,
// fd readiness only happens when the test scripts it, and everything due
// at once completes in (deadline, cookie) order on the calling thread.
class FakeIoBackend : public IoBackend {
 public:
  void SetCompletionHandler(CompletionFn fn) override;
  void Submit(uint64_t cookie, const wali::IoOp& op) override;
  bool Cancel(uint64_t cookie) override;
  int64_t NowNanos() const override;
  size_t pending() const override;

  // Moves the manual clock and synchronously delivers every timeout that
  // became due, in (deadline, submission) order.
  void AdvanceTo(int64_t now_nanos);
  void AdvanceBy(int64_t delta_nanos) { AdvanceTo(NowNanos() + delta_nanos); }

  // Scripts a completion for one pending op (readiness, or an exact result
  // via IoCompletion::Result). False when the cookie is not pending.
  bool Complete(uint64_t cookie, const IoCompletion& completion);
  bool CompleteReady(uint64_t cookie) { return Complete(cookie, IoCompletion::Ready()); }
  bool CompleteWithResult(uint64_t cookie, int64_t result) {
    return Complete(cookie, IoCompletion::Result(result));
  }

  // Fires the completion handler for a cookie the backend no longer (or
  // never) tracked — the "completion arrives after the guest was shed"
  // fault injection. The supervisor must absorb it as an orphan.
  void ForceComplete(uint64_t cookie, const IoCompletion& completion);

  // Pending cookies in submission order, plus the op submitted under one.
  std::vector<uint64_t> PendingCookies() const;
  bool LookupOp(uint64_t cookie, wali::IoOp* out) const;

  // Same contract as IoReactor::SetTelemetry: tests assert the io_* series
  // against deterministic scripted completions.
  void SetTelemetry(Telemetry* tel) { tm_.Wire(tel); }

 private:
  struct Op {
    wali::IoOp op;
    int64_t deadline_nanos = -1;
    uint64_t seq = 0;  // submission order
  };

  CompletionSink sink_;
  mutable std::mutex mu_;
  std::map<uint64_t, Op> ops_;
  int64_t now_nanos_ = 0;
  uint64_t seq_ = 0;
  IoBackendMetrics tm_{"fake"};
};

}  // namespace host

#endif  // SRC_HOST_IO_REACTOR_H_
