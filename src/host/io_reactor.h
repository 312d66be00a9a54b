// IoReactor: the completion loop behind the supervisor's async syscall
// offload (ROADMAP "async syscall batching").
//
// When a guest enters a blocking-capable syscall, the WALI layer parks the
// run (wasm::TrapKind::kSyscallPending, see src/wali/async.h) and the
// supervisor registers the operation here instead of letting a worker
// thread block 1:1 with the guest. The backend watches the readiness class
// (fd readable/writable, or a timer) and delivers exactly one completion
// per cookie; the supervisor then re-admits the parked job and materializes
// the syscall result into the suspended guest frame.
//
// The API is submit/complete in the io_uring style — cookie-keyed ops, a
// single completion sink, cancellation — so a real io_uring backend can
// slot in behind the same seam later. Two implementations live here:
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

// One completion, delivered exactly once per submitted cookie (unless
// Cancel wins the race).
struct IoCompletion {
  enum class Status : uint8_t {
    kReady = 0,  // the readiness class was satisfied
    kTimedOut,   // the op's own timeout (or a sleep's duration) elapsed
    kError,      // the backend cannot wait on this op; value = -errno
  };

  Status status = Status::kReady;
  int64_t value = 0;
  // When true, `value` IS the syscall result and any retry closure is
  // skipped. Real backends leave this false (the retry re-issues the now-
  // ready syscall); fakes use it to script exact results deterministically.
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
  // kError with value = -errno but has_value left false: the supervisor's
  // materialization order surfaces `value` for kError directly, and leaving
  // has_value false keeps scripted-result semantics distinct.
  static IoCompletion Error(int64_t v) {
    IoCompletion c;
    c.status = Status::kError;
    c.value = v;
    return c;
  }
};

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

// Production backend: one reactor thread multiplexing every parked op over
// poll(2), woken through a self-pipe on submit/cancel/shutdown, with sleep
// and timeout deadlines kept in the same table. fd errors (POLLERR/POLLHUP/
// POLLNVAL) complete as kReady — the retry re-issues the real syscall and
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

 private:
  struct Op {
    wali::IoOp op;
    int64_t deadline_nanos = -1;  // absolute; -1 = none
  };

  void Loop();
  void Wake();
  void Deliver(uint64_t cookie, const IoCompletion& completion);

  // Guards complete_ and is held across every handler invocation, so
  // SetCompletionHandler(nullptr) cannot return mid-delivery. Never taken
  // while holding mu_ (and vice versa).
  std::mutex deliver_mu_;
  CompletionFn complete_;
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

  // Moves the manual clock and synchronously delivers every sleep/timeout
  // completion that became due, in (deadline, cookie) order.
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

  void Deliver(uint64_t cookie, const IoCompletion& completion);

  std::mutex deliver_mu_;  // same contract as IoReactor::deliver_mu_
  CompletionFn complete_;
  mutable std::mutex mu_;
  std::map<uint64_t, Op> ops_;
  int64_t now_nanos_ = 0;
  uint64_t seq_ = 0;
  IoBackendMetrics tm_{"fake"};
};

}  // namespace host

#endif  // SRC_HOST_IO_REACTOR_H_
