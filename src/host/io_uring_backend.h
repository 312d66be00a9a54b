// IoUringBackend: the io_uring production backend behind the IoBackend seam.
//
// Where IoReactor rebuilds a full poll(2) table on every wakeup, this
// backend registers each parked op with the kernel once — POLL_ADD for fd
// readiness (with IORING_OP_LINK_TIMEOUT linked for per-op timeouts),
// IORING_OP_TIMEOUT for sleeps and poll-set deadlines — and then blocks in
// a single io_uring_enter per wakeup that both submits the batch of SQEs
// coalesced since the last wakeup and waits for the next CQE. Cancellation
// goes through IORING_OP_ASYNC_CANCEL / IORING_OP_TIMEOUT_REMOVE with the
// seam's existing semantics: Cancel returns false exactly when the
// completion was already delivered and the caller must absorb the orphan.
//
// Build gating: the HOST_IO_URING CMake option (default ON where
// <linux/io_uring.h> exists) compiles the ring code in. Without it — or on
// kernels that reject io_uring_setup(2) at runtime — the class still
// constructs and honors the full IoBackend contract, answering every
// submit asynchronously with kError(-ENOSYS) so callers can probe with
// IoUringAvailable() and fall back to IoReactor.
#ifndef SRC_HOST_IO_URING_BACKEND_H_
#define SRC_HOST_IO_URING_BACKEND_H_

#include <cstdint>
#include <memory>

#include "src/host/io_reactor.h"

namespace host {

// True when the ring code is compiled in AND the running kernel accepts
// io_uring_setup(2). The kernel probe runs once and is cached.
bool IoUringAvailable();

class IoUringBackend : public IoBackend {
 public:
  IoUringBackend();
  ~IoUringBackend() override;  // cancels nothing: owner drains first

  IoUringBackend(const IoUringBackend&) = delete;
  IoUringBackend& operator=(const IoUringBackend&) = delete;

  void SetCompletionHandler(CompletionFn fn) override;
  void Submit(uint64_t cookie, const wali::IoOp& op) override;
  bool Cancel(uint64_t cookie) override;
  int64_t NowNanos() const override;
  size_t pending() const override;

  // Same contract as IoReactor::SetTelemetry (call before the first
  // Submit); the io_* series carry io_backend="io_uring", and the batching
  // series below move along.
  void SetTelemetry(Telemetry* tel);

  // False when this instance is running the -ENOSYS fallback (no ring).
  bool ring_ok() const;

  // Submission batching, a view over io_uring_enters_total and
  // io_uring_sqes_total: sqes/enters is the coalescing ratio the bench
  // reports (poll(2) has no equivalent — it rebuilds per wakeup).
  struct Stats {
    uint64_t enters = 0;  // io_uring_enter calls that submitted SQEs
    uint64_t sqes = 0;    // SQEs submitted through them
  };
  Stats stats() const;

 private:
  struct Impl;  // keeps <linux/io_uring.h> types out of this header
  std::unique_ptr<Impl> impl_;
};

}  // namespace host

#endif  // SRC_HOST_IO_URING_BACKEND_H_
