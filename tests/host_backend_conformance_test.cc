// Backend conformance suite: every IoBackend implementation must honor the
// same completion contract, because the supervisor cannot know which one is
// behind the seam. Typed over IoReactor (poll loop), FakeIoBackend (manual
// clock + scripted readiness), and IoUringBackend (skipped — never failed —
// on kernels/builds without io_uring).
//
// The contract under test:
//   - sleeps and op timeouts complete kTimedOut, in deadline order;
//   - fd error states (POLLERR/POLLHUP/POLLNVAL and their ring analogues)
//     complete kReady with no value — the RETRY surfaces the kernel's own
//     answer (EOF, EPIPE, EBADF, ...), the backend never invents one;
//   - dual-interest kPollSet members wake on EITHER readiness;
//   - negative fds in a kPollSet are placeholders (poll(2) semantics);
//   - Cancel vs. complete has exactly one winner per cookie: true means the
//     completion will never arrive, false means it already did (or will
//     imminently) and the caller absorbs the orphan.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <sys/socket.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/host/io_reactor.h"
#include "src/host/io_uring_backend.h"
#include "src/host/telemetry.h"

namespace {

constexpr int64_t kMs = 1000000;

// Thread-safe completion capture: real backends deliver from their loop
// thread, the fake delivers synchronously on the test thread; both land
// here. Install BEFORE the first Submit (the IoBackend contract).
struct Capture {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<uint64_t, host::IoCompletion>> got;

  void Install(host::IoBackend* backend) {
    backend->SetCompletionHandler(
        [this](uint64_t cookie, const host::IoCompletion& c) {
          std::lock_guard<std::mutex> lock(mu);
          got.emplace_back(cookie, c);
          cv.notify_all();
        });
  }

  bool WaitFor(size_t n, int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return got.size() >= n; });
  }

  size_t CountFor(uint64_t cookie) {
    std::lock_guard<std::mutex> lock(mu);
    size_t n = 0;
    for (const auto& e : got) {
      if (e.first == cookie) ++n;
    }
    return n;
  }
};

// Per-backend driver. `manual()` backends (the fake) need the test to move
// the clock and to script fd readiness; kernel-clocked backends just need
// wall time to pass.
struct PollReactorDriver {
  static const char* Name() { return "IoReactor"; }
  static bool Available() { return true; }
  static std::unique_ptr<host::IoBackend> Make() {
    return std::make_unique<host::IoReactor>();
  }
  static bool manual() { return false; }
  static void Settle(host::IoBackend*, int64_t) {}
  static void ScriptReady(host::IoBackend*, uint64_t) {}
};

struct FakeBackendDriver {
  static const char* Name() { return "FakeIoBackend"; }
  static bool Available() { return true; }
  static std::unique_ptr<host::IoBackend> Make() {
    return std::make_unique<host::FakeIoBackend>();
  }
  static bool manual() { return true; }
  static void Settle(host::IoBackend* b, int64_t nanos) {
    static_cast<host::FakeIoBackend*>(b)->AdvanceBy(nanos);
  }
  static void ScriptReady(host::IoBackend* b, uint64_t cookie) {
    static_cast<host::FakeIoBackend*>(b)->CompleteReady(cookie);
  }
};

struct IoUringDriver {
  static const char* Name() { return "IoUringBackend"; }
  static bool Available() { return host::IoUringAvailable(); }
  static std::unique_ptr<host::IoBackend> Make() {
    return std::make_unique<host::IoUringBackend>();
  }
  static bool manual() { return false; }
  static void Settle(host::IoBackend*, int64_t) {}
  static void ScriptReady(host::IoBackend*, uint64_t) {}
};

template <typename Driver>
class BackendConformance : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Driver::Available()) {
      GTEST_SKIP() << Driver::Name()
                   << " unavailable on this kernel/build; skipping (never "
                      "failing) per the conformance contract";
    }
    backend_ = Driver::Make();
    cap_.Install(backend_.get());
  }

  void TearDown() override {
    if (backend_ != nullptr) backend_->SetCompletionHandler(nullptr);
  }

  std::unique_ptr<host::IoBackend> backend_;
  Capture cap_;
};

using Drivers =
    ::testing::Types<PollReactorDriver, FakeBackendDriver, IoUringDriver>;
TYPED_TEST_SUITE(BackendConformance, Drivers);

TYPED_TEST(BackendConformance, SleepCompletesTimedOut) {
  this->backend_->Submit(1, wali::IoOp::Sleep(5 * kMs));
  TypeParam::Settle(this->backend_.get(), 5 * kMs);
  ASSERT_TRUE(this->cap_.WaitFor(1));
  EXPECT_EQ(this->cap_.got[0].first, 1u);
  EXPECT_EQ(this->cap_.got[0].second.status,
            host::IoCompletion::Status::kTimedOut);
  EXPECT_FALSE(this->cap_.got[0].second.has_value)
      << "timeouts carry no scripted value; the retry decides the result";
  EXPECT_EQ(this->backend_->pending(), 0u);
}

TYPED_TEST(BackendConformance, TimeoutsCompleteInDeadlineOrder) {
  this->backend_->Submit(2, wali::IoOp::Sleep(20 * kMs));
  this->backend_->Submit(1, wali::IoOp::Sleep(5 * kMs));
  TypeParam::Settle(this->backend_.get(), 20 * kMs);
  ASSERT_TRUE(this->cap_.WaitFor(2));
  EXPECT_EQ(this->cap_.got[0].first, 1u) << "earlier deadline first";
  EXPECT_EQ(this->cap_.got[1].first, 2u);
}

TYPED_TEST(BackendConformance, ReadTimeoutCompletesTimedOut) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // Empty pipe, never written: only the op's own timeout can fire.
  this->backend_->Submit(7, wali::IoOp::Readable(fds[0], 10 * kMs));
  TypeParam::Settle(this->backend_.get(), 10 * kMs);
  ASSERT_TRUE(this->cap_.WaitFor(1));
  EXPECT_EQ(this->cap_.got[0].second.status,
            host::IoCompletion::Status::kTimedOut);
  close(fds[0]);
  close(fds[1]);
}

TYPED_TEST(BackendConformance, HangupCompletesReadyAndRetrySeesKernelTruth) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[1]);  // reader watches a pipe whose write end is gone: POLLHUP
  this->backend_->Submit(3, wali::IoOp::Readable(fds[0]));
  TypeParam::ScriptReady(this->backend_.get(), 3);
  ASSERT_TRUE(this->cap_.WaitFor(1));
  EXPECT_EQ(this->cap_.got[0].second.status,
            host::IoCompletion::Status::kReady)
      << "error states complete kReady; they never invent a result";
  EXPECT_FALSE(this->cap_.got[0].second.has_value);
  // The retry's re-issued syscall is where the kernel's answer surfaces.
  char byte;
  EXPECT_EQ(read(fds[0], &byte, 1), 0) << "EOF is the kernel truth here";
  close(fds[0]);
}

TYPED_TEST(BackendConformance, ClosedFdCompletesReadyNotStuck) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[1]);
  close(fds[0]);  // the fd is dead before submit: POLLNVAL / -EBADF class
  this->backend_->Submit(4, wali::IoOp::Readable(fds[0]));
  TypeParam::ScriptReady(this->backend_.get(), 4);
  ASSERT_TRUE(this->cap_.WaitFor(1))
      << "a dead fd must complete promptly, never park forever";
  EXPECT_EQ(this->cap_.got[0].second.status,
            host::IoCompletion::Status::kReady);
}

TYPED_TEST(BackendConformance, DualInterestPollSetWakesOnWritable) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Nothing to read, but the socket is writable: a POLLIN|POLLOUT member
  // must wake on the union of interests (the PR-9 dual-interest fix).
  std::vector<wali::IoOp::PollFd> set = {{sv[0], POLLIN | POLLOUT}};
  this->backend_->Submit(5, wali::IoOp::PollSet(std::move(set), 1000 * kMs));
  TypeParam::ScriptReady(this->backend_.get(), 5);
  ASSERT_TRUE(this->cap_.WaitFor(1))
      << "writable-only readiness must complete a dual-interest member";
  EXPECT_EQ(this->cap_.got[0].second.status,
            host::IoCompletion::Status::kReady);
  close(sv[0]);
  close(sv[1]);
}

TYPED_TEST(BackendConformance, PollSetSkipsNegativeFdsAndTimesOut) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // poll(2) semantics: negative fds are placeholders. With the only real
  // member an empty pipe, the set is timer-driven.
  std::vector<wali::IoOp::PollFd> set = {
      {-1, POLLIN}, {fds[0], POLLIN}, {-1, POLLOUT}};
  this->backend_->Submit(6, wali::IoOp::PollSet(std::move(set), 10 * kMs));
  TypeParam::Settle(this->backend_.get(), 10 * kMs);
  ASSERT_TRUE(this->cap_.WaitFor(1));
  EXPECT_EQ(this->cap_.got[0].second.status,
            host::IoCompletion::Status::kTimedOut);
  close(fds[0]);
  close(fds[1]);
}

TYPED_TEST(BackendConformance, CancelledOpNeverCompletes) {
  this->backend_->Submit(8, wali::IoOp::Sleep(5 * kMs));
  EXPECT_TRUE(this->backend_->Cancel(8))
      << "an undelivered op must cancel cleanly";
  EXPECT_EQ(this->backend_->pending(), 0u);
  // Give the completion every chance to (wrongly) fire.
  this->backend_->Submit(9, wali::IoOp::Sleep(10 * kMs));
  TypeParam::Settle(this->backend_.get(), 10 * kMs);
  ASSERT_TRUE(this->cap_.WaitFor(1));
  EXPECT_EQ(this->cap_.CountFor(8), 0u) << "Cancel()==true means NEVER";
  EXPECT_EQ(this->cap_.CountFor(9), 1u);
}

TYPED_TEST(BackendConformance, CancelUnknownCookieReturnsFalse) {
  EXPECT_FALSE(this->backend_->Cancel(12345))
      << "unknown cookie: the completion was already delivered (or never "
         "submitted); the caller absorbs the orphan";
}

TYPED_TEST(BackendConformance, CancelVsCompleteExactlyOneWinner) {
  // Race Cancel against near-immediate completions. The invariant: per
  // cookie, Cancel()==true XOR a completion was delivered — never both,
  // never neither.
  constexpr uint64_t kRounds = 200;
  uint64_t cancelled = 0;
  for (uint64_t i = 0; i < kRounds; ++i) {
    const uint64_t cookie = 100 + i;
    this->backend_->Submit(cookie, wali::IoOp::Sleep(0));
    TypeParam::Settle(this->backend_.get(), 0);
    if (this->backend_->Cancel(cookie)) ++cancelled;
  }
  // Drain: one more op whose completion bounds the in-flight window.
  this->backend_->Submit(99, wali::IoOp::Sleep(kMs));
  TypeParam::Settle(this->backend_.get(), kMs);
  ASSERT_TRUE(this->cap_.WaitFor(1));  // at least the sentinel arrived
  ASSERT_TRUE(this->cap_.WaitFor(kRounds - cancelled + 1))
      << "every non-cancelled op must deliver exactly once";
  uint64_t delivered = 0;
  for (uint64_t i = 0; i < kRounds; ++i) {
    const size_t n = this->cap_.CountFor(100 + i);
    ASSERT_LE(n, 1u) << "cookie " << 100 + i << " delivered twice";
    delivered += n;
  }
  EXPECT_EQ(cancelled + delivered, kRounds)
      << "exactly one winner per cookie";
  EXPECT_EQ(this->backend_->pending(), 0u);
}

TYPED_TEST(BackendConformance, DetachBlocksUntilDeliveryDrains) {
  // After SetCompletionHandler(nullptr) returns, the old sink must never be
  // entered again — tear the handler down with ops still in flight.
  this->backend_->Submit(10, wali::IoOp::Sleep(2 * kMs));
  TypeParam::Settle(this->backend_.get(), 2 * kMs);
  this->backend_->SetCompletionHandler(nullptr);
  const size_t seen = this->cap_.CountFor(10);
  // Whatever was delivered was delivered; nothing more may arrive.
  TypeParam::Settle(this->backend_.get(), 10 * kMs);
  EXPECT_EQ(this->cap_.CountFor(10), seen);
  this->backend_->Cancel(10);  // absorb either way
}

TEST(IoUringBackendStats, StatsAreTheBatchingSeries) {
  if (!host::IoUringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel/build; skipping "
                    "(never failing)";
  }
  host::Telemetry tel;
  host::IoUringBackend backend;
  backend.SetTelemetry(&tel);
  Capture cap;
  cap.Install(&backend);
  constexpr uint64_t kOps = 4;
  for (uint64_t cookie = 1; cookie <= kOps; ++cookie) {
    backend.Submit(cookie, wali::IoOp::Sleep(kMs));
  }
  // Each enter is counted before the completions it reaped are delivered,
  // and nothing enters again until the next event.
  ASSERT_TRUE(cap.WaitFor(kOps));
  backend.SetCompletionHandler(nullptr);
  const host::IoUringBackend::Stats st = backend.stats();
  EXPECT_GT(st.enters, 0u);
  EXPECT_GE(st.sqes, kOps);
  EXPECT_EQ(st.sqes, tel.registry().GetCounter("io_uring_sqes_total")->value());
  EXPECT_EQ(st.enters,
            tel.registry().GetCounter("io_uring_enters_total")->value());
}

}  // namespace
