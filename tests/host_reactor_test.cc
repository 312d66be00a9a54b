// The production IoReactor (poll/self-pipe completion loop) against real
// fds and real (short) time: sleep expiry, pipe readiness, writability,
// cancellation, fd closed while an op is in flight, and an end-to-end
// supervisor run where real sleeps park off-worker. Also the deadline
// arithmetic io_reactor.cc shares between the reactor and FakeIoBackend:
// guest timeouts near INT64_MAX saturate, and the loop's poll wait clamps.
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/host/host.h"
#include "tests/wali_test_util.h"

namespace {

constexpr int64_t kMs = 1000000;

// Collects completions with a waitable latch.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<uint64_t, host::IoCompletion>> got;

  host::IoBackend::CompletionFn fn() {
    return [this](uint64_t cookie, const host::IoCompletion& c) {
      std::lock_guard<std::mutex> lock(mu);
      got.emplace_back(cookie, c);
      cv.notify_all();
    };
  }
  bool WaitFor(size_t n, int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return got.size() >= n; });
  }
};

TEST(IoReactor, SleepCompletesAfterDuration) {
  host::IoReactor reactor;
  Collector c;
  reactor.SetCompletionHandler(c.fn());
  int64_t t0 = reactor.NowNanos();
  reactor.Submit(1, wali::IoOp::Sleep(5 * kMs));
  ASSERT_TRUE(c.WaitFor(1));
  EXPECT_GE(reactor.NowNanos() - t0, 5 * kMs);
  EXPECT_EQ(c.got[0].first, 1u);
  EXPECT_EQ(c.got[0].second.status, host::IoCompletion::Status::kTimedOut);
  EXPECT_EQ(reactor.pending(), 0u);
}

TEST(IoReactor, PipeBecomesReadable) {
  host::IoReactor reactor;
  Collector c;
  reactor.SetCompletionHandler(c.fn());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  reactor.Submit(7, wali::IoOp::Fd(fds[0], POLLIN));
  // Nothing yet: the op must not complete on an empty pipe.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(reactor.pending(), 1u);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  ASSERT_TRUE(c.WaitFor(1));
  EXPECT_EQ(c.got[0].first, 7u);
  EXPECT_EQ(c.got[0].second.status, host::IoCompletion::Status::kReady);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(IoReactor, WritableCompletesImmediatelyOnEmptyPipe) {
  host::IoReactor reactor;
  Collector c;
  reactor.SetCompletionHandler(c.fn());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  reactor.Submit(9, wali::IoOp::Fd(fds[1], POLLOUT));
  ASSERT_TRUE(c.WaitFor(1));
  EXPECT_EQ(c.got[0].second.status, host::IoCompletion::Status::kReady);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(IoReactor, ReadTimeoutFires) {
  host::IoReactor reactor;
  Collector c;
  reactor.SetCompletionHandler(c.fn());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  reactor.Submit(3, wali::IoOp::PollSet({{fds[0], POLLIN}}, 5 * kMs));
  ASSERT_TRUE(c.WaitFor(1));
  EXPECT_EQ(c.got[0].second.status, host::IoCompletion::Status::kTimedOut);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(IoReactor, CancelSuppressesCompletion) {
  host::IoReactor reactor;
  Collector c;
  reactor.SetCompletionHandler(c.fn());
  reactor.Submit(4, wali::IoOp::Sleep(500 * kMs));
  EXPECT_TRUE(reactor.Cancel(4));
  EXPECT_EQ(reactor.pending(), 0u);
  EXPECT_FALSE(reactor.Cancel(4)) << "second cancel: already gone";
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(c.got.empty());
}

TEST(IoReactor, ClosedFdCompletesInsteadOfHanging) {
  // Fd trouble while an op is in flight: closing the WRITE end makes the
  // read end POLLHUP-ready; the completion is kReady and the re-dispatched
  // read (here: the caller) observes EOF from the kernel. The reactor must
  // not hang.
  host::IoReactor reactor;
  Collector c;
  reactor.SetCompletionHandler(c.fn());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  reactor.Submit(5, wali::IoOp::Fd(fds[0], POLLIN));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ::close(fds[1]);
  ASSERT_TRUE(c.WaitFor(1));
  EXPECT_EQ(c.got[0].second.status, host::IoCompletion::Status::kReady);
  char b;
  EXPECT_EQ(::read(fds[0], &b, 1), 0) << "the re-issued read sees EOF";
  ::close(fds[0]);
}

TEST(IoReactor, PollTimeoutRoundsUpAndClamps) {
  const int64_t now = 1000 * kMs;
  EXPECT_EQ(host::IoReactor::PollTimeoutMillis(-1, now), -1) << "no deadline";
  EXPECT_EQ(host::IoReactor::PollTimeoutMillis(now - 1, now), 0) << "overdue";
  EXPECT_EQ(host::IoReactor::PollTimeoutMillis(now, now), 0);
  EXPECT_EQ(host::IoReactor::PollTimeoutMillis(now + 1, now), 1);
  EXPECT_EQ(host::IoReactor::PollTimeoutMillis(now + kMs, now), 1);
  EXPECT_EQ(host::IoReactor::PollTimeoutMillis(now + kMs + 1, now), 2);
  // 30 days is more ms than an int holds: the wait clamps to INT_MAX (the
  // loop recomputes it at every wakeup) instead of wrapping negative, which
  // poll(2) would take as "wait forever".
  const int64_t kDay = 86400LL * 1000 * kMs;
  EXPECT_EQ(host::IoReactor::PollTimeoutMillis(now + 30 * kDay, now), INT_MAX);
  EXPECT_EQ(host::IoReactor::PollTimeoutMillis(INT64_MAX, now), INT_MAX);
}

TEST(FakeIoBackend, HugeSleepSaturatesAtTheEndOfTime) {
  // A guest timespec too large for int64 nanos saturates to INT64_MAX
  // (SleepDurationNanos); on a clock past zero, now + INT64_MAX must
  // saturate too, not wrap into "no deadline" and wait forever.
  host::FakeIoBackend fake;
  Collector c;
  fake.SetCompletionHandler(c.fn());
  fake.AdvanceTo(5 * kMs);
  fake.Submit(1, wali::IoOp::Sleep(INT64_MAX));
  fake.AdvanceTo(INT64_MAX - 1);
  EXPECT_TRUE(c.got.empty());
  fake.AdvanceTo(INT64_MAX);
  ASSERT_EQ(c.got.size(), 1u);
  EXPECT_EQ(c.got[0].second.status, host::IoCompletion::Status::kTimedOut);
  EXPECT_EQ(fake.pending(), 0u);
}

TEST(IoReactor, ManyConcurrentSleeps) {
  host::IoReactor reactor;
  Collector c;
  reactor.SetCompletionHandler(c.fn());
  for (uint64_t i = 0; i < 32; ++i) {
    reactor.Submit(i, wali::IoOp::Sleep(static_cast<int64_t>(1 + i % 4) * kMs));
  }
  ASSERT_TRUE(c.WaitFor(32));
  EXPECT_EQ(reactor.pending(), 0u);
}

std::string WrapModule(const std::string& body) {
  return std::string("(module ") + wali_test::kPrelude + body + ")";
}

// Sleeps 20ms for real, exits 7.
const char* kRealSleeper = R"(
  (memory 2)
  (func (export "main") (result i32)
    (i64.store (i32.const 512) (i64.const 0))
    (i64.store (i32.const 520) (i64.const 20000000))
    (drop (call $nanosleep (i64.const 512) (i64.const 0)))
    (i32.const 7))
)";

TEST(IoReactor, SupervisorEndToEndRealSleeps) {
  // 16 guests x 20ms real sleep on 2 workers. Synchronously that floors at
  // 8 x 20ms = 160ms of wall; with offload every guest parks on the
  // reactor and the batch finishes in a few sleep-durations. The hard
  // assertions are concurrency (in-flight > workers) and correctness; the
  // wall-clock bound is generous (CI-safe) but still far under the
  // synchronous floor.
  wasm::Linker linker;
  wali::WaliRuntime runtime(&linker);
  host::ModuleCache cache;
  host::IoReactor reactor;
  host::Supervisor::Options opts;
  opts.workers = 2;
  opts.io_backend = &reactor;
  auto sup = std::make_unique<host::Supervisor>(&runtime, opts);
  auto module = cache.Load(WrapModule(kRealSleeper));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  int64_t t0 = common::MonotonicNanos();
  std::vector<host::GuestJob> jobs;
  for (int i = 0; i < 16; ++i) {
    host::GuestJob job;
    job.module = *module;
    job.argv = {"sleeper"};
    job.tenant = "t";
    jobs.push_back(std::move(job));
  }
  std::vector<host::RunReport> reports = sup->RunAll(std::move(jobs));
  int64_t wall = common::MonotonicNanos() - t0;

  for (const host::RunReport& r : reports) {
    EXPECT_TRUE(r.completed()) << r.trap_message;
    EXPECT_EQ(r.exit_code, 7);
    EXPECT_EQ(r.parks, 1u);
    EXPECT_GE(r.blocked_nanos, 15 * kMs);
  }
  host::Supervisor::IoStats s = sup->io_stats();
  EXPECT_GT(s.peak_in_flight, 2u) << "parked guests must overlap workers";
  EXPECT_LT(wall, 120 * kMs) << "16x20ms must not serialize onto 2 workers";
  sup->Shutdown();
}

}  // namespace
