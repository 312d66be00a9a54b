// Deterministic fake-I/O harness for the supervisor's async syscall
// offload: guests entering blocking syscalls park OFF-worker (the worker is
// released), the FakeIoBackend's manual clock and scriptable completions
// drive resume order, and suspended/resumed runs stay bit-identical to
// blocking runs. Fault injection rides the same seam: completions arriving
// after a guest was shed, deadline sheds of parked guests, tenant Forget
// and budget exhaustion mid-park, and supervisor shutdown with parked
// guests — all without real I/O or real time (the sole blocking-baseline
// differential uses a 2ms real sleep).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/host/host.h"
#include "tests/wali_test_util.h"

namespace {

constexpr int64_t kMs = 1000000;

std::string WrapModule(const std::string& body) {
  return std::string("(module ") + wali_test::kPrelude + body + ")";
}

// Sleeps 50ms once, does a little compute, exits 42.
const char* kSleeperGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $i i32)
    (i64.store (i32.const 512) (i64.const 0))
    (i64.store (i32.const 520) (i64.const 50000000))
    (drop (call $nanosleep (i64.const 512) (i64.const 0)))
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 100)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (i32.const 42))
)";

// Two 2ms sleeps with compute between: short enough to run for real as the
// blocking baseline of the differential test.
const char* kTwoSleepGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $i i32) (local $acc i32)
    (i64.store (i32.const 512) (i64.const 0))
    (i64.store (i32.const 520) (i64.const 2000000))
    (drop (call $nanosleep (i64.const 512) (i64.const 0)))
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 500)))
        (local.set $acc (i32.add (local.get $acc) (local.get $i)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (drop (call $nanosleep (i64.const 512) (i64.const 0)))
    (i32.rem_u (local.get $acc) (i32.const 97)))
)";

// Pipe round-trip through parked writes and reads: pipe2, write one byte
// (parks: Writable), read it back (parks: Readable), exit with the byte.
const char* kPipeGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $rfd i64) (local $wfd i64) (local $r i64)
    (drop (call $pipe2 (i64.const 256) (i64.const 0)))
    (local.set $rfd (i64.load32_s (i32.const 256)))
    (local.set $wfd (i64.load32_s (i32.const 260)))
    (i32.store8 (i32.const 1024) (i32.const 77))
    (drop (call $write (local.get $wfd) (i64.const 1024) (i64.const 1)))
    (local.set $r (call $read (local.get $rfd) (i64.const 2048) (i64.const 1)))
    (if (i64.ne (local.get $r) (i64.const 1))
      (then (return (i32.const 255))))
    (i32.load8_u (i32.const 2048)))
)";

// Non-blocking I/O must NOT park: O_NONBLOCK pipe (pipe2 flag 0x800) read
// returns -EAGAIN (-11) inline, and poll with timeout 0 returns 0 inline.
// Exits 9 only if both answers match the blocking-path contract.
const char* kNonBlockGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $rfd i64)
    (drop (call $pipe2 (i64.const 256) (i64.const 2048)))  ;; O_NONBLOCK
    (local.set $rfd (i64.load32_s (i32.const 256)))
    (if (i64.ne (call $read (local.get $rfd) (i64.const 1024) (i64.const 1))
                (i64.const -11))
      (then (return (i32.const 1))))
    ;; pollfd at 512: fd, events=POLLIN(1), revents
    (i32.store (i32.const 512) (i32.wrap_i64 (local.get $rfd)))
    (i32.store16 (i32.const 516) (i32.const 1))
    (if (i64.ne (call $poll (i64.const 512) (i64.const 1) (i64.const 0))
                (i64.const 0))
      (then (return (i32.const 2))))
    (i32.const 9))
)";

// ppoll on an empty pipe with a 50ms timespec: musl's poll(3) shape. Must
// park (kPollSet) instead of pinning a worker in the kernel; the timeout
// completion's retry re-polls with timeout 0 and reports 0 ready fds.
const char* kPpollSleeperGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $rfd i64) (local $r i64)
    (drop (call $pipe2 (i64.const 256) (i64.const 0)))
    (local.set $rfd (i64.load32_s (i32.const 256)))
    ;; pollfd at 512: fd, events=POLLIN(1)
    (i32.store (i32.const 512) (i32.wrap_i64 (local.get $rfd)))
    (i32.store16 (i32.const 516) (i32.const 1))
    ;; timespec at 528: 50ms
    (i64.store (i32.const 528) (i64.const 0))
    (i64.store (i32.const 536) (i64.const 50000000))
    (local.set $r (call $ppoll (i64.const 512) (i64.const 1) (i64.const 528)
                               (i64.const 0) (i64.const 8)))
    (if (i64.ne (local.get $r) (i64.const 0))
      (then (return (i32.const 255))))
    (i32.const 21))
)";

// poll with events = POLLIN|POLLOUT on a fresh socketpair end, 1s timeout.
// The park must carry BOTH interests; the socket is writable, so the retry
// materializes revents = POLLOUT and the guest exits with it (4).
const char* kDualInterestPollGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $fd i64) (local $r i64)
    (if (i64.ne (call $socketpair (i64.const 1) (i64.const 1) (i64.const 0)
                                  (i64.const 256))
                (i64.const 0))
      (then (return (i32.const 250))))
    (local.set $fd (i64.load32_s (i32.const 256)))
    ;; pollfd at 512: fd, events = POLLIN|POLLOUT = 5
    (i32.store (i32.const 512) (i32.wrap_i64 (local.get $fd)))
    (i32.store16 (i32.const 516) (i32.const 5))
    (local.set $r (call $poll (i64.const 512) (i64.const 1) (i64.const 1000)))
    (if (i64.ne (local.get $r) (i64.const 1))
      (then (return (i32.const 251))))
    (i32.load16_u (i32.const 518)))
)";

// Plain FUTEX_WAIT with a 50ms timeout in a threadless process: value
// mismatch answers -EAGAIN inline; a matching value parks as a pure timer
// and the retry reports -ETIMEDOUT, exactly as the kernel would.
const char* kFutexWaitGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $r i64)
    (i32.store (i32.const 1024) (i32.const 7))
    ;; timespec at 528: 50ms
    (i64.store (i32.const 528) (i64.const 0))
    (i64.store (i32.const 536) (i64.const 50000000))
    (local.set $r (call $futex (i64.const 1024) (i64.const 0) (i64.const 8)
                               (i64.const 528) (i64.const 0) (i64.const 0)))
    (if (i64.ne (local.get $r) (i64.const -11))
      (then (return (i32.const 252))))
    (local.set $r (call $futex (i64.const 1024) (i64.const 0) (i64.const 7)
                               (i64.const 528) (i64.const 0) (i64.const 0)))
    (if (i64.ne (local.get $r) (i64.const -110))
      (then (return (i32.const 253))))
    (i32.const 31))
)";

// writev then readv through a pipe, two single-byte iovecs each: both park
// on their readiness class and the retries re-translate the iovec arrays
// against live memory. Exits 40 + 2 = 42.
const char* kVectoredPipeGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $rfd i64) (local $wfd i64) (local $r i64)
    (drop (call $pipe2 (i64.const 256) (i64.const 0)))
    (local.set $rfd (i64.load32_s (i32.const 256)))
    (local.set $wfd (i64.load32_s (i32.const 260)))
    (i32.store8 (i32.const 1024) (i32.const 40))
    (i32.store8 (i32.const 1025) (i32.const 2))
    ;; iov at 768: [{1024,1},{1025,1}]
    (i32.store (i32.const 768) (i32.const 1024))
    (i32.store (i32.const 772) (i32.const 1))
    (i32.store (i32.const 776) (i32.const 1025))
    (i32.store (i32.const 780) (i32.const 1))
    (local.set $r (call $writev (local.get $wfd) (i64.const 768) (i64.const 2)))
    (if (i64.ne (local.get $r) (i64.const 2))
      (then (return (i32.const 254))))
    ;; iov at 832: [{2048,1},{2049,1}]
    (i32.store (i32.const 832) (i32.const 2048))
    (i32.store (i32.const 836) (i32.const 1))
    (i32.store (i32.const 840) (i32.const 2049))
    (i32.store (i32.const 844) (i32.const 1))
    (local.set $r (call $readv (local.get $rfd) (i64.const 832) (i64.const 2)))
    (if (i64.ne (local.get $r) (i64.const 2))
      (then (return (i32.const 253))))
    (i32.add (i32.load8_u (i32.const 2048)) (i32.load8_u (i32.const 2049))))
)";

// TCP loopback connect: bind+listen on 127.0.0.1:0, learn the port via
// getsockname, then connect a second socket to it. Nonblocking TCP connect
// always answers -EINPROGRESS, so the connect parks (Writable) and the
// retry reads the outcome from SO_ERROR.
const char* kConnectGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $ls i64) (local $cs i64) (local $r i64)
    (local.set $ls (call $socket (i64.const 2) (i64.const 1) (i64.const 0)))
    (if (i64.lt_s (local.get $ls) (i64.const 0))
      (then (return (i32.const 240))))
    ;; sockaddr_in at 512: family=2, port=0, addr=127.0.0.1
    (i32.store16 (i32.const 512) (i32.const 2))
    (i32.store16 (i32.const 514) (i32.const 0))
    (i32.store (i32.const 516) (i32.const 0x0100007f))
    (i64.store (i32.const 520) (i64.const 0))
    (if (i64.ne (call $bind (local.get $ls) (i64.const 512) (i64.const 16))
                (i64.const 0))
      (then (return (i32.const 241))))
    (if (i64.ne (call $listen (local.get $ls) (i64.const 8)) (i64.const 0))
      (then (return (i32.const 242))))
    ;; learn the bound port: getsockname into 544 (len at 576 = 16)
    (i32.store (i32.const 576) (i32.const 16))
    (if (i64.ne (call $getsockname (local.get $ls) (i64.const 544)
                                   (i64.const 576))
                (i64.const 0))
      (then (return (i32.const 243))))
    (local.set $cs (call $socket (i64.const 2) (i64.const 1) (i64.const 0)))
    (if (i64.lt_s (local.get $cs) (i64.const 0))
      (then (return (i32.const 244))))
    (local.set $r (call $connect (local.get $cs) (i64.const 544) (i64.const 16)))
    (if (i64.ne (local.get $r) (i64.const 0))
      (then (return (i32.const 245))))
    (i32.const 52))
)";

// Pure compute, no syscalls: used to burn tenant fuel deterministically.
const char* kBurnGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $i i32)
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 20000)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (i32.const 0))
)";

struct ManualClock {
  std::shared_ptr<std::atomic<int64_t>> now =
      std::make_shared<std::atomic<int64_t>>(0);

  std::function<int64_t()> fn() const {
    auto n = now;
    return [n] { return n->load(std::memory_order_acquire); };
  }
  void Advance(int64_t nanos) { now->fetch_add(nanos, std::memory_order_acq_rel); }
};

struct IoWorld {
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wali::WaliRuntime> runtime;
  std::unique_ptr<host::ModuleCache> cache;
  // Owned via pointer (mutex members make the backend immovable);
  // declared before sup so it is destroyed after the supervisor detaches.
  std::unique_ptr<host::FakeIoBackend> fake =
      std::make_unique<host::FakeIoBackend>();
  std::unique_ptr<host::Supervisor> sup;
  ManualClock clock;
};

IoWorld MakeIoWorld(size_t workers, bool with_backend = true,
                    wasm::DispatchMode dispatch = wasm::DispatchMode::kAuto) {
  IoWorld w;
  w.linker = std::make_unique<wasm::Linker>();
  wali::WaliRuntime::Options ropts;
  ropts.dispatch = dispatch;
  w.runtime = std::make_unique<wali::WaliRuntime>(w.linker.get(), ropts);
  w.cache = std::make_unique<host::ModuleCache>();
  host::Supervisor::Options opts;
  opts.workers = workers;
  opts.clock = w.clock.fn();
  opts.pool.max_idle_per_module = workers;
  if (with_backend) {
    opts.io_backend = w.fake.get();
  }
  w.sup = std::make_unique<host::Supervisor>(w.runtime.get(), opts);
  return w;
}

host::GuestJob MakeJob(std::shared_ptr<const wasm::Module> module,
                       const std::string& tenant, int64_t deadline = 0) {
  host::GuestJob job;
  job.module = module;
  job.argv = {tenant};
  job.tenant = tenant;
  job.deadline_nanos = deadline;
  return job;
}

// Real threads park asynchronously; bound the wait for the backend to see
// the expected number of pending ops.
bool WaitForPending(const host::FakeIoBackend& fake, size_t n,
                    int timeout_ms = 10000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (fake.pending() == n) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return fake.pending() == n;
}

TEST(HostIo, ParkedSleepReleasesWorkerAndResumes) {
  IoWorld w = MakeIoWorld(/*workers=*/1);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok()) << sleeper.status().ToString();
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  EXPECT_EQ(w.sup->parked(), 1u);
  EXPECT_EQ(slept.wait_for(std::chrono::seconds(0)), std::future_status::timeout);

  // The single worker is free while the sleeper is parked: an unrelated job
  // runs to completion with the sleeper still blocked.
  host::RunReport quick = w.sup->Submit(MakeJob(*burner, "t")).get();
  EXPECT_TRUE(quick.completed());
  EXPECT_EQ(w.sup->parked(), 1u);

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = slept.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 42);
  EXPECT_EQ(r.parks, 1u);
  EXPECT_EQ(r.total_syscalls, 1u);
  host::Supervisor::IoStats s = w.sup->io_stats();
  EXPECT_EQ(s.parks_total, 1u);
  EXPECT_EQ(s.resumes_total, 1u);
  EXPECT_EQ(s.parked_now, 0u);
}

TEST(HostIo, SixtyFourGuestsInFlightOnFourWorkers) {
  // The acceptance bar: 64 guests blocked on a fake sleep, 4 workers — all
  // 64 in flight concurrently, and ONE 50ms clock advance completes them
  // all (the deterministic analogue of "~1 sleep-duration wall-clock").
  constexpr size_t kGuests = 64;
  constexpr size_t kWorkers = 4;
  IoWorld w = MakeIoWorld(kWorkers);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::vector<std::future<host::RunReport>> futures;
  for (size_t i = 0; i < kGuests; ++i) {
    futures.push_back(w.sup->Submit(MakeJob(*module, "t" + std::to_string(i % 8))));
  }
  ASSERT_TRUE(WaitForPending(*w.fake, kGuests))
      << "all guests must park concurrently; pending=" << w.fake->pending();

  host::Supervisor::IoStats s = w.sup->io_stats();
  EXPECT_EQ(s.parked_now, kGuests);
  EXPECT_EQ(s.in_flight_now, kGuests);
  EXPECT_GT(s.peak_in_flight, kWorkers)
      << "parked guests must not hold workers 1:1";
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  }

  w.fake->AdvanceBy(50 * kMs);
  for (auto& f : futures) {
    host::RunReport r = f.get();
    EXPECT_TRUE(r.completed()) << r.trap_message;
    EXPECT_EQ(r.exit_code, 42);
    EXPECT_EQ(r.parks, 1u);
  }
  s = w.sup->io_stats();
  EXPECT_EQ(s.peak_in_flight, kGuests);
  EXPECT_EQ(s.parks_total, kGuests);
  EXPECT_EQ(s.resumes_total, kGuests);
  EXPECT_EQ(s.parked_now, 0u);
  EXPECT_EQ(s.in_flight_now, 0u);
}

TEST(HostIo, SuspendedRunBitIdenticalToBlockingRun) {
  // The cross-stack differential: the same guest under (a) the synchronous
  // 1:1 model with REAL 2ms kernel sleeps and (b) the fake-I/O offload
  // path must agree bit-for-bit on executed_instrs, fuel_consumed, syscall
  // counts, and exit code — across both dispatch modes.
  for (wasm::DispatchMode mode :
       {wasm::DispatchMode::kSwitch, wasm::DispatchMode::kThreaded}) {
    SCOPED_TRACE(wasm::DispatchModeName(mode));
    IoWorld blocking = MakeIoWorld(1, /*with_backend=*/false, mode);
    auto m1 = blocking.cache->Load(WrapModule(kTwoSleepGuest));
    ASSERT_TRUE(m1.ok()) << m1.status().ToString();
    host::RunReport want = blocking.sup->Submit(MakeJob(*m1, "t")).get();
    ASSERT_TRUE(want.completed()) << want.trap_message;
    EXPECT_EQ(want.parks, 0u);

    IoWorld offload = MakeIoWorld(1, /*with_backend=*/true, mode);
    auto m2 = offload.cache->Load(WrapModule(kTwoSleepGuest));
    ASSERT_TRUE(m2.ok());
    std::future<host::RunReport> fut = offload.sup->Submit(MakeJob(*m2, "t"));
    for (int park = 0; park < 2; ++park) {
      ASSERT_TRUE(WaitForPending(*offload.fake, 1)) << "park " << park;
      offload.fake->AdvanceBy(2 * kMs);
    }
    host::RunReport got = fut.get();
    ASSERT_TRUE(got.completed()) << got.trap_message;
    EXPECT_EQ(got.parks, 2u);

    EXPECT_EQ(got.exit_code, want.exit_code);
    EXPECT_EQ(got.executed_instrs, want.executed_instrs);
    EXPECT_EQ(got.fuel_consumed, want.fuel_consumed);
    EXPECT_EQ(got.total_syscalls, want.total_syscalls);
    ASSERT_EQ(got.syscall_counts.size(), want.syscall_counts.size());
    for (size_t i = 0; i < want.syscall_counts.size(); ++i) {
      EXPECT_EQ(got.syscall_counts[i], want.syscall_counts[i]);
    }
  }
}

TEST(HostIo, PipeRoundTripThroughScriptedCompletions) {
  // Write parks (Writable), read parks (Readable); the test drives the
  // completion ORDER and the retries perform the real, now-ready syscalls.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kPipeGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  ASSERT_EQ(cookies.size(), 1u);
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(op.kind, wali::IoOp::Kind::kWritable);
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));  // pipe has space: retry writes

  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  cookies = w.fake->PendingCookies();
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(op.kind, wali::IoOp::Kind::kReadable);
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));  // byte is there: retry reads

  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 77);
  EXPECT_EQ(r.parks, 2u);
}

TEST(HostIo, ScriptedResultOverridesRetry) {
  // A completion carrying a value IS the syscall result — the retry is
  // skipped. This is how tests inject exact kernel answers (here: EBADF
  // for an fd that "closed while the op was in flight").
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kPipeGuest));
  ASSERT_TRUE(module.ok());

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));  // write proceeds
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  cookies = w.fake->PendingCookies();
  // Script the read's answer: -EBADF (fd closed mid-flight). Guest sees
  // read() != 1 and exits 255.
  ASSERT_TRUE(w.fake->CompleteWithResult(cookies[0], -9));
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed());
  EXPECT_EQ(r.exit_code, 255);
}

TEST(HostIo, PpollSleeperParksInsteadOfPinningWorker) {
  // Regression: SysPpoll used to bypass the offload gate entirely, so a
  // musl guest (whose poll(3) IS ppoll) pinned a worker in the kernel for
  // the full timeout. It must park like poll does. Pre-fix this test hangs
  // at WaitForPending: the fake backend never sees an op.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kPpollSleeperGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1))
      << "ppoll must offload, not block a worker";
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  ASSERT_EQ(cookies.size(), 1u);
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(op.kind, wali::IoOp::Kind::kPollSet);
  ASSERT_EQ(op.poll_fds.size(), 1u);
  EXPECT_EQ(op.poll_fds[0].events, POLLIN);
  EXPECT_EQ(op.timeout_nanos, 50 * kMs);

  w.fake->AdvanceBy(50 * kMs);  // kTimedOut: retry re-polls with timeout 0
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 21);
  EXPECT_EQ(r.parks, 1u);
}

TEST(HostIo, DualInterestPollParksOnUnionOfInterests) {
  // Regression: the single-fd fast path only understood "POLLIN xor
  // POLLOUT", so events = POLLIN|POLLOUT either refused to park or parked
  // on readability alone and slept to the full timeout on a
  // writable-but-silent socket. The park must carry BOTH interests and the
  // retry must surface the kernel's revents (POLLOUT here).
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kDualInterestPollGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1))
      << "dual-interest poll must still offload";
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  ASSERT_EQ(cookies.size(), 1u);
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  ASSERT_EQ(op.kind, wali::IoOp::Kind::kPollSet);
  ASSERT_EQ(op.poll_fds.size(), 1u);
  EXPECT_EQ(op.poll_fds[0].events, POLLIN | POLLOUT)
      << "the parked op must keep the union of interests";

  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));  // socket is writable
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, POLLOUT) << "guest exits with materialized revents";
  EXPECT_EQ(r.parks, 1u);
}

TEST(HostIo, FutexWaitParksAsTimer) {
  // A threadless FUTEX_WAIT with a timeout has no possible waker, so it is
  // a pure timer: value mismatch answers -EAGAIN inline (no park), a match
  // parks as kSleep and the retry reports -ETIMEDOUT.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kFutexWaitGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(op.kind, wali::IoOp::Kind::kSleep);
  EXPECT_EQ(op.sleep_nanos, 50 * kMs);

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 31);
  EXPECT_EQ(r.parks, 1u) << "the -EAGAIN probe must answer inline";
}

TEST(HostIo, VectoredPipeIoParksAndRetranslates) {
  // readv/writev ride the same readiness classes as read/write; the retry
  // re-translates the guest iovec array against live memory at resume time.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kVectoredPipeGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(op.kind, wali::IoOp::Kind::kWritable);
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));  // pipe has space

  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  cookies = w.fake->PendingCookies();
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(op.kind, wali::IoOp::Kind::kReadable);
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));  // both bytes are there

  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 42);
  EXPECT_EQ(r.parks, 2u);
}

TEST(HostIo, ConnectParksUntilEstablished) {
  // Nonblocking TCP connect answers -EINPROGRESS even on loopback; the
  // handler must park on writability and read the outcome from SO_ERROR
  // instead of holding a worker through the handshake.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kConnectGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1))
      << "connect must offload instead of blocking";
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(op.kind, wali::IoOp::Kind::kWritable);
  // Loopback handshakes complete in the kernel without our help; SO_ERROR
  // is 0 by the time the retry runs.
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));

  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 52);
  EXPECT_EQ(r.parks, 1u);
}

TEST(HostIo, BlockedTimeIsNotQueueTime) {
  // Regression for the RunReport timing split: a sleeping guest accrues
  // blocked_nanos, NOT queue_nanos — and it does not inflate the queue
  // latency of jobs submitted while it sleeps (the pre-offload failure
  // mode: a parked worker made everyone else queue behind it).
  IoWorld w = MakeIoWorld(1);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  // One full second passes (on the supervisor's clock) while parked.
  w.clock.Advance(1000 * kMs);
  host::RunReport quick = w.sup->Submit(MakeJob(*burner, "t")).get();
  EXPECT_TRUE(quick.completed());
  EXPECT_EQ(quick.queue_nanos, 0)
      << "a parked guest must not make later jobs queue";

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = slept.get();
  EXPECT_TRUE(r.completed());
  EXPECT_EQ(r.queue_nanos, 0) << "queue_nanos must exclude parked time";
  EXPECT_GE(r.blocked_nanos, 1000 * kMs);
  EXPECT_EQ(r.parks, 1u);
}

TEST(HostIo, DeadlineShedsParkedGuestAndOrphanCompletionIsAbsorbed) {
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok());

  // Deadline 10ms from now on the supervisor clock; the guest sleeps 50ms.
  // The park folds the deadline into the backend op, so advancing 10ms
  // fires a timeout completion tagged as a shed.
  std::future<host::RunReport> fut =
      w.sup->Submit(MakeJob(*module, "t", /*deadline=*/10 * kMs));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  ASSERT_EQ(cookies.size(), 1u);
  w.clock.Advance(10 * kMs);
  w.fake->AdvanceBy(10 * kMs);

  host::RunReport r = fut.get();
  EXPECT_EQ(r.outcome, host::Outcome::kShed);
  EXPECT_EQ(r.parks, 1u);
  EXPECT_GT(r.executed_instrs, 0u) << "partial execution is settled, not lost";
  EXPECT_EQ(w.sup->io_stats().sheds_while_parked, 1u);
  // Partial consumption reached the ledger.
  host::TenantUsage u = w.sup->ledger().usage("t");
  EXPECT_EQ(u.shed, 1u);
  EXPECT_GT(u.fuel, 0u);

  // Fault injection: the op's "real" completion arrives AFTER the guest
  // was shed. The supervisor absorbs it as an orphan.
  w.fake->ForceComplete(cookies[0], host::IoCompletion::Result(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(w.sup->io_stats().orphan_completions, 1u);
  EXPECT_EQ(w.sup->parked(), 0u);
}

TEST(HostIo, TenantForgottenWhileParked) {
  // TenantLedger::Forget with a parked op: the resume settles into a fresh
  // ledger entry; nothing dangles, nothing crashes (ASan holds the line).
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok());

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "gone"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  w.sup->ledger().Forget("gone");
  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  // The post-Forget settle re-created the account with this run's usage.
  host::TenantUsage u = w.sup->ledger().usage("gone");
  EXPECT_EQ(u.runs, 1u);
  EXPECT_GT(u.fuel, 0u);
}

TEST(HostIo, BudgetExhaustedWhileParked) {
  // Tenant budget exhaustion mid-park: while guest A is parked, the tenant
  // accrues usage (guest B) and the control plane lowers its budget below
  // what is already consumed. A's resume re-checks admission and stops with
  // kBudget instead of running on a dead account.
  IoWorld w = MakeIoWorld(1);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  std::future<host::RunReport> parked = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  host::RunReport burn = w.sup->Submit(MakeJob(*burner, "t")).get();
  EXPECT_TRUE(burn.completed());
  ASSERT_GT(w.sup->ledger().usage("t").fuel, 1u);
  host::TenantBudget budget;
  budget.max_fuel = 1;  // now far below the tenant's accrued usage
  w.sup->ledger().SetBudget("t", budget);

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = parked.get();
  EXPECT_EQ(r.outcome, host::Outcome::kBudget);
  EXPECT_EQ(r.parks, 1u);
  EXPECT_EQ(w.sup->io_stats().budget_stops_while_parked, 1u);
}

TEST(HostIo, ShutdownDrainsParkedGuests) {
  // Supervisor shutdown with guests parked in syscalls that will never
  // complete: every future resolves (as shed, with partial accounting),
  // every backend op is cancelled, nothing leaks (the ASan job runs this).
  IoWorld w = MakeIoWorld(2);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok());

  std::vector<std::future<host::RunReport>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(w.sup->Submit(MakeJob(*module, "t" + std::to_string(i))));
  }
  ASSERT_TRUE(WaitForPending(*w.fake, 3));
  w.sup->Shutdown();
  for (auto& f : futures) {
    host::RunReport r = f.get();
    EXPECT_EQ(r.outcome, host::Outcome::kShed);
    EXPECT_GT(r.executed_instrs, 0u);
  }
  EXPECT_EQ(w.fake->pending(), 0u) << "shutdown must cancel parked ops";
  EXPECT_EQ(w.sup->io_stats().in_flight_now, 0u);
}

TEST(HostIo, NonBlockingIoNeverParks) {
  // O_NONBLOCK fds and zero-timeout polls are non-blocking by kernel
  // contract: with offload enabled they must answer inline (-EAGAIN / 0
  // ready fds), never suspend. The guest verifies both answers itself and
  // the report proves no park happened.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kNonBlockGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  host::RunReport r = w.sup->Submit(MakeJob(*module, "t")).get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 9);
  EXPECT_EQ(r.parks, 0u);
  EXPECT_EQ(w.sup->io_stats().parks_total, 0u);
}

TEST(HostIo, ParkedRunReleasesLedgerReservation) {
  // A parked guest must not sit on its budget reservation: the park settles
  // consumed-so-far and releases the slices, so a runnable job of the same
  // tenant can reserve and complete while the fleet sleeps. (Before the
  // release, the sleeper's unknown-demand reservation took the tenant's
  // WHOLE fuel remainder, and the burner would have been clamped to a
  // 1-instruction slice and stopped with kBudget.)
  IoWorld w = MakeIoWorld(2);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());
  host::TenantBudget budget;
  budget.max_fuel = 10000000;  // ample for both runs
  w.sup->ledger().SetBudget("t", budget);

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));

  // While the sleeper is parked, its reservation is released: the whole
  // unconsumed remainder is available again.
  ASSERT_GT(w.sup->ledger().RemainingFuel("t"), budget.max_fuel / 2);

  host::RunReport burn = w.sup->Submit(MakeJob(*burner, "t")).get();
  EXPECT_TRUE(burn.completed()) << burn.trap_message;
  EXPECT_EQ(burn.outcome, host::Outcome::kCompleted);
  EXPECT_GT(burn.fuel_consumed, 10000u);

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = slept.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 42);
  EXPECT_EQ(r.parks, 1u);

  // Park-time partial settles plus finish-time deltas must add up to
  // exactly the two runs' consumption — no double billing.
  host::TenantUsage usage = w.sup->ledger().usage("t");
  EXPECT_EQ(usage.fuel, burn.fuel_consumed + r.fuel_consumed);
  EXPECT_EQ(usage.syscalls, burn.total_syscalls + r.total_syscalls);
}

// Blocking pipe read parks; after the guest flips O_NONBLOCK with
// fcntl(F_SETFL), the cached offloadability classification is invalidated
// and the very next read takes the synchronous path again (-EAGAIN inline,
// no park) — the regression a stale per-fd cache would break.
const char* kFlipNonBlockGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $rfd i64) (local $r i64)
    (drop (call $pipe2 (i64.const 256) (i64.const 0)))
    (local.set $rfd (i64.load32_s (i32.const 256)))
    ;; blocking + async-io => this read parks (completion scripts 0)
    (local.set $r (call $read (local.get $rfd) (i64.const 1024) (i64.const 1)))
    (if (i64.ne (local.get $r) (i64.const 0))
      (then (return (i32.const 1))))
    ;; F_SETFL = 4, O_NONBLOCK = 0x800
    (drop (call $fcntl (local.get $rfd) (i64.const 4) (i64.const 2048)))
    ;; the sync path must re-engage: empty nonblocking pipe answers -EAGAIN
    (if (i64.ne (call $read (local.get $rfd) (i64.const 1024) (i64.const 1))
                (i64.const -11))
      (then (return (i32.const 2))))
    (i32.const 9))
)";

TEST(HostIo, SetflInvalidatesOffloadabilityCache) {
  wasm::Linker linker;
  wali::WaliRuntime runtime(&linker);
  auto parsed = wasm::ParseAndValidateWat(WrapModule(kFlipNonBlockGuest));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto proc = runtime.CreateProcess(*parsed, {"flip"}, {});
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();

  wali::WaliRuntime::MainContinuation cont;
  wasm::RunResult r = runtime.RunMain(**proc, runtime.exec_options(), &cont);
  // First read: classified offloadable (and cached) -> parks.
  ASSERT_EQ(r.trap, wasm::TrapKind::kSyscallPending) << r.trap_message;
  ASSERT_TRUE(cont.armed());
  EXPECT_EQ((*proc)->pending_io.op.kind, wali::IoOp::Kind::kReadable);

  // Resume with "read returned 0". The guest then flips O_NONBLOCK and
  // reads again: that read must NOT park — a second kSyscallPending here
  // means the stale cache routed a non-blocking fd to the async path.
  r = runtime.ResumeMain(**proc, cont, 0);
  ASSERT_NE(r.trap, wasm::TrapKind::kSyscallPending)
      << "read after F_SETFL(O_NONBLOCK) must take the sync path";
  EXPECT_TRUE(r.ok() || r.trap == wasm::TrapKind::kExit) << r.trap_message;
  EXPECT_EQ(r.exit_code, 9);
}

// Same regression through ioctl(FIONBIO), the alternate O_NONBLOCK flip.
const char* kIoctlFlipGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $rfd i64) (local $r i64)
    (drop (call $pipe2 (i64.const 256) (i64.const 0)))
    (local.set $rfd (i64.load32_s (i32.const 256)))
    (local.set $r (call $read (local.get $rfd) (i64.const 1024) (i64.const 1)))
    (if (i64.ne (local.get $r) (i64.const 0))
      (then (return (i32.const 1))))
    ;; FIONBIO = 0x5421, *argp = 1 (enable non-blocking)
    (i32.store (i32.const 512) (i32.const 1))
    (drop (call $ioctl (local.get $rfd) (i64.const 0x5421) (i64.const 512)))
    (if (i64.ne (call $read (local.get $rfd) (i64.const 1024) (i64.const 1))
                (i64.const -11))
      (then (return (i32.const 2))))
    (i32.const 9))
)";

TEST(HostIo, IoctlFionbioInvalidatesOffloadabilityCache) {
  wasm::Linker linker;
  wali::WaliRuntime runtime(&linker);
  auto parsed = wasm::ParseAndValidateWat(WrapModule(kIoctlFlipGuest));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto proc = runtime.CreateProcess(*parsed, {"ioctl-flip"}, {});
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();

  wali::WaliRuntime::MainContinuation cont;
  wasm::RunResult r = runtime.RunMain(**proc, runtime.exec_options(), &cont);
  ASSERT_EQ(r.trap, wasm::TrapKind::kSyscallPending) << r.trap_message;
  r = runtime.ResumeMain(**proc, cont, 0);
  ASSERT_NE(r.trap, wasm::TrapKind::kSyscallPending)
      << "read after ioctl(FIONBIO) must take the sync path";
  EXPECT_TRUE(r.ok() || r.trap == wasm::TrapKind::kExit) << r.trap_message;
  EXPECT_EQ(r.exit_code, 9);
}

TEST(HostIo, OffloadCacheClassifiesAndInvalidates) {
  wasm::Linker linker;
  wali::WaliRuntime runtime(&linker);
  auto parsed = wasm::ParseAndValidateWat(WrapModule(kBurnGuest));
  ASSERT_TRUE(parsed.ok());
  auto proc = runtime.CreateProcess(*parsed, {"cache"}, {});
  ASSERT_TRUE(proc.ok());
  wali::WaliProcess& p = **proc;

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Pipes classify offloadable; the answer is cached.
  EXPECT_TRUE(p.OffloadableCached(fds[0]));
  // Flip O_NONBLOCK behind the cache's back: the cached (now stale) answer
  // survives until an invalidation hook fires — this is exactly why the
  // dispatch wrapper invalidates on fcntl(F_SETFL).
  int fl = ::fcntl(fds[0], F_GETFL);
  ASSERT_GE(fl, 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, fl | O_NONBLOCK), 0);
  EXPECT_TRUE(p.OffloadableCached(fds[0]));  // stale, by construction
  p.InvalidateOffloadFd(fds[0]);
  EXPECT_FALSE(p.OffloadableCached(fds[0]));  // reclassified: non-blocking
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(HostIo, RunAllPreservesSubmissionOrderAcrossParks) {
  // Reports come back in submission order even when some guests park and
  // resume out of order relative to synchronous guests.
  IoWorld w = MakeIoWorld(2);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  std::vector<host::GuestJob> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeJob(i % 2 == 0 ? *sleeper : *burner, "t"));
  }
  std::thread completer([&w] {
    // Drive the fake from the side: keep elapsing sleep time until all
    // three sleepers have resumed.
    while (w.sup->io_stats().resumes_total < 3) {
      if (w.fake->pending() > 0) {
        w.fake->AdvanceBy(50 * kMs);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  std::vector<host::RunReport> reports = w.sup->RunAll(std::move(jobs));
  completer.join();
  ASSERT_EQ(reports.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(reports[i].completed()) << i << ": " << reports[i].trap_message;
    EXPECT_EQ(reports[i].exit_code, i % 2 == 0 ? 42 : 0) << i;
    EXPECT_EQ(reports[i].parks, i % 2 == 0 ? 1u : 0u) << i;
  }
}

// ---------------------------------------------------------------------------
// Snapshot eviction: a parked guest's state leaves the process (or the
// process's memory) entirely and comes back bit-exact.

// IoWorld plus a telemetry sink and an optional on-disk evict directory.
struct EvictWorld {
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wali::WaliRuntime> runtime;
  std::unique_ptr<host::ModuleCache> cache;
  std::unique_ptr<host::Telemetry> tel = std::make_unique<host::Telemetry>();
  std::unique_ptr<host::FakeIoBackend> fake =
      std::make_unique<host::FakeIoBackend>();
  ManualClock clock;
  std::unique_ptr<host::Supervisor> sup;
};

EvictWorld MakeEvictWorld(size_t workers, const std::string& evict_dir = "") {
  EvictWorld w;
  w.linker = std::make_unique<wasm::Linker>();
  w.runtime = std::make_unique<wali::WaliRuntime>(w.linker.get());
  w.cache = std::make_unique<host::ModuleCache>();
  host::Supervisor::Options opts;
  opts.workers = workers;
  opts.clock = w.clock.fn();
  opts.pool.max_idle_per_module = workers;
  opts.telemetry = w.tel.get();
  opts.evict_dir = evict_dir;
  w.fake->SetTelemetry(w.tel.get());
  opts.io_backend = w.fake.get();
  w.sup = std::make_unique<host::Supervisor>(w.runtime.get(), opts);
  return w;
}

std::vector<host::TraceEvent> EventsForRun(const host::Telemetry::Snapshot& s,
                                           uint64_t run_id) {
  std::vector<host::TraceEvent> out;
  for (const host::TraceEvent& e : s.spans) {
    if (e.run_id == run_id) out.push_back(e);
  }
  return out;
}

TEST(HostIo, EvictParkedRestoreLedgerExact) {
  // Park the sleeper, serialize it out of its pool slot (in-memory mode),
  // run an unrelated guest through the freed capacity, complete the I/O,
  // and let the restore path rehydrate it. The run must finish exactly as
  // an unevicted one — and the tenant ledger's park-time settle plus
  // finish-time deltas must sum to precisely both runs' consumption: an
  // evict/restore cycle bills nothing twice and loses nothing.
  EvictWorld w = MakeEvictWorld(/*workers=*/1);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok()) << sleeper.status().ToString();
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());
  host::TenantBudget budget;
  budget.max_fuel = 10000000;
  w.sup->ledger().SetBudget("t", budget);

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));

  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  common::Status ev = w.sup->EvictParked(cookies[0]);
  ASSERT_TRUE(ev.ok()) << ev.ToString();
  host::Supervisor::IoStats s = w.sup->io_stats();
  EXPECT_EQ(s.evicted_now, 1u);
  EXPECT_EQ(s.evicts_total, 1u);
  EXPECT_EQ(s.parked_now, 1u) << "evicted runs are still parked";

  // Double-evicting the same cookie is refused, not fatal.
  EXPECT_FALSE(w.sup->EvictParked(cookies[0]).ok());

  // The slab is free: an unrelated guest of the same tenant runs on the
  // sole worker while the sleeper exists only as snapshot bytes.
  host::RunReport burn = w.sup->Submit(MakeJob(*burner, "t")).get();
  EXPECT_TRUE(burn.completed()) << burn.trap_message;

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = slept.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 42);
  EXPECT_EQ(r.parks, 1u);
  EXPECT_EQ(r.total_syscalls, 1u);

  s = w.sup->io_stats();
  EXPECT_EQ(s.evicted_now, 0u);
  EXPECT_EQ(s.restores_total, 1u);
  EXPECT_EQ(s.parked_now, 0u);

  // No double billing across the evict/restore boundary.
  host::TenantUsage usage = w.sup->ledger().usage("t");
  EXPECT_EQ(usage.fuel, burn.fuel_consumed + r.fuel_consumed);
  EXPECT_EQ(usage.syscalls, burn.total_syscalls + r.total_syscalls);
}

TEST(HostIo, EvictParkedToDiskAndRestore) {
  // Same lifecycle with Options::evict_dir set: the snapshot lands as a
  // file (nothing retained in memory), and the restore consumes + deletes
  // it.
  std::string dir = testing::TempDir() + "wali_evict_test";
  ::mkdir(dir.c_str(), 0700);
  EvictWorld w = MakeEvictWorld(/*workers=*/1, dir);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok()) << sleeper.status().ToString();

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  ASSERT_TRUE(w.sup->EvictParked(cookies[0]).ok());

  std::string path = dir + "/evict-" + std::to_string(cookies[0]) + ".snap";
  EXPECT_EQ(::access(path.c_str(), F_OK), 0) << "snapshot file must exist";

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = slept.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 42);
  EXPECT_NE(::access(path.c_str(), F_OK), 0)
      << "restore must consume and remove the snapshot file";
  ::rmdir(dir.c_str());
}

TEST(HostIo, EvictAllParkedSweepsTheParkedSet) {
  constexpr size_t kGuests = 8;
  EvictWorld w = MakeEvictWorld(/*workers=*/2);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());
  std::vector<std::future<host::RunReport>> futures;
  for (size_t i = 0; i < kGuests; ++i) {
    futures.push_back(w.sup->Submit(MakeJob(*sleeper, "t" + std::to_string(i))));
  }
  ASSERT_TRUE(WaitForPending(*w.fake, kGuests));
  EXPECT_EQ(w.sup->EvictAllParked(), kGuests);
  EXPECT_EQ(w.sup->io_stats().evicted_now, kGuests);

  w.fake->AdvanceBy(50 * kMs);
  for (auto& f : futures) {
    host::RunReport r = f.get();
    EXPECT_TRUE(r.completed()) << r.trap_message;
    EXPECT_EQ(r.exit_code, 42);
  }
  host::Supervisor::IoStats s = w.sup->io_stats();
  EXPECT_EQ(s.restores_total, kGuests);
  EXPECT_EQ(s.evicted_now, 0u);
}

TEST(HostIo, EvictedRunSpanOrdering) {
  // The run's telemetry trace must read, in order:
  //   submit -> dispatch -> park -> evict -> io_complete -> restore ->
  //   resume -> finish
  // so an operator reading a trace can see exactly when the guest existed
  // only as snapshot bytes.
  EvictWorld w = MakeEvictWorld(/*workers=*/1);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  ASSERT_TRUE(w.sup->EvictParked(cookies[0]).ok());
  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = slept.get();
  ASSERT_TRUE(r.completed()) << r.trap_message;

  host::Telemetry::Snapshot snap = w.tel->TakeSnapshot();
  ASSERT_FALSE(snap.spans.empty());
  std::vector<host::TraceEvent> ev = EventsForRun(snap, snap.spans[0].run_id);
  ASSERT_EQ(ev.size(), 8u);
  EXPECT_EQ(ev[0].event, host::SpanEvent::kSubmit);
  EXPECT_EQ(ev[1].event, host::SpanEvent::kDispatch);
  EXPECT_EQ(ev[2].event, host::SpanEvent::kPark);
  EXPECT_EQ(ev[3].event, host::SpanEvent::kEvict);
  EXPECT_EQ(ev[4].event, host::SpanEvent::kIoComplete);
  EXPECT_EQ(ev[5].event, host::SpanEvent::kRestore);
  EXPECT_EQ(ev[6].event, host::SpanEvent::kResume);
  EXPECT_EQ(ev[7].event, host::SpanEvent::kFinish);
  for (size_t i = 1; i < ev.size(); ++i) {
    EXPECT_GE(ev[i].t_nanos, ev[i - 1].t_nanos) << "event " << i;
  }
  // Metrics mirror the lifecycle.
  uint64_t evicts = 0, restores = 0;
  for (const auto& [name, value] : snap.registry.counters) {
    if (name == "supervisor_evictions_total") evicts = value;
    if (name == "supervisor_restores_total") restores = value;
  }
  EXPECT_EQ(evicts, 1u);
  EXPECT_EQ(restores, 1u);
}

TEST(HostIo, ShutdownWithEvictedRunResolvesFuture) {
  // Shutdown while a run exists only as snapshot bytes: the future must
  // still resolve (shed, with the fuel settled at park time), and nothing
  // leaks (the ASan job runs this).
  EvictWorld w = MakeEvictWorld(/*workers=*/1);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());
  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  ASSERT_TRUE(w.sup->EvictParked(cookies[0]).ok());

  w.sup->Shutdown();
  host::RunReport r = slept.get();
  EXPECT_EQ(r.outcome, host::Outcome::kShed);
  EXPECT_GT(r.executed_instrs, 0u) << "park-time fuel settle must survive";
  EXPECT_EQ(w.sup->io_stats().evicted_now, 0u);
}

}  // namespace
