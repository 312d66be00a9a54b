// host_throughput — cold-start vs pooled instantiation latency, and
// aggregate multi-tenant guests/sec through the host supervisor.
//
// Cold path (per request): decode binary .wasm -> validate -> reserve and
// commit a fresh linear memory -> instantiate -> run.
// Pooled path (per request): ModuleCache hit -> InstancePool recycles a
// reset memory slab -> instantiate into it -> run.
//
// The acceptance bar for the hosting subsystem is pooled >= 5x faster than
// cold for a warm cache; the bench prints the measured ratio and fails its
// exit code when the bar is missed so CI can watch regressions.
#include <unistd.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/time_util.h"
#include "src/host/host.h"
#include "src/host/io_uring_backend.h"
#include "src/wali/wali.h"
#include "src/wasm/wasm.h"

namespace {

// A representative tenant app: non-trivial code size (so decode+validate
// cost is visible, as it is for real modules), a 4 MiB linear memory, some
// compute, and a couple of syscalls through the thin interface.
std::string BuildGuestWat(int extra_funcs) {
  std::string wat = R"((module
  (import "wali" "SYS_getpid" (func $getpid (result i64)))
  (import "wali" "SYS_write" (func $write (param i64 i64 i64) (result i64)))
  (memory 64)
  (data (i32.const 16) "host_throughput guest payload")
)";
  for (int i = 0; i < extra_funcs; ++i) {
    wat += "  (func $f" + std::to_string(i) +
           " (param $x i32) (result i32)\n"
           "    (i32.add (i32.mul (local.get $x) (i32.const 3))\n"
           "             (i32.const " +
           std::to_string(i) + ")))\n";
  }
  wat += R"(  (func (export "main") (result i32)
    (local $i i32)
    (local $acc i32)
    (drop (call $getpid))
    (local.set $i (i32.const 0))
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 1000)))
        (local.set $acc (i32.add (local.get $acc) (call $f0 (local.get $i))))
        (i32.store (i32.add (i32.const 4096) (i32.shl (local.get $i) (i32.const 2)))
                   (local.get $acc))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (i32.const 0))
)";
  wat += ")";
  return wat;
}

int64_t MedianNanos(std::vector<int64_t>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0 : samples[samples.size() / 2];
}

// `samples` must already be sorted. p in [0, 100].
int64_t PercentileNanos(const std::vector<int64_t>& samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  size_t idx = static_cast<size_t>(p / 100.0 * (samples.size() - 1));
  return samples[idx];
}

}  // namespace

int main() {
  bench::Header("host_throughput",
                "cold vs pooled instantiation, multi-tenant guests/sec");

  // Deploy artifact: binary .wasm bytes, as a registry would store them.
  auto parsed = wasm::ParseAndValidateWat(BuildGuestWat(192));
  if (!parsed.ok()) {
    std::fprintf(stderr, "guest build failed: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  std::vector<uint8_t> encoded = wasm::EncodeModule(**parsed);
  std::string bytes(reinterpret_cast<const char*>(encoded.data()), encoded.size());
  bench::Note("guest artifact: " + std::to_string(bytes.size()) + " bytes, 64-page memory");

  wasm::Linker linker;
  wali::WaliRuntime runtime(&linker);

  constexpr int kIters = 200;
  std::vector<std::string> argv = {"guest"};

  // --- cold path: full decode + validate + fresh memory per request ---
  // The timer covers exactly what a request pays before its first guest
  // instruction: bytes -> runnable process. The run itself happens outside
  // the timer (identical work on both paths, and it keeps slot lifecycles
  // realistic for the pooled loop below).
  std::vector<int64_t> cold(kIters);
  std::vector<int64_t> cold_e2e(kIters);
  for (int k = 0; k < kIters; ++k) {
    int64_t t0 = common::MonotonicNanos();
    auto module = wasm::DecodeModule(
        reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    if (!module.ok() || !wasm::Validate(**module).ok()) {
      std::fprintf(stderr, "cold decode failed\n");
      return 1;
    }
    auto proc = runtime.CreateProcess(*module, argv, {});
    if (!proc.ok()) {
      std::fprintf(stderr, "cold instantiation failed: %s\n",
                   proc.status().ToString().c_str());
      return 1;
    }
    cold[k] = common::MonotonicNanos() - t0;
    wasm::RunResult r = runtime.RunMain(**proc);
    cold_e2e[k] = common::MonotonicNanos() - t0;
    if (!r.ok_or_exit0()) {
      std::fprintf(stderr, "cold run trapped: %s\n", wasm::TrapKindName(r.trap));
      return 1;
    }
  }

  // --- pooled path: warm module cache + recycled instance slots ---
  host::ModuleCache cache;
  host::InstancePool pool(&runtime);
  {
    // Warm both layers once (populates the cache, parks one slot).
    auto module = cache.Load(bytes);
    auto lease = pool.Acquire(*module, argv, {});
    if (!lease.ok()) {
      std::fprintf(stderr, "warmup failed\n");
      return 1;
    }
    (void)runtime.RunMain(**lease);
  }
  std::vector<int64_t> pooled(kIters);
  std::vector<int64_t> pooled_e2e(kIters);
  for (int k = 0; k < kIters; ++k) {
    int64_t t0 = common::MonotonicNanos();
    auto module = cache.Load(bytes);
    if (!module.ok()) return 1;
    auto lease = pool.Acquire(*module, argv, {});
    if (!lease.ok()) return 1;
    pooled[k] = common::MonotonicNanos() - t0;
    wasm::RunResult r = runtime.RunMain(**lease);
    pooled_e2e[k] = common::MonotonicNanos() - t0;
    if (!r.ok_or_exit0()) {
      std::fprintf(stderr, "pooled run trapped: %s\n", wasm::TrapKindName(r.trap));
      return 1;
    }
  }

  int64_t cold_med = MedianNanos(cold);
  int64_t pooled_med = MedianNanos(pooled);
  double speedup = pooled_med > 0 ? static_cast<double>(cold_med) / pooled_med : 0;
  std::printf("cold   instantiation:   %9.1f us median (decode+validate+memory)\n",
              cold_med / 1e3);
  std::printf("pooled instantiation:   %9.1f us median (cache hit+slot reset)\n",
              pooled_med / 1e3);
  std::printf("speedup (cold/pooled):  %9.2fx  %s\n", speedup,
              speedup >= 5.0 ? "(>= 5x bar: PASS)" : "(>= 5x bar: FAIL)");
  std::printf("cold   instantiate+run: %9.1f us median\n", MedianNanos(cold_e2e) / 1e3);
  std::printf("pooled instantiate+run: %9.1f us median\n",
              MedianNanos(pooled_e2e) / 1e3);
  host::InstancePool::Stats ps = pool.stats();
  std::printf("pool: hits=%llu misses=%llu high_water=%llu\n",
              static_cast<unsigned long long>(ps.hits),
              static_cast<unsigned long long>(ps.misses),
              static_cast<unsigned long long>(ps.high_water));

  // --- aggregate throughput through the supervisor ---
  for (int workers : {1, 2, 4, 8}) {
    host::Supervisor::Options sopts;
    sopts.workers = static_cast<size_t>(workers);
    sopts.pool.max_idle_per_module = static_cast<size_t>(workers);
    host::Supervisor sup(&runtime, sopts);
    auto module = cache.Load(bytes);
    const int total = 400;
    std::vector<host::GuestJob> jobs(total);
    for (int k = 0; k < total; ++k) {
      jobs[k].module = *module;
      jobs[k].argv = argv;
    }
    int64_t t0 = common::MonotonicNanos();
    std::vector<host::RunReport> reports = sup.RunAll(std::move(jobs));
    double secs = (common::MonotonicNanos() - t0) / 1e9;
    int completed = 0;
    for (const host::RunReport& r : reports) {
      completed += r.completed() ? 1 : 0;
    }
    std::printf("supervisor: %d workers  %4d/%d guests  %8.0f guests/s  %s\n",
                workers, completed, total, secs > 0 ? total / secs : 0,
                bench::Bar(std::min(1.0, total / secs / 20000.0), 30).c_str());
  }

  // --- admission control under saturation: 4x oversubmission ---
  // Capacity is what the bounded queues will hold plus what the workers can
  // run (workers + workers * queue_depth); we submit 4x that and let the
  // admission layer sort it out: excess submits bounce (rejected), queued
  // jobs whose deadline passes are shed, the rest run. Reported: shed /
  // reject rates and the queue-latency distribution of the runs that made
  // it through.
  {
    const int kWorkers = 4;
    const size_t kQueueDepth = 32;
    host::Supervisor::Options sopts;
    sopts.workers = kWorkers;
    sopts.queue_depth = kQueueDepth;
    sopts.pool.max_idle_per_module = kWorkers;
    host::Supervisor sup(&runtime, sopts);
    auto module = cache.Load(bytes);
    if (!module.ok()) return 1;

    const int capacity = kWorkers + kWorkers * static_cast<int>(kQueueDepth);
    const int total = 4 * capacity;
    const int64_t deadline =
        common::MonotonicNanos() + 10 * 1000 * 1000;  // 10ms to get scheduled
    std::vector<std::future<host::RunReport>> futures;
    futures.reserve(total);
    int64_t t0 = common::MonotonicNanos();
    for (int k = 0; k < total; ++k) {
      host::GuestJob job;
      job.module = *module;
      job.argv = argv;
      job.tenant = "bench-" + std::to_string(k % kWorkers);
      job.deadline_nanos = deadline;
      futures.push_back(sup.Submit(std::move(job)));
    }
    int ran = 0, shed = 0, rejected = 0, other = 0;
    std::vector<int64_t> queue_lat;
    queue_lat.reserve(total);
    for (std::future<host::RunReport>& f : futures) {
      host::RunReport r = f.get();
      switch (r.outcome) {
        case host::Outcome::kCompleted:
          ++ran;
          queue_lat.push_back(r.queue_nanos);
          break;
        case host::Outcome::kShed:
          ++shed;
          break;
        case host::Outcome::kRejected:
          ++rejected;
          break;
        default:
          ++other;
          break;
      }
    }
    double secs = (common::MonotonicNanos() - t0) / 1e9;
    std::sort(queue_lat.begin(), queue_lat.end());
    std::printf(
        "saturation: %dx oversubmission (%d jobs, %d workers, depth %zu) "
        "in %.3f s\n",
        4, total, kWorkers, kQueueDepth, secs);
    std::printf(
        "saturation: ran %d (%.0f%%)  shed %d (%.0f%%)  rejected %d (%.0f%%)"
        "  other %d\n",
        ran, 100.0 * ran / total, shed, 100.0 * shed / total, rejected,
        100.0 * rejected / total, other);
    std::printf("saturation: queue latency p50 %8.1f us  p99 %8.1f us\n",
                PercentileNanos(queue_lat, 50) / 1e3,
                PercentileNanos(queue_lat, 99) / 1e3);
  }

  // --- blocking I/O: parked guests must not hold workers -----------------
  // N guests each sleep 20ms through SYS_nanosleep. Synchronously that
  // floors at (N / workers) * 20ms of wall; with the IoReactor offload the
  // guests park off-worker and the whole batch completes in a few
  // sleep-durations. The hard bar: guests-in-flight must exceed the worker
  // count (otherwise workers were parked 1:1 with blocked guests and the
  // offload regressed).
  bool in_flight_bar = true;
  {
    const int kWorkers = 4;
    const int kGuests = 64;
    const char* kSleepWat = R"((module
  (import "wali" "SYS_nanosleep" (func $nanosleep (param i64 i64) (result i64)))
  (memory 2)
  (func (export "main") (result i32)
    (i64.store (i32.const 512) (i64.const 0))
    (i64.store (i32.const 520) (i64.const 20000000))
    (drop (call $nanosleep (i64.const 512) (i64.const 0)))
    (i32.const 0))
))";
    auto sleeper = cache.Load(kSleepWat);
    if (!sleeper.ok()) {
      std::fprintf(stderr, "sleeper build failed\n");
      return 1;
    }
    host::IoReactor reactor;
    host::Supervisor::Options sopts;
    sopts.workers = kWorkers;
    sopts.io_backend = &reactor;
    sopts.pool.max_idle_per_module = kWorkers;
    {
      host::Supervisor sup(&runtime, sopts);
      std::vector<host::GuestJob> jobs(kGuests);
      for (int k = 0; k < kGuests; ++k) {
        jobs[k].module = *sleeper;
        jobs[k].argv = {"sleeper"};
        jobs[k].tenant = "blocking-" + std::to_string(k % 8);
      }
      int64_t t0 = common::MonotonicNanos();
      std::vector<host::RunReport> reports = sup.RunAll(std::move(jobs));
      double wall_ms = (common::MonotonicNanos() - t0) / 1e6;
      int completed = 0;
      int64_t blocked_total = 0;
      for (const host::RunReport& r : reports) {
        completed += r.completed() ? 1 : 0;
        blocked_total += r.blocked_nanos;
      }
      host::Supervisor::IoStats s = sup.io_stats();
      in_flight_bar = s.peak_in_flight > static_cast<uint64_t>(kWorkers);
      std::printf(
          "blocking-io: %d guests x 20ms sleep on %d workers: %.1f ms wall "
          "(sync floor %.0f ms)\n",
          kGuests, kWorkers, wall_ms, kGuests / static_cast<double>(kWorkers) * 20.0);
      std::printf(
          "blocking-io: completed %d/%d  parks %llu  peak in-flight %llu vs "
          "%d workers  %s\n",
          completed, kGuests, static_cast<unsigned long long>(s.parks_total),
          static_cast<unsigned long long>(s.peak_in_flight), kWorkers,
          in_flight_bar ? "(in-flight > workers: PASS)"
                        : "(in-flight > workers: FAIL)");
      std::printf("blocking-io: blocked time %.1f ms total, %.1f ms/guest "
                  "(off-worker, unbilled)\n",
                  blocked_total / 1e6, blocked_total / 1e6 / kGuests);
      if (completed != kGuests) {
        in_flight_bar = false;
      }
    }
  }

  // --- slow-client echo: thousands of parked connections, 4 workers -----
  // The C10K shape: kConns echo guests each read one byte from a client
  // that is in no hurry to send it. Every guest parks on read readiness, so
  // the whole fleet must fit in flight on 4 workers (in-flight >> workers);
  // then the clients all speak at once and the echoes drain through the
  // backend's completion path. Run against both production backends.
  bool slow_client_bar = true;
  {
    constexpr int kWorkers = 4;
    constexpr int kConns = 1200;
    constexpr int kParkBar = 1000;
    // argv[1] is the connection fd (guests share the host fd table); the
    // guest parses it, echoes one byte, and exits 0.
    const char* kEchoWat = R"((module
  (import "wali" "SYS_read" (func $read (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_write" (func $write (param i64 i64 i64) (result i64)))
  (import "wali" "copy_argv" (func $copy_argv (param i64 i64) (result i64)))
  (memory 2)
  (func $atoi (param $p i32) (param $len i32) (result i64)
    (local $i i32) (local $v i64)
    (block $done
      (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $len)))
        (local.set $v
          (i64.add (i64.mul (local.get $v) (i64.const 10))
                   (i64.extend_i32_u
                     (i32.sub (i32.load8_u (i32.add (local.get $p)
                                                    (local.get $i)))
                              (i32.const 48)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
    (local.get $v))
  (func (export "main") (result i32)
    (local $fd i64) (local $n i64)
    (local.set $n (call $copy_argv (i64.const 256) (i64.const 1)))
    (if (i64.lt_s (local.get $n) (i64.const 2))
      (then (return (i32.const 250))))
    (local.set $fd (call $atoi (i32.const 256)
                         (i32.wrap_i64 (i64.sub (local.get $n) (i64.const 1)))))
    (if (i64.ne (call $read (local.get $fd) (i64.const 512) (i64.const 1))
                (i64.const 1))
      (then (return (i32.const 251))))
    (if (i64.ne (call $write (local.get $fd) (i64.const 512) (i64.const 1))
                (i64.const 1))
      (then (return (i32.const 252))))
    (i32.const 0))
))";
    auto echo = cache.Load(kEchoWat);
    if (!echo.ok()) {
      std::fprintf(stderr, "echo guest build failed: %s\n",
                   echo.status().ToString().c_str());
      return 1;
    }

    struct BackendUnderTest {
      const char* name;
      std::unique_ptr<host::IoBackend> backend;
    };
    std::vector<BackendUnderTest> backends;
    backends.push_back({"poll", std::make_unique<host::IoReactor>()});
    if (host::IoUringAvailable()) {
      backends.push_back({"io_uring", std::make_unique<host::IoUringBackend>()});
    } else {
      bench::Note("io_uring unavailable on this kernel: poll backend only");
    }

    for (BackendUnderTest& bt : backends) {
      std::vector<int> client_fds(kConns, -1);
      std::vector<int> guest_fds(kConns, -1);
      bool socket_fail = false;
      for (int k = 0; k < kConns; ++k) {
        int sv[2];
        if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
          socket_fail = true;
          break;
        }
        client_fds[k] = sv[0];
        guest_fds[k] = sv[1];
      }
      if (socket_fail) {
        std::fprintf(stderr, "socketpair failed (fd limit?)\n");
        return 1;
      }

      host::Supervisor::Options sopts;
      sopts.workers = kWorkers;
      sopts.io_backend = bt.backend.get();
      sopts.pool.max_idle_per_module = kWorkers;
      size_t peak_parked = 0;
      double park_ms = 0, echo_ms = 0;
      int completed = 0;
      {
        host::Supervisor sup(&runtime, sopts);
        std::vector<std::future<host::RunReport>> futures;
        futures.reserve(kConns);
        int64_t t0 = common::MonotonicNanos();
        for (int k = 0; k < kConns; ++k) {
          host::GuestJob job;
          job.module = *echo;
          job.argv = {"echo", std::to_string(guest_fds[k])};
          job.tenant = "slow-" + std::to_string(k % 16);
          futures.push_back(sup.Submit(std::move(job)));
        }
        // Slow clients: say nothing until the whole fleet is parked.
        const int64_t park_deadline =
            common::MonotonicNanos() + 30ll * 1000 * 1000 * 1000;
        while (common::MonotonicNanos() < park_deadline) {
          peak_parked = std::max(peak_parked, sup.io_stats().parked_now);
          if (peak_parked >= static_cast<size_t>(kConns)) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        park_ms = (common::MonotonicNanos() - t0) / 1e6;

        // Now every client speaks at once and wants its echo back.
        int64_t t1 = common::MonotonicNanos();
        const char byte = 'x';
        for (int k = 0; k < kConns; ++k) {
          (void)!write(client_fds[k], &byte, 1);
        }
        char got;
        for (int k = 0; k < kConns; ++k) {
          if (read(client_fds[k], &got, 1) != 1) {
            std::fprintf(stderr, "echo %d lost\n", k);
          }
        }
        for (std::future<host::RunReport>& f : futures) {
          host::RunReport r = f.get();
          completed += (r.completed() && r.exit_code == 0) ? 1 : 0;
        }
        echo_ms = (common::MonotonicNanos() - t1) / 1e6;
      }
      for (int k = 0; k < kConns; ++k) {
        close(client_fds[k]);
        close(guest_fds[k]);
      }

      bool bar = peak_parked >= static_cast<size_t>(kParkBar) &&
                 completed == kConns;
      slow_client_bar = slow_client_bar && bar;
      std::printf(
          "slow-client[%s]: %d conns on %d workers: peak parked %zu  "
          "(>= %d bar: %s)\n",
          bt.name, kConns, kWorkers, peak_parked, kParkBar,
          bar ? "PASS" : "FAIL");
      std::printf(
          "slow-client[%s]: park ramp %.1f ms  echo drain %.1f ms  "
          "%8.0f echoes/s  %s\n",
          bt.name, park_ms, echo_ms,
          echo_ms > 0 ? kConns / (echo_ms / 1e3) : 0,
          bench::Bar(std::min(1.0, peak_parked / (4.0 * kWorkers) / 100.0), 30)
              .c_str());
      if (host::IoUringAvailable() &&
          std::string(bt.name) == "io_uring") {
        auto* uring = static_cast<host::IoUringBackend*>(bt.backend.get());
        host::IoUringBackend::Stats us = uring->stats();
        std::printf(
            "slow-client[io_uring]: %llu sqes / %llu enters = %.1f "
            "sqes/enter (batched submission)\n",
            static_cast<unsigned long long>(us.sqes),
            static_cast<unsigned long long>(us.enters),
            us.enters > 0 ? static_cast<double>(us.sqes) / us.enters : 0.0);
      }
    }
  }

  if (!in_flight_bar || !slow_client_bar) {
    return 3;
  }
  return speedup >= 5.0 ? 0 : 3;
}
