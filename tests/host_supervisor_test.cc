// Concurrent multi-tenant supervisor runs: N guests in parallel with
// distinct argv/env must produce isolated exit codes, see no cross-guest
// memory, honor per-tenant syscall policies, and respect per-job fuel
// limits (paper §5's virtualization layering, host-side).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/time_util.h"
#include "src/host/host.h"
#include "tests/wali_test_util.h"

namespace {

std::string WrapModule(const std::string& body) {
  return std::string("(module ") + wali_test::kPrelude + body + ")";
}

struct SupWorld {
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wali::WaliRuntime> runtime;
  std::unique_ptr<host::ModuleCache> cache;
  std::unique_ptr<host::Supervisor> sup;
};

SupWorld MakeWorld(size_t workers) {
  SupWorld w;
  w.linker = std::make_unique<wasm::Linker>();
  w.runtime = std::make_unique<wali::WaliRuntime>(w.linker.get());
  w.cache = std::make_unique<host::ModuleCache>();
  host::Supervisor::Options opts;
  opts.workers = workers;
  opts.pool.max_idle_per_module = workers;
  w.sup = std::make_unique<host::Supervisor>(w.runtime.get(), opts);
  return w;
}

// Guest that derives its exit code from argv[1]: copies the string into
// memory, reads the first byte, exits with (byte - '0'). Also writes its
// tenant byte into a scratch word and verifies it is still intact after a
// spin loop — under a recycled or (incorrectly) shared memory another
// concurrent tenant's write would break either the pre-check (must read 0)
// or the post-check (must read back its own byte).
const char* kTenantGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $c i32)
    (local $i i32)
    (drop (call $copy_argv (i64.const 512) (i64.const 1)))
    (local.set $c (i32.load8_u (i32.const 512)))
    ;; scratch word at 8192 must start zeroed (fresh or properly reset slot)
    (if (i32.ne (i32.load (i32.const 8192)) (i32.const 0))
      (then (return (i32.const 99))))
    (i32.store (i32.const 8192) (local.get $c))
    ;; spin long enough for neighbouring tenants to overlap in time
    (local.set $i (i32.const 0))
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 20000)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (if (i32.ne (i32.load (i32.const 8192)) (local.get $c))
      (then (return (i32.const 98))))
    (drop (call $exit (i64.sub (i64.extend_i32_u (local.get $c)) (i64.const 48))))
    (i32.const 0))
)";

TEST(Supervisor, ConcurrentGuestsIsolatedExitCodes) {
  SupWorld w = MakeWorld(/*workers=*/8);
  auto module = w.cache->Load(WrapModule(kTenantGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  const int kJobs = 64;
  std::vector<host::GuestJob> jobs(kJobs);
  for (int k = 0; k < kJobs; ++k) {
    jobs[k].module = *module;
    jobs[k].argv = {"tenant", std::to_string(k % 10)};
    jobs[k].env = {"TENANT_ID=" + std::to_string(k)};
  }
  std::vector<host::RunReport> reports = w.sup->RunAll(std::move(jobs));
  ASSERT_EQ(reports.size(), static_cast<size_t>(kJobs));
  for (int k = 0; k < kJobs; ++k) {
    EXPECT_TRUE(reports[k].completed())
        << "job " << k << ": " << wasm::TrapKindName(reports[k].trap) << " "
        << reports[k].trap_message;
    EXPECT_EQ(reports[k].exit_code, k % 10)
        << "job " << k << " saw another tenant's state";
  }
  // With 8 workers over 64 jobs the pool must have recycled slots.
  host::InstancePool::Stats ps = w.sup->pool().stats();
  EXPECT_GT(ps.hits, 0u);
  EXPECT_LE(ps.high_water, 8u);
}

TEST(Supervisor, PerTenantPolicyIsolation) {
  SupWorld w = MakeWorld(/*workers=*/4);
  // Guest exits 42 when getpid is denied (negative return), 7 when allowed.
  auto module = w.cache->Load(WrapModule(R"(
    (memory 2)
    (func (export "main") (result i32)
      (if (i64.lt_s (call $getpid) (i64.const 0))
        (then (drop (call $exit (i64.const 42)))))
      (drop (call $exit (i64.const 7)))
      (i32.const 0))
  )"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  auto denied = std::make_shared<wali::SyscallPolicy>();
  denied->Deny("getpid", /*err=*/1);

  std::vector<host::GuestJob> jobs(8);
  for (size_t k = 0; k < jobs.size(); ++k) {
    jobs[k].module = *module;
    jobs[k].argv = {"tenant"};
    if (k % 2 == 0) {
      jobs[k].policy = denied;
    }
  }
  std::vector<host::RunReport> reports = w.sup->RunAll(std::move(jobs));
  for (size_t k = 0; k < reports.size(); ++k) {
    ASSERT_TRUE(reports[k].completed());
    EXPECT_EQ(reports[k].exit_code, k % 2 == 0 ? 42 : 7)
        << "policy leaked between tenants at job " << k;
  }
  EXPECT_GE(denied->denials("getpid"), 4u);
}

TEST(Supervisor, PerJobFuelLimit) {
  SupWorld w = MakeWorld(/*workers=*/2);
  auto module = w.cache->Load(WrapModule(R"(
    (memory 2)
    (func (export "main") (result i32)
      (local $i i32)
      (block $done
        (loop $spin
          (br_if $done (i32.ge_u (local.get $i) (i32.const 1000000)))
          (local.set $i (i32.add (local.get $i) (i32.const 1)))
          (br $spin)))
      (i32.const 5))
  )"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  host::GuestJob starved;
  starved.module = *module;
  starved.argv = {"starved"};
  starved.fuel = 1000;  // far below the loop's instruction count
  host::GuestJob fed;
  fed.module = *module;
  fed.argv = {"fed"};

  std::vector<host::RunReport> reports =
      w.sup->RunAll({std::move(starved), std::move(fed)});
  EXPECT_EQ(reports[0].trap, wasm::TrapKind::kFuelExhausted);
  EXPECT_FALSE(reports[0].completed());
  EXPECT_TRUE(reports[1].completed());
  EXPECT_EQ(reports[1].exit_code, 5);
}

TEST(Supervisor, StartFunctionGovernedByJobLimits) {
  // A tenant's (start) function runs under the same fuel budget and policy
  // as the entry point — it must not be able to hang a worker by spinning
  // at instantiation time.
  SupWorld w = MakeWorld(/*workers=*/2);
  auto module = w.cache->Load(WrapModule(R"(
    (memory 2)
    (func $boot
      (local $i i32)
      (block $done
        (loop $spin
          (br_if $done (i32.ge_u (local.get $i) (i32.const 10000000)))
          (local.set $i (i32.add (local.get $i) (i32.const 1)))
          (br $spin))))
    (start $boot)
    (func (export "main") (result i32) (i32.const 3))
  )"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  host::GuestJob starved;
  starved.module = *module;
  starved.argv = {"starved"};
  starved.fuel = 1000;
  host::GuestJob fed;
  fed.module = *module;
  fed.argv = {"fed"};

  std::vector<host::RunReport> reports =
      w.sup->RunAll({std::move(starved), std::move(fed)});
  EXPECT_EQ(reports[0].trap, wasm::TrapKind::kFuelExhausted)
      << "(start) escaped the tenant fuel budget";
  EXPECT_TRUE(reports[1].completed());
  EXPECT_EQ(reports[1].exit_code, 3);
}

TEST(Supervisor, ReportsCarrySyscallProfile) {
  SupWorld w = MakeWorld(/*workers=*/2);
  auto module = w.cache->Load(WrapModule(R"(
    (memory 2)
    (func (export "main") (result i32)
      (drop (call $getpid))
      (drop (call $getpid))
      (drop (call $gettid))
      (i32.const 0))
  )"));
  ASSERT_TRUE(module.ok());
  host::GuestJob job;
  job.module = *module;
  job.argv = {"prof"};
  std::vector<host::RunReport> reports = w.sup->RunAll({std::move(job)});
  ASSERT_EQ(reports.size(), 1u);
  const host::RunReport& r = reports[0];
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.total_syscalls, 3u);
  uint64_t getpid_count = 0;
  for (const auto& [name, count] : r.syscall_counts) {
    if (name == "getpid") getpid_count = count;
  }
  EXPECT_EQ(getpid_count, 2u);
  EXPECT_GE(r.wall_nanos, 0);
}

TEST(Supervisor, ReportsCarryResourceConsumption) {
  // Regression for the accounting plumbing: fuel_consumed and
  // mem_high_water_pages must be nonzero and must grow monotonically with
  // the work a guest actually does (more spin -> more fuel, more
  // memory.grow -> higher high-water). Before the ledger existed these
  // fields were never asserted on anywhere.
  SupWorld w = MakeWorld(/*workers=*/1);
  // argv[1] digit d: grows d pages and spins d*10000 iterations.
  auto module = w.cache->Load(WrapModule(R"(
    (memory 2)
    (func (export "main") (result i32)
      (local $d i32)
      (local $i i32)
      (drop (call $copy_argv (i64.const 512) (i64.const 1)))
      (local.set $d (i32.sub (i32.load8_u (i32.const 512)) (i32.const 48)))
      (drop (memory.grow (local.get $d)))
      (block $done
        (loop $spin
          (br_if $done (i32.ge_u (local.get $i)
                                 (i32.mul (local.get $d) (i32.const 10000))))
          (local.set $i (i32.add (local.get $i) (i32.const 1)))
          (br $spin)))
      (i32.const 0))
  )"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  uint64_t prev_fuel = 0, prev_mem = 0;
  for (int d = 1; d <= 3; ++d) {
    host::GuestJob job;
    job.module = *module;
    job.argv = {"grower", std::to_string(d)};
    host::RunReport r = w.sup->RunAll({std::move(job)})[0];
    ASSERT_TRUE(r.completed()) << r.trap_message;
    EXPECT_GT(r.fuel_consumed, 0u);
    EXPECT_EQ(r.fuel_consumed, r.executed_instrs);
    // 2 declared pages + d grown; pooled slot resets must not leak the
    // previous run's larger high-water into this report.
    EXPECT_EQ(r.mem_high_water_pages, 2u + static_cast<uint64_t>(d));
    EXPECT_GT(r.fuel_consumed, prev_fuel);
    EXPECT_GT(r.mem_high_water_pages, prev_mem);
    prev_fuel = r.fuel_consumed;
    prev_mem = r.mem_high_water_pages;
  }
}

TEST(Supervisor, RunAllReturnsReportsInSubmissionOrder) {
  // RunAll's contract: reports[i] always belongs to jobs[i], even when the
  // scheduler dispatches in a different order. Two tenants submitted as
  // all-of-A-then-all-of-B get round-robin interleaved by the fair queue
  // (observable via dispatch_seq), but the reports still come back in
  // submission order.
  SupWorld w = MakeWorld(/*workers=*/2);
  auto module = w.cache->Load(WrapModule(kTenantGuest));
  ASSERT_TRUE(module.ok());

  const int kPerTenant = 6;
  std::vector<host::GuestJob> jobs;
  for (int k = 0; k < 2 * kPerTenant; ++k) {
    host::GuestJob job;
    job.module = *module;
    job.argv = {"tenant", std::to_string(k % 10)};
    job.tenant = k < kPerTenant ? "a" : "b";
    jobs.push_back(std::move(job));
  }
  std::vector<host::RunReport> reports = w.sup->RunAll(std::move(jobs));
  ASSERT_EQ(reports.size(), static_cast<size_t>(2 * kPerTenant));
  for (int k = 0; k < 2 * kPerTenant; ++k) {
    ASSERT_TRUE(reports[k].completed()) << reports[k].trap_message;
    EXPECT_EQ(reports[k].exit_code, k % 10)
        << "report " << k << " does not belong to job " << k;
    EXPECT_EQ(reports[k].tenant, k < kPerTenant ? "a" : "b");
    EXPECT_GE(reports[k].dispatch_seq, 1u);
  }
}

TEST(Supervisor, SubmitAfterShutdownFails) {
  SupWorld w = MakeWorld(/*workers=*/2);
  auto module = w.cache->Load(WrapModule(
      "(memory 2) (func (export \"main\") (result i32) (i32.const 0))"));
  ASSERT_TRUE(module.ok());
  w.sup->Shutdown();
  host::GuestJob job;
  job.module = *module;
  job.argv = {"late"};
  host::RunReport r = w.sup->Submit(std::move(job)).get();
  EXPECT_EQ(r.trap, wasm::TrapKind::kHostError);
  EXPECT_EQ(r.outcome, host::Outcome::kRejected);
}

TEST(Supervisor, ManyRoundsReuseBoundedSlots) {
  SupWorld w = MakeWorld(/*workers=*/4);
  auto module = w.cache->Load(WrapModule(kTenantGuest));
  ASSERT_TRUE(module.ok());
  for (int round = 0; round < 5; ++round) {
    std::vector<host::GuestJob> jobs(16);
    for (size_t k = 0; k < jobs.size(); ++k) {
      jobs[k].module = *module;
      jobs[k].argv = {"tenant", std::to_string(k % 10)};
    }
    std::vector<host::RunReport> reports = w.sup->RunAll(std::move(jobs));
    for (size_t k = 0; k < reports.size(); ++k) {
      ASSERT_TRUE(reports[k].completed());
      ASSERT_EQ(reports[k].exit_code, static_cast<int>(k % 10));
    }
  }
  host::InstancePool::Stats ps = w.sup->pool().stats();
  // 80 runs total; at most workers+idle slots ever built cold.
  EXPECT_LE(ps.misses, 8u);
  EXPECT_GT(ps.hits, 60u);
}

// ------------------------------------------------------- tenant signals --

// A tenant's signals are its own data: nothing it raises, masks or arms may
// reach the host process or another tenant. Each row runs in a forked child
// that builds its own runtime and 2-worker supervisor and runs the row's
// guests at once, so a signal that kills the host fails the row, not ctest.
struct TenantSignalRow {
  const char* name;
  // Guest bodies, built in the child (a row may create fds there first).
  std::function<std::vector<std::string>()> guests;
  // Judges the reports while the supervisor still lives: "" when the row
  // holds, else what went wrong.
  std::function<std::string(const std::vector<host::RunReport>&)> check;
};

void PrintTo(const TenantSignalRow& row, std::ostream* os) { *os << row.name; }

// A check that guest i exited with want[i].
std::function<std::string(const std::vector<host::RunReport>&)> Exits(
    std::vector<int> want) {
  return [want](const std::vector<host::RunReport>& reports) {
    std::string err;
    for (size_t i = 0; i < want.size(); ++i) {
      if (reports[i].exit_code != want[i] || !reports[i].completed()) {
        err += "guest " + std::to_string(i) + ": exit " +
               std::to_string(reports[i].exit_code) + " (" +
               wasm::TrapKindName(reports[i].trap) + "), want " +
               std::to_string(want[i]) + "\n";
      }
    }
    return err;
  };
}

// Spins 100000 times: loop headers are safepoints, where a pending signal
// is delivered.
const char* kSpin = R"(
  (func $spin
    (local $i i32)
    (loop $l
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br_if $l (i32.lt_u (local.get $i) (i32.const 100000)))))
)";

// SIGUSR1 handler in table slot 2 that counts its runs in $got; $await
// sleeps 1 ms at a time, at most 100 times, until it has run.
const char* kCountUsr1 = R"(
  (table 4 funcref)
  (global $got (mut i32) (i32.const 0))
  (func $handler (param i32)
    (global.set $got (i32.add (global.get $got) (i32.const 1))))
  (elem (i32.const 2) $handler)
  (func $install
    (i32.store (i32.const 1024) (i32.const 2))
    (i32.store (i32.const 1028) (i32.const 0))
    (i64.store (i32.const 1032) (i64.const 0))
    (drop (call $sigaction (i64.const 10) (i64.const 1024) (i64.const 0) (i64.const 8))))
  (func $await
    (local $i i32)
    (i64.store (i32.const 3072) (i64.const 0))
    (i64.store (i32.const 3080) (i64.const 1000000))
    (block $done
      (loop $l
        (br_if $done (i32.ne (global.get $got) (i32.const 0)))
        (br_if $done (i32.ge_u (local.get $i) (i32.const 100)))
        (drop (call $nanosleep (i64.const 3072) (i64.const 0)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l))))
)";

// Two tenants with their own SIGUSR1 handlers, in lockstep over test-owned
// pipes: A registers, then B; A signals itself, then lets B look.
std::vector<std::string> HandshakeGuests() {
  int p[3][2];
  for (auto& fds : p) {
    if (pipe2(fds, O_CLOEXEC) != 0) return {};
  }
  auto io = [](const char* call, int fd) {
    return std::string("(drop (call ") + call + " (i64.const " +
           std::to_string(fd) + ") (i64.const 512) (i64.const 1)))";
  };
  std::string a = std::string("(memory 1)") + kCountUsr1 + R"(
    (func (export "main") (result i32)
      (call $install)
      )" + io("$write", p[0][1]) + io("$read", p[1][0]) + R"(
      (drop (call $kill (call $getpid) (i64.const 10)))
      )" + io("$write", p[2][1]) + R"(
      (call $await)
      (global.get $got)))";
  std::string b = std::string("(memory 1)") + kCountUsr1 + R"(
    (func (export "main") (result i32)
      )" + io("$read", p[0][0]) + R"(
      (call $install)
      )" + io("$write", p[1][1]) + io("$read", p[2][0]) + R"(
      (call $await)
      (global.get $got)))";
  return {a, b};
}

// Writes a byte to a pipe whose read end it closed first; the answer is in $r.
const char* kBrokenPipeWrite = R"(
  (drop (call $pipe2 (i64.const 600) (i64.const 0)))
  (drop (call $close (i64.load32_u (i32.const 600))))
  (local.set $r (call $write (i64.load32_u (i32.const 604)) (i64.const 512) (i64.const 1)))
)";

// The SigBlk mask of this process's thread `tid`, or "?" when unreadable.
std::string SigBlk(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("SigBlk:", 0) == 0) {
      return line.substr(line.find_first_not_of(" \t", 7));
    }
  }
  return "?";
}

std::vector<TenantSignalRow> TenantSignalRows() {
  auto one = [](std::string body) {
    return [body] { return std::vector<std::string>{body}; };
  };
  return {
      {"SelfKillEndsTheRunNotTheHost",
       one(std::string("(memory 1)") + kSpin + R"(
         (func (export "main") (result i32)
           (drop (call $kill (call $getpid) (i64.const 12)))
           (call $spin)
           (i32.const 0)))"),
       Exits({128 + SIGUSR2})},
      {"SelfTkillAbortEndsTheRunNotTheHost",
       one(std::string(R"((import "wali" "SYS_tkill" (func $tkill (param i64 i64) (result i64)))
         (memory 1))") + kSpin + R"(
         (func (export "main") (result i32)
           (drop (call $tkill (call $gettid) (i64.const 6)))
           (call $spin)
           (i32.const 0)))"),
       Exits({128 + SIGABRT})},
      {"HandlerRunsInTheRaisingTenantOnly", HandshakeGuests, Exits({1, 0})},
      {"BrokenPipeIsTheTenantsSigpipe",
       [] {
         std::string kills = std::string("(memory 1)") + kSpin + R"(
           (func (export "main") (result i32)
             (local $r i64))" + kBrokenPipeWrite + R"(
             (call $spin)
             (i32.const 0)))";
         std::string ignores = std::string(R"((memory 1)
           (func (export "main") (result i32)
             (local $r i64)
             (i32.store (i32.const 1024) (i32.const 1))  ;; SIG_IGN
             (i32.store (i32.const 1028) (i32.const 0))
             (i64.store (i32.const 1032) (i64.const 0))
             (drop (call $sigaction (i64.const 13) (i64.const 1024) (i64.const 0)
                                    (i64.const 8))))") + kBrokenPipeWrite + R"(
             (i32.wrap_i64 (i64.sub (i64.const 0) (local.get $r)))))";
         return std::vector<std::string>{kills, ignores};
       },
       Exits({128 + SIGPIPE, EPIPE})},
      {"SigchldDefaultIsIgnored",
       one(std::string("(memory 1)") + kSpin + R"(
         (func (export "main") (result i32)
           (drop (call $kill (call $getpid) (i64.const 17)))
           (call $spin)
           (i32.const 5)))"),
       Exits({5})},
      {"KillReachesNoOtherProcess",
       [] {
         const char* probe = R"(
           (import "wali" "SYS_getppid" (func $getppid (result i64)))
           (memory 1)
           (func (export "main") (result i32)
             (i32.wrap_i64 (i64.sub (i64.const 0) (call $kill %s (i64.const 0))))))";
         std::vector<std::string> guests;
         for (const char* pid : {"(call $getppid)", "(i64.const -1)"}) {
           char buf[512];
           std::snprintf(buf, sizeof(buf), probe, pid);
           guests.push_back(buf);
         }
         return guests;
       },
       Exits({EPERM, EPERM})},
      {"SigprocmaskLeavesTheWorkerMask",
       one(R"((memory 1)
         (func (export "main") (result i32)
           (i64.store (i32.const 2048) (i64.const 0x800))  ;; SIGUSR2
           (drop (call $sigprocmask (i64.const 0) (i64.const 2048) (i64.const 0)
                                    (i64.const 8)))
           (i32.wrap_i64 (call $gettid))))"),
       [](const std::vector<host::RunReport>& reports) {
         std::string blk = SigBlk(reports[0].exit_code);
         return blk == "0000000000000000"
                    ? std::string()
                    : "worker " + std::to_string(reports[0].exit_code) +
                          " SigBlk " + blk + ", want 0\n";
       }},
      {"SetitimerIsRefused",
       one(R"((import "wali" "SYS_setitimer" (func $setitimer (param i64 i64 i64) (result i64)))
         (memory 1)
         (func (export "main") (result i32)
           (i64.store (i32.const 1040) (i64.const 10))  ;; it_value: 10 s
           (i32.wrap_i64 (i64.sub (i64.const 0)
             (call $setitimer (i64.const 0) (i64.const 1024) (i64.const 0))))))"),
       Exits({EPERM})},
  };
}

// Runs the row's guests on a fresh 2-worker supervisor; the child's exit code.
int RunTenantSignalRow(const TenantSignalRow& row) {
  SupWorld w = MakeWorld(/*workers=*/2);
  std::vector<host::GuestJob> jobs;
  for (const std::string& body : row.guests()) {
    auto module = w.cache->Load(WrapModule(body));
    if (!module.ok()) {
      std::fprintf(stderr, "%s\n", module.status().ToString().c_str());
      return 2;
    }
    host::GuestJob job;
    job.module = *module;
    job.argv = {"tenant"};
    job.tenant = "t" + std::to_string(jobs.size());
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) {
    return 3;
  }
  std::string err = row.check(w.sup->RunAll(std::move(jobs)));
  std::fputs(err.c_str(), stderr);
  return err.empty() ? 0 : 1;
}

class TenantSignals : public ::testing::TestWithParam<TenantSignalRow> {};

TEST_P(TenantSignals, StayInTheTenant) {
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    _exit(RunTenantSignalRow(GetParam()));
  }
  const int64_t deadline = common::MonotonicNanos() + 30'000'000'000;
  int status = 0;
  pid_t done = 0;
  while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
         common::MonotonicNanos() < deadline) {
    usleep(10000);
  }
  if (done == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    FAIL() << "the host hung for 30 s";
  }
  ASSERT_FALSE(WIFSIGNALED(status)) << "the host died by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the row failed in the host (its stderr above)";
}

INSTANTIATE_TEST_SUITE_P(Rows, TenantSignals, ::testing::ValuesIn(TenantSignalRows()),
                         [](const ::testing::TestParamInfo<TenantSignalRow>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
