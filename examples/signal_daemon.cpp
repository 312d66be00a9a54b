// Domain example 1 — a daemon-style guest with asynchronous signal handling
// (the paper's motivating system-software scenario, §1.1/§3.3): the guest
// registers Wasm handlers for SIGUSR1/SIGUSR2/SIGTERM, then services a work
// loop; the host (standing in for an operator) sends real kernel signals.
//
// Build & run:  ./build/example_signal_daemon
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <thread>

#include "src/wali/wali.h"
#include "src/wasm/wasm.h"

static const char* kDaemon = R"((module
  (import "wali" "SYS_rt_sigaction" (func $sigaction (param i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_write" (func $write (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_sched_yield" (func $yield (result i64)))
  (memory 2)
  (table 8 funcref)
  (global $usr1 (mut i32) (i32.const 0))
  (global $usr2 (mut i32) (i32.const 0))
  (global $stop (mut i32) (i32.const 0))
  (data (i32.const 300) "usr1!\n")
  (data (i32.const 310) "usr2!\n")
  (data (i32.const 320) "term!\n")
  (func $on_usr1 (param i32)
    (global.set $usr1 (i32.add (global.get $usr1) (i32.const 1)))
    (drop (call $write (i64.const 1) (i64.const 300) (i64.const 6))))
  (func $on_usr2 (param i32)
    (global.set $usr2 (i32.add (global.get $usr2) (i32.const 1)))
    (drop (call $write (i64.const 1) (i64.const 310) (i64.const 6))))
  (func $on_term (param i32)
    (global.set $stop (i32.const 1))
    (drop (call $write (i64.const 1) (i64.const 320) (i64.const 6))))
  (elem (i32.const 2) $on_usr1 $on_usr2 $on_term)
  (func $install (param $signo i64) (param $slot i64) (result i64)
    (i32.store (i32.const 1024) (i32.wrap_i64 (local.get $slot)))
    (i32.store (i32.const 1028) (i32.const 0))
    (i64.store (i32.const 1032) (i64.const 0))
    (call $sigaction (local.get $signo) (i64.const 1024) (i64.const 0) (i64.const 8)))
  (func (export "main") (result i32)
    (drop (call $install (i64.const 10) (i64.const 2)))  ;; SIGUSR1 -> slot 2
    (drop (call $install (i64.const 12) (i64.const 3)))  ;; SIGUSR2 -> slot 3
    (drop (call $install (i64.const 15) (i64.const 4)))  ;; SIGTERM -> slot 4
    ;; work loop: yields until SIGTERM's handler sets the stop flag
    (block $done
      (loop $work
        (br_if $done (global.get $stop))
        (drop (call $yield))
        (br $work)))
    ;; exit status: number of USR1s seen * 10 + USR2s
    (i32.add (i32.mul (global.get $usr1) (i32.const 10)) (global.get $usr2)))
))";

int main() {
  auto module = wasm::ParseAndValidateWat(kDaemon);
  if (!module.ok()) {
    std::fprintf(stderr, "parse error: %s\n", module.status().ToString().c_str());
    return 1;
  }
  wasm::Linker linker;
  wali::WaliRuntime runtime(&linker);
  auto process = runtime.CreateProcess(*module, {"signal-daemon"}, {});
  if (!process.ok()) {
    std::fprintf(stderr, "error: %s\n", process.status().ToString().c_str());
    return 1;
  }
  // The daemon is this host process: bind its signal table to the native
  // signals, so the operator's kill(2) reaches its handlers.
  (*process)->sigtable.BindNative();

  // The "operator": a host thread that pokes the daemon with real signals.
  std::thread operator_thread([] {
    usleep(20000);
    kill(getpid(), SIGUSR1);
    usleep(20000);
    kill(getpid(), SIGUSR1);
    usleep(20000);
    kill(getpid(), SIGUSR2);
    usleep(20000);
    kill(getpid(), SIGTERM);
  });

  wasm::RunResult r = runtime.RunMain(**process);
  operator_thread.join();

  uint32_t code = r.values.empty() ? static_cast<uint32_t>(r.exit_code)
                                   : r.values[0].i32();
  std::printf("daemon exited with %u (expect 21: two USR1, one USR2), "
              "handlers delivered: %llu\n",
              code,
              static_cast<unsigned long long>((*process)->sigtable.delivered_count()));
  return code == 21 ? 0 : 1;
}
