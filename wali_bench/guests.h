// Guest modules for wali_bench's workloads, as WAT text. Each takes the
// tenant it is built for; only serve_short's tenants deploy distinct modules.
//
// Each guest's exit code and executed-instruction count are fixed by its
// code alone (the echo guest's count is linear in the requests it served),
// so every served run can be checked against one reference run.
#ifndef WALI_BENCH_GUESTS_H_
#define WALI_BENCH_GUESTS_H_

#include <string>

#include "src/workloads/workloads.h"

namespace wali_bench {

// serve_short: a representative short tenant app — 192 small functions (so
// decode, validate and prepare have real work), a 64-page (4 MiB) memory,
// one syscall and a 1000-iteration loop. Instantiation, pool reset and
// supervisor overhead dominate its run time. Each tenant's module differs
// only in its data segment, so all run the same instructions.
inline std::string ShortGuestWat(int tenant) {
  std::string wat = R"((module
  (import "wali" "SYS_getpid" (func $getpid (result i64)))
  (memory 64)
  (data (i32.const 16) "wali_bench serve_short tenant )" +
                    std::to_string(tenant) + R"(")
)";
  for (int i = 0; i < 192; ++i) {
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
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 1000)))
        (local.set $acc (i32.add (local.get $acc) (call $f0 (local.get $i))))
        (i32.store (i32.add (i32.const 4096) (i32.shl (local.get $i) (i32.const 2)))
                   (local.get $acc))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (i32.const 0))
))";
  return wat;
}

// compute_loop: the lua analog from src/workloads at scale 4 — loop-heavy
// sieve and iterative fib with mmap/munmap allocator traffic.
inline std::string LuaGuestWat(int /*tenant*/) {
  return workloads::InstantiateWat(*workloads::FindWorkload("lua"), 4);
}

// compute_calls: recursive fib(22), about 57k calls per run. One getpid so
// the WALI layer is crossed at least once.
inline std::string FibGuestWat(int /*tenant*/) {
  return R"((module
  (import "wali" "SYS_getpid" (func $getpid (result i64)))
  (memory 1)
  (func $fib (param $n i32) (result i32)
    (if (result i32) (i32.lt_u (local.get $n) (i32.const 2))
      (then (local.get $n))
      (else (i32.add
        (call $fib (i32.sub (local.get $n) (i32.const 1)))
        (call $fib (i32.sub (local.get $n) (i32.const 2)))))))
  (func (export "main") (result i32)
    (drop (call $getpid))
    (call $fib (i32.const 22)))
))";
}

// park_sleep / park_evict: dirties 512 KiB, sleeps 5 ms through
// SYS_nanosleep (a timer park), then reads the dirtied bytes back in a
// 2000-iteration loop. The exit code is their sum, so a restore that lost
// memory changes it.
inline std::string ParkGuestWat(int /*tenant*/) {
  return R"((module
  (import "wali" "SYS_nanosleep" (func $nanosleep (param i64 i64) (result i64)))
  (memory 16)
  (func (export "main") (result i32)
    (local $i i32)
    (local $acc i32)
    (memory.fill (i32.const 65536) (i32.const 0x5a) (i32.const 524288))
    (i64.store (i32.const 512) (i64.const 0))
    (i64.store (i32.const 520) (i64.const 5000000))
    (if (i64.ne (call $nanosleep (i64.const 512) (i64.const 0)) (i64.const 0))
      (then (return (i32.const 1))))
    (block $done
      (loop $sum
        (br_if $done (i32.ge_u (local.get $i) (i32.const 2000)))
        (local.set $acc
          (i32.add (local.get $acc)
                   (i32.load8_u (i32.add (i32.const 65536)
                                         (i32.mul (local.get $i) (i32.const 256))))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $sum)))
    (local.get $acc))
))";
}

// echo_rtt: one long-lived guest per connection. argv[1] is the connection
// fd as six zero-padded digits (fixed width keeps the instruction count
// independent of the fd number). Echoes every read back until EOF, then
// exits 0; 250-252 flag argument, read and write errors.
inline std::string EchoGuestWat(int /*tenant*/) {
  return R"((module
  (import "wali" "SYS_read" (func $read (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_write" (func $write (param i64 i64 i64) (result i64)))
  (import "wali" "copy_argv" (func $copy_argv (param i64 i64) (result i64)))
  (memory 1)
  (func $atoi (param $p i32) (param $len i32) (result i64)
    (local $i i32) (local $v i64)
    (block $done
      (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $len)))
        (local.set $v
          (i64.add (i64.mul (local.get $v) (i64.const 10))
                   (i64.extend_i32_u
                     (i32.sub (i32.load8_u (i32.add (local.get $p) (local.get $i)))
                              (i32.const 48)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
    (local.get $v))
  (func (export "main") (result i32)
    (local $fd i64) (local $n i64)
    (local.set $n (call $copy_argv (i64.const 256) (i64.const 1)))
    (if (i64.ne (local.get $n) (i64.const 7))
      (then (return (i32.const 250))))
    (local.set $fd (call $atoi (i32.const 256) (i32.const 6)))
    (block $eof
      (loop $serve
        (local.set $n (call $read (local.get $fd) (i64.const 1024) (i64.const 64)))
        (br_if $eof (i64.eqz (local.get $n)))
        (if (i64.lt_s (local.get $n) (i64.const 0))
          (then (return (i32.const 251))))
        (if (i64.ne (call $write (local.get $fd) (i64.const 1024) (local.get $n))
                    (local.get $n))
          (then (return (i32.const 252))))
        (br $serve)))
    (i32.const 0))
))";
}

}  // namespace wali_bench

#endif  // WALI_BENCH_GUESTS_H_
