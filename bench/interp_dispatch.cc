// Interpreter execution-pipeline A/B/C/D: the portable switch loop over the
// UNFUSED stream (the baseline interpreter, before any of the prepare/
// dispatch work), the switch loop over the fused stream (fusion alone),
// computed-goto threaded dispatch over the fused stream with TOS caching
// and the inline call fast path (the full interpreter pipeline), and the
// baseline-JIT tier stitching per-op stencils over the same stream (tier-up
// threshold 0 so the warmup rep compiles everything hot). Runs interpreter-
// bound kernels plus the compute-dominated `lua` workload analog from
// src/workloads/ in all four configurations, checks results AND executed
// instruction counts are bit-identical, and reports per-kernel and geomean
// speedups for the interpreter pipeline (threaded+fused vs the switch
// baseline) and for the JIT tier (vs the threaded interpreter) with the
// fusion-only ratio alongside for attribution.
//
//   interp_dispatch [--json out.json] [--quick]
//
// Exit codes: 0 ok; 3 when threaded dispatch is available but the full-
// pipeline geomean is below the 1.9x bar or the call-dense `fib` kernel is
// below its 1.6x bar (ISSUE 5 acceptance), or when the JIT tier is built in
// but its geomean over the threaded interpreter on the compute kernels is
// below 1.5x, the branch-dense `collatz` is below 1.3x, or the call-dense
// `fib` is below 1.5x (native wasm->wasm calls); 1 on engine errors.
// --quick cuts iterations for the CI smoke gate: the perf bars stay
// advisory there, but a result mismatch — in any mode, jit included — is
// always a hard failure. --json writes one machine-readable run; the
// checked-in BENCH_interp.json at the repo root keeps the TRAJECTORY (an
// array of such runs, appended per optimization PR, never overwritten).
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/time_util.h"
#include "src/workloads/workloads.h"
#include "src/wasm/prepare.h"
#include "src/wasm/wasm.h"

namespace {

struct Kernel {
  const char* name;
  const char* wat;
  uint32_t arg;
};

// Tight counting loop: local.get/i32.const/i32.add/local.set and cmp+br_if
// chains — the fusion pass's bread and butter.
const char* kLoopArith = R"((module
  (func (export "run") (param $n i32) (result i32)
    (local $i i32) (local $acc i32)
    (block $done
      (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $acc (i32.add (local.get $acc) (i32.mul (local.get $i) (i32.const 3))))
        (local.set $acc (i32.xor (local.get $acc) (i32.shr_u (local.get $acc) (i32.const 7))))
        (local.set $acc (i32.add (local.get $acc) (i32.const 0x9E37)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
    (local.get $acc)))
)";

// Call-heavy recursion (frame push/pop, if/else control).
const char* kFib = R"((module
  (func $fib (export "run") (param i32) (result i32)
    (if (result i32) (i32.lt_u (local.get 0) (i32.const 2))
      (then (local.get 0))
      (else (i32.add
        (call $fib (i32.sub (local.get 0) (i32.const 1)))
        (call $fib (i32.sub (local.get 0) (i32.const 2))))))))
)";

// Byte-granular memory traffic (loads, stores, memory.fill) over 256 KiB.
const char* kSieve = R"((module
  (memory 4)
  (func (export "run") (param $limit i32) (result i32)
    (local $i i32) (local $j i32) (local $count i32)
    (memory.fill (i32.const 0) (i32.const 1) (local.get $limit))
    (i32.store8 (i32.const 0) (i32.const 0))
    (i32.store8 (i32.const 1) (i32.const 0))
    (local.set $i (i32.const 2))
    (block $done
      (loop $outer
        (br_if $done (i32.gt_u (i32.mul (local.get $i) (local.get $i)) (local.get $limit)))
        (if (i32.load8_u (local.get $i))
          (then
            (local.set $j (i32.mul (local.get $i) (local.get $i)))
            (block $jdone
              (loop $inner
                (br_if $jdone (i32.ge_u (local.get $j) (local.get $limit)))
                (i32.store8 (local.get $j) (i32.const 0))
                (local.set $j (i32.add (local.get $j) (local.get $i)))
                (br $inner)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $outer)))
    (local.set $i (i32.const 0))
    (block $cdone
      (loop $c
        (br_if $cdone (i32.ge_u (local.get $i) (local.get $limit)))
        (local.set $count (i32.add (local.get $count) (i32.load8_u (local.get $i))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $c)))
    (local.get $count)))
)";

// Word-granular matmul (n x n, i32) — local.get+i32.load addressing chains.
const char* kMatmul = R"((module
  (memory 2)
  (func (export "run") (param $n i32) (result i32)
    (local $i i32) (local $j i32) (local $k i32) (local $sum i32) (local $check i32)
    ;; init a[i] = i*7+3 over 2*n*n words
    (local.set $i (i32.const 0))
    (block $idone
      (loop $init
        (br_if $idone (i32.ge_u (local.get $i) (i32.mul (i32.const 2) (i32.mul (local.get $n) (local.get $n)))))
        (i32.store (i32.mul (local.get $i) (i32.const 4))
                   (i32.add (i32.mul (local.get $i) (i32.const 7)) (i32.const 3)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $init)))
    (local.set $i (i32.const 0))
    (block $done
      (loop $li
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $j (i32.const 0))
        (block $jdone
          (loop $lj
            (br_if $jdone (i32.ge_u (local.get $j) (local.get $n)))
            (local.set $sum (i32.const 0))
            (local.set $k (i32.const 0))
            (block $kdone
              (loop $lk
                (br_if $kdone (i32.ge_u (local.get $k) (local.get $n)))
                (local.set $sum (i32.add (local.get $sum)
                  (i32.mul
                    (i32.load (i32.mul (i32.add (i32.mul (local.get $i) (local.get $n)) (local.get $k)) (i32.const 4)))
                    (i32.load (i32.mul (i32.add (i32.mul (local.get $k) (local.get $n)) (local.get $j))
                                       (i32.const 4))))))
                (local.set $k (i32.add (local.get $k) (i32.const 1)))
                (br $lk)))
            (local.set $check (i32.xor (local.get $check) (local.get $sum)))
            (local.set $j (i32.add (local.get $j) (i32.const 1)))
            (br $lj)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $li)))
    (local.get $check)))
)";

// Branch-dense kernel: collatz trajectory lengths. Exercises the
// i32.eqz/i32.cmp + br_if superinstructions on an unpredictable branch mix.
const char* kCollatz = R"((module
  (func (export "run") (param $limit i32) (result i32)
    (local $n i32) (local $x i32) (local $steps i32)
    (local.set $n (i32.const 1))
    (block $done
      (loop $outer
        (br_if $done (i32.gt_u (local.get $n) (local.get $limit)))
        (local.set $x (local.get $n))
        (block $conv
          (loop $step
            (br_if $conv (i32.eq (local.get $x) (i32.const 1)))
            (if (i32.and (local.get $x) (i32.const 1))
              (then (local.set $x (i32.add (i32.mul (local.get $x) (i32.const 3)) (i32.const 1))))
              (else (local.set $x (i32.shr_u (local.get $x) (i32.const 1)))))
            (local.set $steps (i32.add (local.get $steps) (i32.const 1)))
            (br $step)))
        (local.set $n (i32.add (local.get $n) (i32.const 1)))
        (br $outer)))
    (local.get $steps)))
)";

// 64-bit scramble loop (xorshift-style): i64 ALU ops dominate.
const char* kI64Mix = R"((module
  (func (export "run") (param $n i32) (result i64)
    (local $i i32) (local $x i64)
    (local.set $x (i64.const 0x9E3779B97F4A7C15))
    (block $done
      (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $x (i64.xor (local.get $x) (i64.shr_u (local.get $x) (i64.const 13))))
        (local.set $x (i64.rotl (local.get $x) (i64.const 31)))
        (local.set $x (i64.mul (local.get $x) (i64.const 0x2545F4914F6CDD1D)))
        (local.set $x (i64.add (local.get $x) (i64.extend_i32_u (local.get $i))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
    (local.get $x)))
)";

// Branch-dense bitcount/prng loop: xorshift32 feeding a Kernighan
// clear-lowest-set-bit count (no popcnt instruction in wasm MVP) — the
// inner loop's trip count is data-dependent, so the branch mix is
// unpredictable and dispatch-bound. This is the case the JIT tier targets:
// the interpreter pays an indirect branch per superinstruction, compiled
// code pays a conditional branch.
const char* kBitcount = R"((module
  (func (export "run") (param $n i32) (result i32)
    (local $i i32) (local $x i32) (local $v i32) (local $count i32)
    (local.set $x (i32.const 0x12345678))
    (block $done
      (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $x (i32.xor (local.get $x) (i32.shl (local.get $x) (i32.const 13))))
        (local.set $x (i32.xor (local.get $x) (i32.shr_u (local.get $x) (i32.const 17))))
        (local.set $x (i32.xor (local.get $x) (i32.shl (local.get $x) (i32.const 5))))
        (local.set $v (local.get $x))
        (block $bdone
          (loop $b
            (br_if $bdone (i32.eqz (local.get $v)))
            (local.set $v (i32.and (local.get $v) (i32.sub (local.get $v) (i32.const 1))))
            (local.set $count (i32.add (local.get $count) (i32.const 1)))
            (br $b)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
    (local.get $count)))
)";

struct ModeResult {
  bool ok = false;
  int64_t best_ns = 0;
  uint64_t instrs = 0;
  uint64_t bits = 0;
  std::string error;
};

// `jit` defaults to kOff so every interpreter column measures the
// interpreter — kAuto would silently hand the threaded column to the JIT.
// The jit column passes kOn with threshold 0: the warmup rep tiers up
// every function, so timed reps run compiled code throughout.
ModeResult RunKernel(const Kernel& k, wasm::DispatchMode mode, bool fuse,
                     int reps, bool profile = false,
                     wasm::JitTier jit = wasm::JitTier::kOff) {
  ModeResult out;
  auto parsed = wasm::ParseAndValidateWat(k.wat);
  if (!parsed.ok()) {
    out.error = parsed.status().ToString();
    return out;
  }
  if (!fuse) {
    wasm::PrepareOptions popts;
    popts.fuse = false;
    wasm::PrepareModule(**parsed, popts);
  }
  wasm::Linker linker;
  auto inst = linker.Instantiate(*parsed);
  if (!inst.ok()) {
    out.error = inst.status().ToString();
    return out;
  }
  wasm::ExecOptions opts;
  opts.dispatch = mode;
  opts.profile = profile;
  opts.jit = jit;
  opts.jit_threshold = 0;
  std::vector<wasm::Value> args = {wasm::Value::I32(k.arg)};
  out.best_ns = INT64_MAX;
  for (int r = 0; r < reps + 1; ++r) {  // first rep is warmup
    int64_t t0 = common::MonotonicNanos();
    wasm::RunResult res = (*inst)->CallExport("run", args, opts);
    int64_t dt = common::MonotonicNanos() - t0;
    if (!res.ok()) {
      out.error = std::string(wasm::TrapKindName(res.trap)) + " " + res.trap_message;
      return out;
    }
    if (r == 0) {
      out.instrs = res.executed_instrs;
      out.bits = res.values.empty() ? 0 : res.values[0].bits;
    }
    if (r > 0 && dt < out.best_ns) out.best_ns = dt;
  }
  out.ok = true;
  return out;
}

ModeResult RunLuaWorkload(wasm::DispatchMode mode, bool fuse, int scale,
                          int reps,
                          wasm::JitTier jit = wasm::JitTier::kOff) {
  ModeResult out;
  const workloads::Workload* w = workloads::FindWorkload("lua");
  if (w == nullptr) {
    out.error = "lua workload missing";
    return out;
  }
  out.best_ns = INT64_MAX;
  for (int r = 0; r < reps + 1; ++r) {
    auto stats = workloads::RunUnderWali(*w, scale, wasm::SafepointScheme::kLoop,
                                         mode, fuse, jit, /*jit_threshold=*/0);
    if (!stats.result.ok_or_exit0()) {
      out.error = stats.result.trap_message;
      return out;
    }
    if (r == 0) {
      out.instrs = stats.result.executed_instrs;
      out.bits = static_cast<uint64_t>(stats.result.exit_code);
    }
    if (r > 0 && stats.wall_ns < out.best_ns) out.best_ns = stats.wall_ns;
  }
  out.ok = true;
  return out;
}

struct Row {
  std::string name;
  ModeResult base;  // switch dispatch, unfused stream (the pre-pipeline IR)
  ModeResult swf;   // switch dispatch, fused stream (fusion alone)
  ModeResult th;    // threaded dispatch, fused stream (the interp pipeline)
  ModeResult jit;   // baseline-JIT tier over the fused stream
  bool compute = false;      // true for the Kernel array (ISSUE 8 jit bars)
  double speedup = 0;        // base / threaded
  double fused_speedup = 0;  // swf / threaded (dispatch + TOS gains alone)
  double jit_speedup = 0;      // base / jit (full stack vs the seed interp)
  double jit_vs_threaded = 0;  // th / jit (tier gain over the interpreter)
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  const int reps = quick ? 2 : 5;
  const uint32_t scale = quick ? 1 : 4;

  bench::Header("interp dispatch",
                "switch baseline vs fusion vs threaded+fused+TOS pipeline");
  bench::Note(std::string("threaded dispatch built in: ") +
              (wasm::ThreadedDispatchAvailable() ? "yes" : "NO (switch-only build)"));
  bench::Note(std::string("baseline JIT tier built in: ") +
              (wasm::JitAvailable() ? "yes" : "NO (interpreter-only build)"));
  if (quick) {
    bench::Note("--quick: reduced iterations (CI smoke gate; result mismatch "
                "is fatal, perf bars advisory)");
  }

  const Kernel kernels[] = {
      {"loop_arith", kLoopArith, 1000000 * scale},
      {"fib", kFib, quick ? 24u : 27u},
      {"sieve", kSieve, 60000 * scale},
      {"matmul", kMatmul, quick ? 32u : 56u},
      {"collatz", kCollatz, 30000 * scale},
      {"i64_mix", kI64Mix, 600000 * scale},
      {"bitcount", kBitcount, 150000 * scale},
  };

  std::vector<Row> rows;
  for (const Kernel& k : kernels) {
    Row row;
    row.name = k.name;
    row.compute = true;
    row.base = RunKernel(k, wasm::DispatchMode::kSwitch, /*fuse=*/false, reps);
    row.swf = RunKernel(k, wasm::DispatchMode::kSwitch, /*fuse=*/true, reps);
    row.th = RunKernel(k, wasm::DispatchMode::kThreaded, /*fuse=*/true, reps);
    row.jit = RunKernel(k, wasm::DispatchMode::kThreaded, /*fuse=*/true, reps,
                        /*profile=*/false, wasm::JitTier::kOn);
    rows.push_back(row);
  }
  {
    const int scale = quick ? 10 : 30;
    Row row;
    row.name = "lua(workload)";
    row.base = RunLuaWorkload(wasm::DispatchMode::kSwitch, /*fuse=*/false, scale, reps);
    row.swf = RunLuaWorkload(wasm::DispatchMode::kSwitch, /*fuse=*/true, scale, reps);
    row.th = RunLuaWorkload(wasm::DispatchMode::kThreaded, /*fuse=*/true, scale, reps);
    row.jit = RunLuaWorkload(wasm::DispatchMode::kThreaded, /*fuse=*/true, scale,
                             reps, wasm::JitTier::kOn);
    rows.push_back(row);
  }

  std::printf("\n%-14s %10s %10s %10s %10s %8s %8s %8s %9s\n", "kernel",
              "switch-ms", "sw+fuse-ms", "thread-ms", "jit-ms", "interp-x",
              "vs-fused", "jit-x", "jit/thrd");
  double log_sum = 0;
  double jit_log_sum = 0;
  double fib_speedup = 0;
  double fib_jit = 0;
  double collatz_jit = 0;
  int counted = 0;
  int jit_counted = 0;
  bool failed = false;
  for (Row& r : rows) {
    if (!r.base.ok || !r.swf.ok || !r.th.ok || !r.jit.ok) {
      std::printf("%-14s <failed: %s>\n", r.name.c_str(),
                  (!r.base.ok ? r.base.error
                   : !r.swf.ok ? r.swf.error
                   : !r.th.ok  ? r.th.error
                               : r.jit.error).c_str());
      failed = true;
      continue;
    }
    // Bit-identical results AND executed counts across all four
    // configurations: this is the TenantLedger contract — fusion level,
    // dispatch mode, and execution tier are pure performance knobs.
    if (r.base.bits != r.th.bits || r.base.instrs != r.th.instrs ||
        r.swf.bits != r.th.bits || r.swf.instrs != r.th.instrs ||
        r.jit.bits != r.th.bits || r.jit.instrs != r.th.instrs) {
      std::printf("%-14s RESULT MISMATCH base=(%" PRIu64 ",%" PRIu64
                  ") fused=(%" PRIu64 ",%" PRIu64 ") threaded=(%" PRIu64
                  ",%" PRIu64 ") jit=(%" PRIu64 ",%" PRIu64 ")\n",
                  r.name.c_str(), r.base.bits, r.base.instrs, r.swf.bits,
                  r.swf.instrs, r.th.bits, r.th.instrs, r.jit.bits,
                  r.jit.instrs);
      failed = true;
      continue;
    }
    r.speedup = static_cast<double>(r.base.best_ns) / static_cast<double>(r.th.best_ns);
    r.fused_speedup =
        static_cast<double>(r.swf.best_ns) / static_cast<double>(r.th.best_ns);
    r.jit_speedup =
        static_cast<double>(r.base.best_ns) / static_cast<double>(r.jit.best_ns);
    r.jit_vs_threaded =
        static_cast<double>(r.th.best_ns) / static_cast<double>(r.jit.best_ns);
    if (r.name == "fib") {
      fib_speedup = r.speedup;
      fib_jit = r.jit_vs_threaded;
    }
    if (r.name == "collatz") {
      collatz_jit = r.jit_vs_threaded;
    }
    std::printf("%-14s %10.2f %10.2f %10.2f %10.2f %7.2fx %7.2fx %7.2fx %8.2fx\n",
                r.name.c_str(), bench::Ms(r.base.best_ns), bench::Ms(r.swf.best_ns),
                bench::Ms(r.th.best_ns), bench::Ms(r.jit.best_ns), r.speedup,
                r.fused_speedup, r.jit_speedup, r.jit_vs_threaded);
    log_sum += std::log(r.speedup);
    ++counted;
    if (r.compute) {
      jit_log_sum += std::log(r.jit_vs_threaded);
      ++jit_counted;
    }
  }
  double geomean = counted > 0 ? std::exp(log_sum / counted) : 0;
  double jit_geomean = jit_counted > 0 ? std::exp(jit_log_sum / jit_counted) : 0;
  std::printf("\ngeomean speedup (threaded+fused+TOS vs unfused switch baseline): "
              "%.2fx over %d kernels (bar: >= 1.9x; fib bar: >= 1.6x, got %.2fx)\n",
              geomean, counted, fib_speedup);
  std::printf("geomean JIT tier vs threaded interpreter (compute kernels): "
              "%.2fx over %d kernels (bar: >= 1.5x; collatz bar: >= 1.3x, got "
              "%.2fx; fib bar: >= 1.5x, got %.2fx)\n",
              jit_geomean, jit_counted, collatz_jit, fib_jit);

  // Telemetry-overhead A/B: the same full pipeline with ExecOptions::profile
  // off vs on (frame-entry counters + fuel attribution). Informational; the
  // target is <= 1.02x geomean.
  {
    std::printf("\n%-14s %12s %12s %9s  (telemetry profiling overhead)\n",
                "kernel", "profile-off", "profile-on", "ratio");
    double tlog_sum = 0;
    int tcounted = 0;
    for (const Kernel& k : kernels) {
      ModeResult off =
          RunKernel(k, wasm::DispatchMode::kThreaded, /*fuse=*/true, reps,
                    /*profile=*/false);
      ModeResult on =
          RunKernel(k, wasm::DispatchMode::kThreaded, /*fuse=*/true, reps,
                    /*profile=*/true);
      if (!off.ok || !on.ok) {
        std::printf("%-14s <failed: %s>\n", k.name,
                    (!off.ok ? off.error : on.error).c_str());
        continue;
      }
      double ratio =
          static_cast<double>(on.best_ns) / static_cast<double>(off.best_ns);
      std::printf("%-14s %10.2fms %10.2fms %8.3fx\n", k.name,
                  bench::Ms(off.best_ns), bench::Ms(on.best_ns), ratio);
      tlog_sum += std::log(ratio);
      ++tcounted;
    }
    if (tcounted > 0) {
      std::printf("geomean profile-on/off ratio: %.3fx over %d kernels "
                  "(target: <= 1.02x)\n",
                  std::exp(tlog_sum / tcounted), tcounted);
    }
  }

  if (!json_path.empty()) {
    // One run record; append it to the BENCH_interp.json trajectory array.
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"interp_dispatch\",\n";
    out << "  \"threaded_available\": "
        << (wasm::ThreadedDispatchAvailable() ? "true" : "false") << ",\n";
    out << "  \"jit_available\": "
        << (wasm::JitAvailable() ? "true" : "false") << ",\n";
    out << "  \"baseline\": \"switch dispatch over the unfused stream\",\n";
    out << "  \"kernels\": [\n";
    bool first = true;
    for (const Row& r : rows) {
      if (!r.base.ok || !r.swf.ok || !r.th.ok || !r.jit.ok) continue;
      if (!first) out << ",\n";
      first = false;
      out << "    {\"name\": \"" << r.name << "\", \"switch_ns\": " << r.base.best_ns
          << ", \"switch_fused_ns\": " << r.swf.best_ns
          << ", \"threaded_ns\": " << r.th.best_ns
          << ", \"jit_ns\": " << r.jit.best_ns << ", \"instrs\": " << r.th.instrs
          << ", \"speedup\": " << r.speedup
          << ", \"speedup_vs_fused\": " << r.fused_speedup
          << ", \"jit_speedup\": " << r.jit_speedup
          << ", \"jit_vs_threaded\": " << r.jit_vs_threaded << "}";
    }
    out << "\n  ],\n  \"geomean_speedup\": " << geomean
        << ",\n  \"fib_speedup\": " << fib_speedup
        << ",\n  \"jit_geomean_vs_threaded\": " << jit_geomean
        << ",\n  \"collatz_jit_vs_threaded\": " << collatz_jit
        << ",\n  \"fib_jit_vs_threaded\": " << fib_jit << "\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (failed) return 1;
  // The perf bars only bind when the threaded loop is actually in the build
  // (a switch-only build measures fusion alone) and the run is a full
  // measurement — `--quick` is the CI smoke gate, where shared-runner
  // timing noise must not fail the build (mismatches above still exit 1).
  if (!quick && wasm::ThreadedDispatchAvailable() &&
      (geomean < 1.9 || fib_speedup < 1.6)) {
    return 3;
  }
  // JIT-tier bars: geomean over the threaded interpreter across the
  // compute kernels, with the branch-dense collatz kernel and the
  // call-dense fib kernel (native wasm->wasm calls) called out. Advisory
  // under --quick and vacuous when the tier is compiled out (the jit column
  // then just re-measures the interpreter, which the mismatch check above
  // still validates).
  if (!quick && wasm::JitAvailable() &&
      (jit_geomean < 1.5 || collatz_jit < 1.3 || fib_jit < 1.5)) {
    return 3;
  }
  return 0;
}
