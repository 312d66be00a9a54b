// Differential tests for the baseline template-JIT tier: threaded dispatch
// with the JIT enabled (immediate and mid-run tier-up) must be bit-identical
// to the switch-loop oracle and to the JIT-off threaded loop — same result
// values, same trap kinds at the same points, same executed_instrs across
// dense fuel sweeps that land INSIDE compiled segments, same
// suspension/resume behavior. On builds where the tier is compiled out
// (JitAvailable() == false) every configuration still runs and must still
// agree; the tier-engagement assertions are gated.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/wasm/prepare.h"
#include "src/wasm/wasm.h"
#include "tests/wat_test_util.h"

namespace {

using wasm::DispatchMode;
using wasm::ExecOptions;
using wasm::JitTier;
using wasm::RunResult;
using wasm::SafepointScheme;
using wasm::TrapKind;
using wasm::Value;

struct JitCase {
  std::string label;
  DispatchMode dispatch = DispatchMode::kThreaded;
  JitTier jit = JitTier::kOff;
  uint32_t threshold = 0;
};

// The comparison matrix: the switch oracle, the JIT-off threaded loop, the
// JIT entered immediately (threshold 0 tiers up at the first OSR seam), and
// the JIT entered mid-run (a warm threshold, so early iterations/calls are
// interpreted and compiled code takes over at a loop back-edge or call).
std::vector<JitCase> Matrix() {
  return {
      {"switch", DispatchMode::kSwitch, JitTier::kOff, 0},
      {"threaded", DispatchMode::kThreaded, JitTier::kOff, 0},
      {"jit0", DispatchMode::kThreaded, JitTier::kOn, 0},
      {"jit-warm", DispatchMode::kThreaded, JitTier::kOn, 13},
  };
}

struct CaseRun {
  std::string label;
  RunResult result;
  uint64_t mem_pages = 0;
  uint64_t tierups = 0;
  uint64_t compiles = 0;
  uint64_t osr_exits = 0;
  // Per local function, after the run: tier state and blacklist flag (tier
  // built in), and frame-entry profile counters (entries, fuel).
  std::vector<uint32_t> tier_state;
  std::vector<bool> blacklisted;
  std::vector<std::pair<uint64_t, uint64_t>> profile;
};

// Per-instance hook run before the call (e.g. installing a safepoint fn).
using InstanceSetup = std::function<void(wasm::Instance&)>;

CaseRun RunCase(const std::string& wat, const JitCase& jc,
                const std::string& func, const std::vector<Value>& args,
                ExecOptions base = {}, bool fuse = true,
                const InstanceSetup& setup = {}) {
  CaseRun out;
  out.label = jc.label + (fuse ? "" : "+unfused");
  wasm_test::WatFixture fx = wasm_test::Instantiate(wat);
  if (fx.instance == nullptr) {
    out.result.trap = TrapKind::kHostError;
    return out;
  }
  if (!fuse) {
    wasm::PrepareOptions popts;
    popts.fuse = false;
    wasm::PrepareModule(*fx.module, popts);
  }
  if (setup) setup(*fx.instance);
  ExecOptions opts = base;
  opts.dispatch = jc.dispatch;
  opts.jit = jc.jit;
  opts.jit_threshold = jc.threshold;
  out.result = fx.instance->CallExport(func, args, opts);
  auto mem = fx.instance->memory(0);
  if (mem != nullptr) {
    out.mem_pages = mem->size_pages();
  }
  const size_t nfuncs = fx.module->functions.size();
  if (fx.module->jit != nullptr) {
    out.tierups = fx.module->jit->tierups.load();
    out.compiles = fx.module->jit->compiles.load();
    out.osr_exits = fx.module->jit->osr_exits.load();
    for (size_t i = 0; i < nfuncs; ++i) {
      out.tier_state.push_back(fx.module->jit->slots[i].state.load());
      out.blacklisted.push_back(fx.module->jit->slots[i].Blacklisted());
    }
  }
  if (fx.module->func_profile != nullptr) {
    for (size_t i = 0; i < nfuncs; ++i) {
      out.profile.emplace_back(fx.module->func_profile[i].entries.load(),
                               fx.module->func_profile[i].fuel.load());
    }
  }
  return out;
}

// Runs the whole matrix (each case in a fresh instance AND fresh module, so
// heat/code never leak between cases) and checks bit-identical agreement.
// Returns the runs for extra per-test assertions.
std::vector<CaseRun> ExpectMatrixAgrees(const std::string& wat,
                                        const std::string& func,
                                        const std::vector<Value>& args,
                                        ExecOptions base = {},
                                        const InstanceSetup& setup = {}) {
  std::vector<CaseRun> runs;
  for (bool fuse : {true, false}) {
    for (const JitCase& jc : Matrix()) {
      runs.push_back(RunCase(wat, jc, func, args, base, fuse, setup));
    }
  }
  const CaseRun& ref = runs.front();
  for (const CaseRun& r : runs) {
    EXPECT_EQ(r.result.trap, ref.result.trap) << r.label;
    EXPECT_EQ(r.result.executed_instrs, ref.result.executed_instrs) << r.label;
    EXPECT_EQ(r.result.values.size(), ref.result.values.size()) << r.label;
    if (r.result.values.size() != ref.result.values.size()) continue;
    for (size_t i = 0; i < r.result.values.size(); ++i) {
      EXPECT_EQ(r.result.values[i].bits, ref.result.values[i].bits)
          << r.label << " value " << i;
    }
    EXPECT_EQ(r.mem_pages, ref.mem_pages) << r.label;
  }
  return runs;
}

// When the tier is built in, the jit0 case of a hot program must actually
// have compiled and entered — otherwise this whole file would vacuously
// pass on a tier that never engages.
void ExpectTierEngaged(const std::vector<CaseRun>& runs) {
  if (!wasm::JitAvailable()) return;
  bool engaged = false;
  for (const CaseRun& r : runs) {
    if (r.label.rfind("jit", 0) == 0 && r.compiles > 0 && r.tierups > 0) {
      engaged = true;
    }
  }
  EXPECT_TRUE(engaged) << "JIT never tiered up on a hot workload";
}

// When the tier is built in, local function `f` (module order) ended every
// JIT run blacklisted.
void ExpectBlacklistedUnderJit(const std::vector<CaseRun>& runs, size_t f) {
  if (!wasm::JitAvailable()) return;
  for (const CaseRun& r : runs) {
    if (r.label.rfind("jit", 0) != 0) continue;
    ASSERT_GT(r.blacklisted.size(), f) << r.label;
    EXPECT_TRUE(r.blacklisted[f]) << r.label;
  }
}

// ---------------------------------------------------------------- programs

// Branch-dense integer compute: shifts/rotates, clz, i32<->i64 width
// changes, xorshift mixing. Exercises most ALU stencils in one hot loop.
const char* kCompute = R"((module
  (func (export "f") (param $n i32) (result i64)
    (local $i i32) (local $a i64) (local $b i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $b (i32.xor (local.get $b) (i32.rotl (local.get $i) (i32.const 5))))
      (local.set $b (i32.add (local.get $b) (i32.clz (local.get $i))))
      (local.set $b (i32.sub (local.get $b) (i32.ctz (i32.or (local.get $i) (i32.const 16)))))
      (local.set $a (i64.add (local.get $a) (i64.extend_i32_u (local.get $b))))
      (local.set $a (i64.xor (local.get $a) (i64.shr_u (local.get $a) (i64.const 9))))
      (local.set $a (i64.mul (local.get $a) (i64.const 2654435761)))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $a)))
)";

// Call-dense recursion: tier-up heat comes from frame entries (including
// the threaded loop's direct-call fast path), and compiled frames call
// compiled frames natively.
const char* kFib = R"((module
  (func $fib (param $n i32) (result i32)
    (if (result i32) (i32.lt_u (local.get $n) (i32.const 2))
      (then (local.get $n))
      (else (i32.add (call $fib (i32.sub (local.get $n) (i32.const 1)))
                     (call $fib (i32.sub (local.get $n) (i32.const 2)))))))
  (func (export "f") (param $n i32) (result i32) (call $fib (local.get $n))))
)";

// Memory traffic at mixed widths, all in-bounds via masking.
const char* kMemory = R"((module
  (memory 1)
  (func (export "f") (param $n i32) (result i32)
    (local $i i32) (local $h i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (i32.store (i32.and (i32.mul (local.get $i) (i32.const 4)) (i32.const 65532))
                 (i32.add (local.get $i) (local.get $h)))
      (local.set $h (i32.xor (local.get $h)
          (i32.load (i32.and (i32.mul (local.get $h) (i32.const 4)) (i32.const 65532)))))
      (i32.store8 (i32.add (i32.const 4096) (i32.and (local.get $i) (i32.const 255)))
                  (local.get $h))
      (local.set $h (i32.add (local.get $h)
          (i32.load8_u (i32.add (i32.const 4096) (i32.and (local.get $h) (i32.const 255))))))
      (local.set $h (i32.add (local.get $h)
          (i32.load16_s (i32.and (local.get $h) (i32.const 65534)))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (i32.add (local.get $h) (i32.load (i32.const 0)))))
)";

// br_table in a hot loop: the compiled jump table must land on the same
// targets (including the clamped default) as the interpreter's.
const char* kBrTable = R"((module
  (func (export "f") (param $n i32) (result i32)
    (local $i i32) (local $acc i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (block $out
        (block $b2
          (block $b1
            (block $b0
              (br_table $b0 $b1 $b2 (i32.and (local.get $i) (i32.const 3))))
            (local.set $acc (i32.add (local.get $acc) (i32.const 7)))
            (br $out))
          (local.set $acc (i32.mul (local.get $acc) (i32.const 3)))
          (br $out))
        (local.set $acc (i32.xor (local.get $acc) (local.get $i))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $acc)))
)";

// Mutable globals updated every iteration.
const char* kGlobals = R"((module
  (global $g (mut i32) (i32.const 1))
  (global $h (mut i64) (i64.const 7))
  (func (export "f") (param $n i32) (result i64)
    (local $i i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (global.set $g (i32.add (global.get $g) (i32.const 3)))
      (global.set $h (i64.add (global.get $h) (i64.extend_i32_u (global.get $g))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (i64.add (global.get $h) (i64.extend_i32_u (global.get $g)))))
)";

// Divides by (m - i): traps kDivByZero at iteration i == m, INSIDE the
// compiled loop, long after tier-up. Also signed-overflow and rem cases.
const char* kDivTrap = R"((module
  (func (export "f") (param $n i32) (param $m i32) (result i32)
    (local $i i32) (local $acc i32)
    (local.set $acc (i32.const 1234567))
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $acc (i32.add (local.get $acc)
          (i32.div_u (local.get $acc) (i32.sub (local.get $m) (local.get $i)))))
      (local.set $acc (i32.add (local.get $acc)
          (i32.rem_s (local.get $acc) (i32.sub (local.get $m) (local.get $i)))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $acc))
  (func (export "overflow") (param $n i32) (result i32)
    (local $i i32) (local $acc i32)
    (local.set $acc (i32.const 1))
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $acc (i32.div_s (i32.const -2147483648)
          (i32.sub (i32.const 30) (i32.sub (local.get $n) (local.get $i)))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $acc)))
)";

// Walks loads up the address space: traps kMemOob mid-loop when i*8 + 8
// crosses the single page.
const char* kOob = R"((module
  (memory 1)
  (func (export "f") (param $n i32) (result i64)
    (local $i i32) (local $a i64)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $a (i64.add (local.get $a) (i64.load (i32.mul (local.get $i) (i32.const 8)))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $a)))
)";

// Indirect dispatch in a hot loop, plus an OOB index past the end.
const char* kIndirect = R"((module
  (type $op (func (param i32) (result i32)))
  (table 3 funcref)
  (func $a (type $op) (i32.add (local.get 0) (i32.const 13)))
  (func $b (type $op) (i32.mul (local.get 0) (i32.const 3)))
  (func $c (type $op) (i32.xor (local.get 0) (i32.const 255)))
  (elem (i32.const 0) $a $b $c)
  (func (export "f") (param $n i32) (result i32)
    (local $i i32) (local $acc i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $acc (call_indirect (type $op)
          (local.get $acc)
          (i32.rem_u (local.get $i) (i32.const 3))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $acc))
  (func (export "oob") (param $n i32) (result i32)
    (local $i i32) (local $acc i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $acc (call_indirect (type $op)
          (local.get $acc)
          (i32.rem_u (local.get $i) (i32.const 4))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $acc)))
)";

// A hot loop whose body deopts every iteration (f64 ops have no stencils):
// exercises the deopt/reenter seam and, eventually, the deopt blacklist —
// results must stay exact throughout.
const char* kFpDeopt = R"((module
  (func (export "f") (param $n i32) (result i64)
    (local $i i32) (local $x f64) (local $a i64)
    (local.set $x (f64.const 1.5))
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $x (f64.add (local.get $x) (f64.const 0.25)))
      (local.set $a (i64.add (local.get $a) (i64.reinterpret_f64 (local.get $x))))
      (local.set $a (i64.rotl (local.get $a) (i64.const 7)))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $a)))
)";

// ------------------------------------------------------------------- tests

TEST(WasmJit, AvailabilityIsConsistent) {
  // kAuto/kOn never change observable behavior even when unavailable.
  for (JitTier t : {JitTier::kAuto, JitTier::kOn, JitTier::kOff}) {
    ExecOptions opts;
    opts.jit = t;
    opts.jit_threshold = 0;
    RunResult r = wasm_test::RunWat(kCompute, "f", {Value::I32(100)}, opts);
    EXPECT_EQ(r.trap, TrapKind::kNone) << wasm::JitTierName(t);
  }
}

TEST(WasmJit, ComputeLoopParity) {
  auto runs = ExpectMatrixAgrees(kCompute, "f", {Value::I32(20000)});
  ExpectTierEngaged(runs);
}

TEST(WasmJit, RecursionParity) {
  auto runs = ExpectMatrixAgrees(kFib, "f", {Value::I32(18)});
  ExpectTierEngaged(runs);
}

TEST(WasmJit, MemoryParity) {
  auto runs = ExpectMatrixAgrees(kMemory, "f", {Value::I32(4000)});
  ExpectTierEngaged(runs);
}

TEST(WasmJit, BrTableParity) {
  auto runs = ExpectMatrixAgrees(kBrTable, "f", {Value::I32(4000)});
  ExpectTierEngaged(runs);
}

TEST(WasmJit, GlobalsParity) {
  auto runs = ExpectMatrixAgrees(kGlobals, "f", {Value::I32(4000)});
  ExpectTierEngaged(runs);
}

TEST(WasmJit, IndirectCallParity) {
  auto runs = ExpectMatrixAgrees(kIndirect, "f", {Value::I32(3000)});
  ExpectTierEngaged(runs);
}

TEST(WasmJit, DivTrapInsideCompiledLoop) {
  // Trap fires at iteration 500 of a loop compiled long before: kind,
  // executed count, and the partial state must match the oracle.
  auto runs =
      ExpectMatrixAgrees(kDivTrap, "f", {Value::I32(1000), Value::I32(500)});
  EXPECT_EQ(runs.front().result.trap, TrapKind::kDivByZero);
  ExpectTierEngaged(runs);
  // Signed INT_MIN / -1 overflow, also mid-loop.
  auto ov = ExpectMatrixAgrees(kDivTrap, "overflow", {Value::I32(40)});
  EXPECT_EQ(ov.front().result.trap, TrapKind::kIntOverflow);
}

TEST(WasmJit, OobTrapInsideCompiledLoop) {
  auto runs = ExpectMatrixAgrees(kOob, "f", {Value::I32(10000)});
  EXPECT_EQ(runs.front().result.trap, TrapKind::kMemOutOfBounds);
  ExpectTierEngaged(runs);
}

TEST(WasmJit, IndirectOobTrapParity) {
  auto runs = ExpectMatrixAgrees(kIndirect, "oob", {Value::I32(100)});
  EXPECT_EQ(runs.front().result.trap, TrapKind::kIndirectOob);
}

TEST(WasmJit, FpDeoptLoopParity) {
  // Every iteration deopts at the f64 ops after a handful of compiled
  // instructions, so the amortized blacklist evicts the function once it
  // has deopted 1024 times. Exactness must hold the whole way.
  auto runs = ExpectMatrixAgrees(kFpDeopt, "f", {Value::I32(3000)});
  if (wasm::JitAvailable()) {
    bool deopted = false;
    for (const CaseRun& r : runs) {
      if (r.osr_exits > 0) deopted = true;
    }
    EXPECT_TRUE(deopted) << "expected OSR deopt exits from the f64 loop";
  }
  ExpectBlacklistedUnderJit(runs, 0);
}

TEST(WasmJit, DeoptOncePerCallStaysCompiled) {
  // $g deopts once per call (memory.fill has no stencil) and then runs a
  // 2000-iteration compiled loop: its deopt count passes the blacklist
  // threshold, but its compiled stints run thousands of instructions per
  // deopt, so the amortized blacklist must keep it enterable.
  const char* wat = R"((module
    (memory 1)
    (func $g (export "g") (param $n i32) (result i32)
      (local $i i32) (local $acc i32)
      (memory.fill (i32.const 0) (local.get $n) (i32.const 64))
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (i32.const 2000)))
        (local.set $acc (i32.add (i32.mul (local.get $acc) (i32.const 31))
                                 (i32.load8_u (i32.and (local.get $i) (i32.const 63)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (local.get $acc))
    (func (export "f") (param $calls i32) (result i32)
      (local $k i32) (local $acc i32)
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $k) (local.get $calls)))
        (local.set $acc (i32.xor (local.get $acc) (call $g (local.get $k))))
        (local.set $k (i32.add (local.get $k) (i32.const 1)))
        (br $l)))
      (local.get $acc)))
  )";
  if (!wasm::JitAvailable()) GTEST_SKIP();
  wasm_test::WatFixture fx = wasm_test::Instantiate(wat);
  ASSERT_NE(fx.instance, nullptr);
  ExecOptions opts;
  opts.jit = JitTier::kOn;
  opts.jit_threshold = 0;
  RunResult r = fx.instance->CallExport("f", {Value::I32(2000)}, opts);
  ASSERT_EQ(r.trap, TrapKind::kNone) << r.trap_message;
  const wasm::JitFuncSlot& g = fx.module->jit->slots[0];
  EXPECT_GE(g.deopts.load(), 2000u);
  EXPECT_FALSE(g.Blacklisted());
  // Still entered by the tier: one more call tiers up again.
  const uint64_t before = fx.module->jit->tierups.load();
  r = fx.instance->CallExport("g", {Value::I32(7)}, opts);
  ASSERT_EQ(r.trap, TrapKind::kNone) << r.trap_message;
  EXPECT_GT(fx.module->jit->tierups.load(), before);
}

TEST(WasmJit, FuelSweepAcrossCompiledSegments) {
  // The acceptance bar for fuel: for every limit, a fuel-exhausted run must
  // stop at executed == fuel + 1 with identical partial semantics, even
  // when the boundary lands INSIDE a segment that compiled code charged at
  // its gate. Sweep densely around segment sizes, coarsely elsewhere.
  ExecOptions probe;
  probe.dispatch = DispatchMode::kSwitch;
  RunResult full = wasm_test::RunWat(kCompute, "f", {Value::I32(64)}, probe);
  ASSERT_EQ(full.trap, TrapKind::kNone);
  const uint64_t total = full.executed_instrs;
  ASSERT_GT(total, 100u);
  for (uint64_t fuel = 1; fuel <= total + 1;
       fuel += (fuel < 40 || fuel + 40 > total) ? 1 : 7) {
    ExecOptions base;
    base.fuel = fuel;
    CaseRun oracle =
        RunCase(kCompute, Matrix()[0], "f", {Value::I32(64)}, base);
    CaseRun jit = RunCase(kCompute, Matrix()[2], "f", {Value::I32(64)}, base);
    ASSERT_EQ(jit.result.trap, oracle.result.trap) << "fuel=" << fuel;
    ASSERT_EQ(jit.result.executed_instrs, oracle.result.executed_instrs)
        << "fuel=" << fuel;
    if (oracle.result.trap == TrapKind::kFuelExhausted) {
      ASSERT_EQ(oracle.result.executed_instrs, fuel + 1) << "fuel=" << fuel;
    } else {
      ASSERT_EQ(jit.result.values[0].bits, oracle.result.values[0].bits);
    }
  }
}

TEST(WasmJit, FuelSweepAcrossNativeCalls) {
  // Same sweep over call-dense recursion: boundaries land on frame pushes,
  // returns, and the call instruction itself.
  ExecOptions probe;
  probe.dispatch = DispatchMode::kSwitch;
  RunResult full = wasm_test::RunWat(kFib, "f", {Value::I32(10)}, probe);
  ASSERT_EQ(full.trap, TrapKind::kNone);
  const uint64_t total = full.executed_instrs;
  for (uint64_t fuel = 1; fuel <= total + 1; ++fuel) {
    ExecOptions base;
    base.fuel = fuel;
    CaseRun oracle = RunCase(kFib, Matrix()[0], "f", {Value::I32(10)}, base);
    CaseRun jit = RunCase(kFib, Matrix()[2], "f", {Value::I32(10)}, base);
    ASSERT_EQ(jit.result.trap, oracle.result.trap) << "fuel=" << fuel;
    ASSERT_EQ(jit.result.executed_instrs, oracle.result.executed_instrs)
        << "fuel=" << fuel;
  }
}

TEST(WasmJit, DeepRecursionStackExhaustedParity) {
  const char* wat = R"((module
    (func $down (param $n i32) (result i32)
      (i32.add (i32.const 1)
               (call $down (i32.add (local.get $n) (i32.const 1)))))
    (func (export "f") (result i32) (call $down (i32.const 0)))
  ))";
  auto runs = ExpectMatrixAgrees(wat, "f", {});
  EXPECT_EQ(runs.front().result.trap, TrapKind::kStackExhausted);
}

// ------------------------------------------------- native call chains
//
// Compiled code calls compiled code natively (guarded `call`, frames built
// by emitted code) and falls back to the dispatcher's slow path whenever a
// guard fails. These hold every boundary of that protocol to the oracle.

// f -> b -> c: a three-deep chain where c owns a loop (loop-header polls
// and fuel gates inside a natively called callee at native depth 2).
const char* kChain = R"((module
  (func $c (param $x i32) (result i32)
    (local $i i32) (local $acc i32)
    (local.set $acc (local.get $x))
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (i32.const 4)))
      (local.set $acc (i32.add (i32.mul (local.get $acc) (i32.const 31))
                               (local.get $i)))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $acc))
  (func $b (param $x i32) (result i32)
    (i32.xor (call $c (local.get $x))
             (call $c (i32.add (local.get $x) (i32.const 7)))))
  (func (export "f") (param $n i32) (result i32)
    (local $i i32) (local $acc i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $acc (i32.add (local.get $acc) (call $b (local.get $i))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $acc)))
)";

// Unbounded recursion with locals: exhausts max_frames or max_value_stack,
// whichever the test configures lower.
const char* kDown = R"((module
  (func $down (param $n i32) (result i32)
    (local $a i64) (local $b i64) (local $c i32) (local $d i32)
    (local.set $c (i32.add (local.get $n) (i32.const 1)))
    (i32.add (local.get $c) (call $down (local.get $c))))
  (func (export "f") (result i32) (call $down (i32.const 0))))
)";

TEST(WasmJit, NativeChainStackExhaustedAtMaxFrames) {
  // 64 equals the initial frame-stack capacity; 100 lies past a capacity
  // doubling, so only the max_frames term of the native frame guard
  // stops the chain there.
  for (uint32_t max_frames : {64u, 100u}) {
    ExecOptions base;
    base.max_frames = max_frames;
    auto runs = ExpectMatrixAgrees(kDown, "f", {}, base);
    EXPECT_EQ(runs.front().result.trap, TrapKind::kStackExhausted)
        << "max_frames=" << max_frames;
    ExpectTierEngaged(runs);
  }
}

TEST(WasmJit, NativeChainStackExhaustedAtValueStackLimit) {
  // The value-stack limit is reached long before max_frames: the native
  // stack guard (region resident within max_value_stack) must hand the
  // last call to the slow path at exactly the oracle's boundary.
  for (uint64_t limit : {300u, 2048u, 2049u, 5000u}) {
    ExecOptions base;
    base.max_value_stack = limit;
    auto runs = ExpectMatrixAgrees(kDown, "f", {}, base);
    EXPECT_EQ(runs.front().result.trap, TrapKind::kStackExhausted)
        << "limit=" << limit;
  }
}

TEST(WasmJit, RecursionDeeperThanNativeNestingCap) {
  // 3000 frames: deeper than the per-stint native nesting cap (1024), so
  // calls fall to the slow path mid-chain (a fresh stint at native depth
  // 0) and returns cross native depth 0 back through the dispatcher.
  const char* wat = R"((module
    (func $sum (param $n i32) (result i64)
      (if (result i64) (i32.eqz (local.get $n))
        (then (i64.const 0))
        (else (i64.add (i64.extend_i32_u (local.get $n))
                       (call $sum (i32.sub (local.get $n) (i32.const 1)))))))
    (func (export "f") (param $n i32) (result i64) (call $sum (local.get $n))))
  )";
  auto runs = ExpectMatrixAgrees(wat, "f", {Value::I32(3000)});
  ASSERT_EQ(runs.front().result.trap, TrapKind::kNone);
  EXPECT_EQ(runs.front().result.values[0].bits, 3000u * 3001u / 2);
  ExpectTierEngaged(runs);
}

TEST(WasmJit, FuelSweepAcrossNativeChain) {
  // Every fuel limit over a f -> b -> c chain: the fuel-gate exit fires
  // inside natively called frames (native depth up to 2), and the dispatcher
  // must hand the innermost frame to the interpreter at the exact point.
  ExecOptions probe;
  probe.dispatch = DispatchMode::kSwitch;
  RunResult full = wasm_test::RunWat(kChain, "f", {Value::I32(6)}, probe);
  ASSERT_EQ(full.trap, TrapKind::kNone);
  const uint64_t total = full.executed_instrs;
  ASSERT_GT(total, 200u);
  for (uint64_t fuel = 1; fuel <= total + 1; ++fuel) {
    ExecOptions base;
    base.fuel = fuel;
    CaseRun oracle = RunCase(kChain, Matrix()[0], "f", {Value::I32(6)}, base);
    for (const JitCase& jc : {Matrix()[2], Matrix()[3]}) {
      CaseRun jit = RunCase(kChain, jc, "f", {Value::I32(6)}, base);
      ASSERT_EQ(jit.result.trap, oracle.result.trap)
          << jc.label << " fuel=" << fuel;
      ASSERT_EQ(jit.result.executed_instrs, oracle.result.executed_instrs)
          << jc.label << " fuel=" << fuel;
    }
  }
}

TEST(WasmJit, PollTrapInsideNativeCallee) {
  // The safepoint callback traps on its Nth poll; most polls happen at
  // c's loop header, i.e. inside a natively called callee two frames deep.
  for (int nth : {1, 2, 3, 5, 8, 13, 40, 77, 150, 301}) {
    InstanceSetup trap_on_nth = [nth](wasm::Instance& inst) {
      inst.set_safepoint_fn([nth, polls = 0](wasm::ExecContext&) mutable {
        return ++polls >= nth ? TrapKind::kBudgetExhausted : TrapKind::kNone;
      });
    };
    auto runs = ExpectMatrixAgrees(kChain, "f", {Value::I32(60)}, {},
                                   trap_on_nth);
    EXPECT_EQ(runs.front().result.trap, TrapKind::kBudgetExhausted)
        << "nth=" << nth;
  }
}

TEST(WasmJit, ColdCalleeMidChain) {
  // f is hot from its own spin loop, c from its calls and loop, b (called
  // ten times, no loop) stays below the threshold: compiled f calls cold b
  // through the slow path, and interpreted b calls compiled c.
  const char* wat = R"((module
    (func $c (param $x i32) (result i32)
      (local $i i32) (local $acc i32)
      (local.set $acc (local.get $x))
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (i32.const 10)))
        (local.set $acc (i32.add (i32.mul (local.get $acc) (i32.const 31))
                                 (local.get $i)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (local.get $acc))
    (func $b (param $x i32) (result i32)
      (i32.add (call $c (local.get $x))
               (i32.add (call $c (i32.add (local.get $x) (i32.const 1)))
                        (call $c (i32.add (local.get $x) (i32.const 2))))))
    (func (export "f") (param $n i32) (result i32)
      (local $i i32) (local $j i32) (local $acc i32)
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $j (i32.const 0))
        (block $sd (loop $s
          (br_if $sd (i32.ge_u (local.get $j) (i32.const 20)))
          (local.set $acc (i32.add (local.get $acc) (local.get $j)))
          (local.set $j (i32.add (local.get $j) (i32.const 1)))
          (br $s)))
        (local.set $acc (i32.add (local.get $acc) (call $b (local.get $i))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (local.get $acc)))
  )";
  ExpectMatrixAgrees(wat, "f", {Value::I32(10)});
  CaseRun oracle = RunCase(wat, Matrix()[0], "f", {Value::I32(10)});
  CaseRun jit = RunCase(wat, {"jit50", DispatchMode::kThreaded, JitTier::kOn, 50},
                        "f", {Value::I32(10)});
  EXPECT_EQ(jit.result.trap, oracle.result.trap);
  EXPECT_EQ(jit.result.executed_instrs, oracle.result.executed_instrs);
  ASSERT_EQ(jit.result.values.size(), 1u);
  EXPECT_EQ(jit.result.values[0].bits, oracle.result.values[0].bits);
  if (wasm::JitAvailable()) {
    ASSERT_EQ(jit.tier_state.size(), 3u);
    EXPECT_EQ(jit.tier_state[0], wasm::JitFuncSlot::kCompiled);  // c
    EXPECT_EQ(jit.tier_state[1], wasm::JitFuncSlot::kCold);      // b
    EXPECT_EQ(jit.tier_state[2], wasm::JitFuncSlot::kCompiled);  // f
  }
}

TEST(WasmJit, BlacklistedCalleeMidChain) {
  // b deopts on every call at its f64 conversion, so it ends up
  // blacklisted: compiled f's native calls to b then take the slow path,
  // and interpreted b still reaches compiled c.
  const char* wat = R"((module
    (func $c (param $x i64) (result i64)
      (i64.add (i64.mul (local.get $x) (i64.const 6364136223846793005))
               (i64.const 1442695040888963407)))
    (func $b (param $x i64) (result i64)
      (local $y f64)
      (local.set $y (f64.add (f64.convert_i64_u (local.get $x)) (f64.const 0.5)))
      (call $c (i64.xor (local.get $x) (i64.reinterpret_f64 (local.get $y)))))
    (func (export "f") (param $n i32) (result i64)
      (local $i i32) (local $acc i64)
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $acc (call $b (i64.add (local.get $acc)
                                          (i64.extend_i32_u (local.get $i)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (local.get $acc)))
  )";
  auto runs = ExpectMatrixAgrees(wat, "f", {Value::I32(3000)});
  ExpectTierEngaged(runs);
  ExpectBlacklistedUnderJit(runs, 1);
  if (wasm::JitAvailable()) {
    for (const CaseRun& r : runs) {
      if (r.label.rfind("jit", 0) != 0) continue;
      EXPECT_FALSE(r.blacklisted[0]) << r.label;  // c
      EXPECT_FALSE(r.blacklisted[2]) << r.label;  // f
    }
  }
}

TEST(WasmJit, ProfileParityUnderNativeCalls) {
  // Frame-entry profiling stays exact when frames are pushed by emitted
  // code: identical per-function entries and fuel with the tier off and on.
  const char* loop_calls = R"((module
    (func $sq (param $x i32) (result i32) (i32.mul (local.get $x) (local.get $x)))
    (func (export "f") (param $n i32) (result i32)
      (local $i i32) (local $acc i32)
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $acc (i32.add (local.get $acc) (call $sq (local.get $i))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (local.get $acc)))
  )";
  const std::pair<const char*, int32_t> programs[] = {{kFib, 18},
                                                      {loop_calls, 3000}};
  for (const auto& [wat, n] : programs) {
    ExecOptions base;
    base.profile = true;
    auto runs = ExpectMatrixAgrees(wat, "f", {Value::I32(n)}, base);
    const CaseRun* off = nullptr;
    for (const CaseRun& r : runs) {
      if (r.label == "threaded") off = &r;
    }
    ASSERT_NE(off, nullptr);
    for (const CaseRun& r : runs) {
      EXPECT_EQ(r.profile, off->profile) << r.label << " n=" << n;
      EXPECT_EQ(r.result.executed_instrs, off->result.executed_instrs)
          << r.label;
    }
  }
}

TEST(WasmJit, SafepointSchemesParity) {
  // kFunction polls at calls (the JIT's native call path must poll there
  // too); kLoop polls at back-edges (the compiled loop-header stencil).
  for (SafepointScheme scheme :
       {SafepointScheme::kLoop, SafepointScheme::kFunction}) {
    ExecOptions base;
    base.scheme = scheme;
    auto runs = ExpectMatrixAgrees(kFib, "f", {Value::I32(15)}, base);
    ExpectTierEngaged(runs);
  }
}

TEST(WasmJit, HostCallDeoptLoopParity) {
  // A host call inside a hot loop exits compiled code every iteration (the
  // call op deopts to the interpreter, which runs CallHost): results and
  // executed counts must stay exact, and the loop must not wedge.
  const char* wat = R"((module
    (import "env" "mix" (func $mix (param i64) (result i64)))
    (func (export "f") (param $n i32) (result i64)
      (local $i i32) (local $a i64)
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $a (i64.add (local.get $a)
            (call $mix (i64.extend_i32_u (local.get $i)))))
        (local.set $a (i64.xor (local.get $a) (i64.shl (local.get $a) (i64.const 5))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (local.get $a)))
  )";
  auto with_host = [&](wasm::Linker& linker) {
    wasm::FuncType type;
    type.params = {wasm::ValType::kI64};
    type.results = {wasm::ValType::kI64};
    linker.DefineHostFunc(
        "env", "mix", type,
        [](wasm::ExecContext&, const uint64_t* args, uint64_t* results) {
          results[0] = args[0] * 2654435761u + 99991u;
          return TrapKind::kNone;
        });
  };
  RunResult ref;
  for (const JitCase& jc : Matrix()) {
    wasm_test::WatFixture fx = wasm_test::Instantiate(wat, with_host);
    ASSERT_NE(fx.instance, nullptr);
    ExecOptions opts;
    opts.dispatch = jc.dispatch;
    opts.jit = jc.jit;
    opts.jit_threshold = jc.threshold;
    RunResult r = fx.instance->CallExport("f", {Value::I32(2000)}, opts);
    ASSERT_EQ(r.trap, TrapKind::kNone) << jc.label;
    // The loop deopts at the host call every iteration after a few compiled
    // instructions: the amortized blacklist must still evict it.
    if (wasm::JitAvailable() && jc.jit == JitTier::kOn) {
      EXPECT_TRUE(fx.module->jit->slots[0].Blacklisted()) << jc.label;
    }
    if (jc.label == "switch") {
      ref = r;
      continue;
    }
    EXPECT_EQ(r.values[0].bits, ref.values[0].bits) << jc.label;
    EXPECT_EQ(r.executed_instrs, ref.executed_instrs) << jc.label;
  }
}

TEST(WasmJit, SuspensionFromCompiledLoopParity) {
  // The host call parks (kSyscallPending) from a loop that tiered up: the
  // suspended-and-resumed run must be bit-identical to a blocking run with
  // the JIT off. This is the snapshot/park interop contract: a parked guest
  // never observes whether its caller was compiled.
  const char* wat = R"((module
    (import "env" "syscall" (func $sc (param i64) (result i64)))
    (func (export "f") (param $n i32) (result i64)
      (local $i i32) (local $a i64)
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $a (i64.add (local.get $a)
            (call $sc (i64.extend_i32_u (local.get $i)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (local.get $a)))
  )";
  auto scripted = [](int64_t arg) { return arg * 7 + 3; };

  // Blocking reference, JIT off, switch dispatch.
  auto blocking = wasm_test::Instantiate(wat, [&](wasm::Linker& linker) {
    wasm::FuncType type;
    type.params = {wasm::ValType::kI64};
    type.results = {wasm::ValType::kI64};
    linker.DefineHostFunc(
        "env", "syscall", type,
        [scripted](wasm::ExecContext&, const uint64_t* args,
                   uint64_t* results) {
          results[0] = static_cast<uint64_t>(
              scripted(static_cast<int64_t>(args[0])));
          return TrapKind::kNone;
        });
  });
  ASSERT_NE(blocking.instance, nullptr);
  ExecOptions ref_opts;
  ref_opts.dispatch = DispatchMode::kSwitch;
  ref_opts.jit = JitTier::kOff;
  RunResult want =
      blocking.instance->CallExport("f", {Value::I32(40)}, ref_opts);
  ASSERT_EQ(want.trap, TrapKind::kNone);

  // Suspending run, JIT on with threshold 4: the loop tiers up after a few
  // parks, so later parks unwind from a compiled caller.
  std::vector<int64_t> parked;
  auto suspending = wasm_test::Instantiate(wat, [&](wasm::Linker& linker) {
    wasm::FuncType type;
    type.params = {wasm::ValType::kI64};
    type.results = {wasm::ValType::kI64};
    linker.DefineHostFunc(
        "env", "syscall", type,
        [&parked](wasm::ExecContext& ctx, const uint64_t* args, uint64_t*) {
          parked.push_back(static_cast<int64_t>(args[0]));
          ctx.SetTrap(TrapKind::kSyscallPending, "parked");
          return ctx.trap;
        });
  });
  ASSERT_NE(suspending.instance, nullptr);
  wasm::Suspension susp;
  ExecOptions opts;
  opts.dispatch = DispatchMode::kThreaded;
  opts.jit = JitTier::kOn;
  opts.jit_threshold = 4;
  opts.suspend_to = &susp;
  RunResult got = suspending.instance->CallExport("f", {Value::I32(40)}, opts);
  int parks = 0;
  while (got.trap == TrapKind::kSyscallPending) {
    ASSERT_TRUE(susp.armed());
    ++parks;
    uint64_t bits = static_cast<uint64_t>(scripted(parked.back()));
    got = wasm::ResumeInvoke(susp, &bits, 1);
  }
  EXPECT_EQ(parks, 40);
  ASSERT_EQ(got.trap, TrapKind::kNone) << got.trap_message;
  EXPECT_EQ(got.values[0].bits, want.values[0].bits);
  EXPECT_EQ(got.executed_instrs, want.executed_instrs);
}

TEST(WasmJit, JitOffNeverTiersUp) {
  CaseRun r = RunCase(kCompute, Matrix()[1], "f", {Value::I32(20000)});
  EXPECT_EQ(r.tierups, 0u);
  EXPECT_EQ(r.compiles, 0u);
}

TEST(WasmJit, TierStateSurvivesConcurrentHammering) {
  // Same module, many fresh instances run sequentially: exactly one compile
  // per function (the CAS latch), shared by all runs.
  if (!wasm::JitAvailable()) GTEST_SKIP();
  auto parsed = wasm::ParseAndValidateWat(kCompute);
  ASSERT_TRUE(parsed.ok());
  uint64_t want_bits = 0;
  for (int i = 0; i < 8; ++i) {
    wasm::Linker linker;
    auto inst = linker.Instantiate(*parsed);
    ASSERT_TRUE(inst.ok());
    ExecOptions opts;
    opts.jit = JitTier::kOn;
    opts.jit_threshold = 0;
    RunResult r = (*inst)->CallExport("f", {Value::I32(5000)}, opts);
    ASSERT_EQ(r.trap, TrapKind::kNone);
    if (i == 0) {
      want_bits = r.values[0].bits;
    } else {
      EXPECT_EQ(r.values[0].bits, want_bits);
    }
  }
  ASSERT_NE((*parsed)->jit, nullptr);
  EXPECT_EQ((*parsed)->jit->compiles.load(), 1u);
  EXPECT_GE((*parsed)->jit->tierups.load(), 8u);
}

}  // namespace
