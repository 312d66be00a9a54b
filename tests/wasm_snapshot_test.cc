// Snapshot/restore differential tests (ROADMAP "serializable suspensions").
//
// The core property: for a run that parks at a host-call boundary,
//   park -> SnapshotSuspension -> fresh instance -> RestoreSuspension ->
//   ResumeInvoke
// must be BIT-IDENTICAL to the run that never parked — same trap kind, same
// result bits, same executed_instrs, same final memory and globals — across
// every dispatch mode x fusion level, and across fuel boundaries falling on
// either side of a park. The harness snapshots at EVERY park and restores
// into a completely fresh module+instance (fresh parse, fresh prepare), so
// nothing can leak through except the bytes of the snapshot itself.
//
// Also here: hostile-input decode tests (every truncation and every
// single-bit flip of a valid snapshot must return an error, never crash or
// over-read — run under ASan in CI), the golden format-stability pin
// (accidental layout drift without a kSnapshotVersion bump fails), and the
// process-level differential over the workload suite using the
// WaliProcess::park_after_syscalls scripted-park hook.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/wali/process_snapshot.h"
#include "src/wali/runtime.h"
#include "src/wasm/prepare.h"
#include "src/wasm/snapshot.h"
#include "src/wasm/wasm.h"
#include "src/workloads/workloads.h"
#include "tests/wali_test_util.h"
#include "tests/wat_test_util.h"

namespace {

using wasm::DispatchMode;
using wasm::ExecOptions;
using wasm::RunResult;
using wasm::SafepointScheme;
using wasm::TrapKind;
using wasm::Value;

// ---------------------------------------------------------------- kernels --
// Every kernel imports env.step (i64)->(i64); the blocking fixture answers
// step(x) = 3x+1 inline, the parking fixture unwinds with kSyscallPending
// and the harness materializes the same 3x+1 at resume. A loop kernel
// (stores, a mutable global, mid-run memory.grow), a recursion kernel (deep
// frame stacks at the park), and small fixtures for hostile/golden tests.

const char* kLoopKernelWat = R"((module
  (import "env" "step" (func $step (param i64) (result i64)))
  (memory 1 4)
  (global $g (mut i64) (i64.const 0))
  (data (i32.const 16) "snapshot loop kernel")
  (func $inner (param $x i64) (result i64)
    (i64.add (call $step (local.get $x)) (i64.const 7)))
  (func (export "run") (param $n i64) (result i64)
    (local $i i64) (local $acc i64)
    (block $done
      (loop $l
        (br_if $done (i64.ge_u (local.get $i) (local.get $n)))
        (local.set $acc (i64.add (local.get $acc) (call $inner (local.get $i))))
        (global.set $g (i64.add (global.get $g) (local.get $acc)))
        (i64.store (i32.const 64) (local.get $acc))
        (if (i64.eq (local.get $i) (i64.const 2))
          (then (drop (memory.grow (i32.const 1)))
                (i64.store (i32.const 70000) (global.get $g))))
        (local.set $i (i64.add (local.get $i) (i64.const 1)))
        (br $l)))
    (i64.add (local.get $acc) (global.get $g))))
)";

const char* kRecursionKernelWat = R"((module
  (import "env" "step" (func $step (param i64) (result i64)))
  (memory 1)
  (func $rec (param $d i64) (result i64)
    (if (result i64) (i64.eqz (local.get $d))
      (then (call $step (i64.const 77)))
      (else (i64.add (call $rec (i64.sub (local.get $d) (i64.const 1)))
                     (call $step (local.get $d))))))
  (func (export "run") (param $n i64) (result i64)
    (i64.store (i32.const 8) (call $rec (local.get $n)))
    (i64.load (i32.const 8))))
)";

// No linear memory at all: the snapshot is a few hundred bytes, so the
// hostile sweeps below can afford EVERY truncation length and EVERY
// single-bit flip.
const char* kTinyKernelWat = R"((module
  (import "env" "step" (func $step (param i64) (result i64)))
  (global $g (mut i64) (i64.const 1))
  (func $inner (param $x i64) (result i64)
    (i64.add (call $step (local.get $x)) (i64.const 7)))
  (func (export "run") (param $n i64) (result i64)
    (local $i i64) (local $acc i64)
    (block $done
      (loop $l
        (br_if $done (i64.ge_u (local.get $i) (local.get $n)))
        (local.set $acc (i64.add (local.get $acc) (call $inner (local.get $i))))
        (global.set $g (i64.add (global.get $g) (local.get $acc)))
        (local.set $i (i64.add (local.get $i) (i64.const 1)))
        (br $l)))
    (i64.add (local.get $acc) (global.get $g))))
)";

// Golden fixture: one deterministic park (single host call, fixed stores,
// fixed global mutation), serialized under scheme=kEveryInstr +
// dispatch=kSwitch (the wire-faithful decoded stream — stable against
// fusion-heuristic changes) with a FIXED fake module hash, so the bytes
// depend on nothing but the snapshot format itself.
const char* kGoldenKernelWat = R"((module
  (import "env" "step" (func $step (param i64) (result i64)))
  (memory 1 2)
  (global $g (mut i64) (i64.const 5))
  (data (i32.const 32) "golden")
  (func (export "run") (param $n i64) (result i64)
    (local $acc i64)
    (global.set $g (i64.add (global.get $g) (i64.const 2)))
    (i64.store (i32.const 64) (i64.const 0x0123456789abcdef))
    (local.set $acc (call $step (i64.const 9)))
    (i64.add (local.get $acc) (global.get $g))))
)";

constexpr uint64_t kGoldenFakeModuleHash = 0x1234567890abcdefULL;

uint64_t StepAnswer(uint64_t x) { return x * 3 + 1; }

// --------------------------------------------------------------- fixtures --

struct Fx {
  std::shared_ptr<wasm::Module> module;
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wasm::Instance> instance;
  // Args the parking step() saw, in order (the harness computes the answer
  // for the most recent one at resume).
  std::shared_ptr<std::vector<uint64_t>> parked_args =
      std::make_shared<std::vector<uint64_t>>();
  bool ok = false;
};

Fx MakeKernelFx(const std::string& wat, bool fuse, bool parking) {
  Fx fx;
  auto parsed = wasm::ParseAndValidateWat(wat);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return fx;
  fx.module = *parsed;
  wasm::PrepareOptions popts;
  popts.fuse = fuse;
  wasm::PrepareModule(*fx.module, popts);
  fx.linker = std::make_unique<wasm::Linker>();
  wasm::FuncType step_type;
  step_type.params = {wasm::ValType::kI64};
  step_type.results = {wasm::ValType::kI64};
  if (parking) {
    auto parked = fx.parked_args;
    fx.linker->DefineHostFunc(
        "env", "step", step_type,
        [parked](wasm::ExecContext& ctx, const uint64_t* args,
                 uint64_t*) -> TrapKind {
          parked->push_back(args[0]);
          ctx.SetTrap(TrapKind::kSyscallPending, "parked");
          return ctx.trap;
        });
  } else {
    fx.linker->DefineHostFunc(
        "env", "step", step_type,
        [](wasm::ExecContext&, const uint64_t* args,
           uint64_t* results) -> TrapKind {
          results[0] = StepAnswer(args[0]);
          return TrapKind::kNone;
        });
  }
  auto inst = fx.linker->Instantiate(fx.module);
  EXPECT_TRUE(inst.ok()) << inst.status().ToString();
  if (!inst.ok()) return fx;
  fx.instance = std::move(*inst);
  fx.ok = true;
  return fx;
}

struct RoundTripOutcome {
  RunResult result;
  int parks = 0;
  Fx final_fx;  // the instance that finished the run (memory/global checks)
  bool ok = false;
};

// The never-parked reference run.
RunResult RunBlocking(const std::string& wat, bool fuse, const ExecOptions& opts,
                      uint64_t n, Fx* out_fx = nullptr) {
  Fx fx = MakeKernelFx(wat, fuse, /*parking=*/false);
  RunResult r;
  if (!fx.ok) {
    r.trap = TrapKind::kHostError;
    return r;
  }
  r = fx.instance->CallExport("run", {Value::I64(n)}, opts);
  if (out_fx != nullptr) *out_fx = std::move(fx);
  return r;
}

// The differential arm: run with a parking step(); at EVERY park, snapshot
// the suspension, discard it, rebuild a completely fresh module+instance
// (fresh parse + prepare at the same fusion level), restore into it, and
// resume there with the host call's answer.
RoundTripOutcome RunWithSnapshotEveryPark(const std::string& wat, bool fuse,
                                          const ExecOptions& base, uint64_t n) {
  RoundTripOutcome out;
  std::vector<Fx> live;  // every generation stays alive until the run ends
  live.push_back(MakeKernelFx(wat, fuse, /*parking=*/true));
  if (!live.back().ok) return out;

  auto susp = std::make_unique<wasm::Suspension>();
  ExecOptions opts = base;
  opts.suspend_to = susp.get();
  RunResult r = live.back().instance->CallExport("run", {Value::I64(n)}, opts);

  while (r.trap == TrapKind::kSyscallPending) {
    ++out.parks;
    Fx& cur = live.back();
    if (cur.parked_args->empty()) {
      ADD_FAILURE() << "park without a recorded host-call arg";
      return out;
    }
    const uint64_t arg = cur.parked_args->back();
    const uint64_t hash = wasm::ModuleStructuralHash(*cur.module);

    auto bytes = wasm::SnapshotSuspension(*susp, cur.instance.get(), hash, {});
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    if (!bytes.ok()) return out;
    susp->Discard();

    Fx fresh = MakeKernelFx(wat, fuse, /*parking=*/true);
    if (!fresh.ok) return out;
    EXPECT_EQ(wasm::ModuleStructuralHash(*fresh.module), hash)
        << "same WAT + same prepare must hash identically";

    auto susp2 = std::make_unique<wasm::Suspension>();
    auto blob = wasm::RestoreSuspension(bytes->data(), bytes->size(),
                                        fresh.instance.get(), hash, base,
                                        /*buffers=*/nullptr, susp2.get());
    EXPECT_TRUE(blob.ok()) << blob.status().ToString();
    if (!blob.ok()) return out;
    EXPECT_TRUE(blob->empty()) << "kernel snapshots carry no host blob";
    // Every leg resumes in the mode it runs under, never the defaults.
    const ExecOptions& restored = susp2->ctx->opts;
    EXPECT_EQ(restored.dispatch, base.dispatch);
    EXPECT_EQ(restored.jit, base.jit);
    EXPECT_EQ(restored.jit_threshold, base.jit_threshold);
    EXPECT_EQ(wasm::ResolveDispatch(restored), wasm::ResolveDispatch(base));

    live.push_back(std::move(fresh));
    susp = std::move(susp2);
    const uint64_t bits = StepAnswer(arg);
    r = wasm::ResumeInvoke(*susp, &bits, 1);
  }

  out.result = std::move(r);
  out.final_fx = std::move(live.back());
  live.pop_back();
  out.ok = true;
  return out;
}

void ExpectBitIdentical(const RunResult& want, const RunResult& got,
                        const std::string& label) {
  EXPECT_EQ(want.trap, got.trap)
      << label << ": " << wasm::TrapKindName(want.trap) << " vs "
      << wasm::TrapKindName(got.trap) << " (" << got.trap_message << ")";
  EXPECT_EQ(want.executed_instrs, got.executed_instrs) << label;
  EXPECT_EQ(want.exit_code, got.exit_code) << label;
  ASSERT_EQ(want.values.size(), got.values.size()) << label;
  for (size_t i = 0; i < want.values.size(); ++i) {
    EXPECT_EQ(want.values[i].bits, got.values[i].bits)
        << label << " value " << i;
  }
}

void ExpectStateIdentical(Fx& want, Fx& got, const std::string& label) {
  ASSERT_TRUE(want.ok && got.ok) << label;
  const uint32_t num_globals = want.module->NumGlobals();
  for (uint32_t i = 0; i < num_globals; ++i) {
    EXPECT_EQ(want.instance->global(i).bits, got.instance->global(i).bits)
        << label << " global " << i;
  }
  auto wm = want.instance->memory(0);
  auto gm = got.instance->memory(0);
  ASSERT_EQ(wm == nullptr, gm == nullptr) << label;
  if (wm != nullptr) {
    ASSERT_EQ(wm->size_pages(), gm->size_pages()) << label;
    EXPECT_EQ(std::memcmp(wm->base(), gm->base(), wm->size_bytes()), 0)
        << label << ": final linear memory differs";
  }
}

std::string ModeLabel(bool fuse, DispatchMode d) {
  return std::string(fuse ? "fused" : "unfused") + "+" +
         (d == DispatchMode::kThreaded ? "threaded" : "switch");
}

// ------------------------------------------------- round-trip differential --

TEST(WasmSnapshot, RoundTripDifferentialLoopKernel) {
  for (bool fuse : {true, false}) {
    for (DispatchMode dispatch : {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
      const std::string label = ModeLabel(fuse, dispatch);
      ExecOptions opts;
      opts.scheme = SafepointScheme::kLoop;
      opts.dispatch = dispatch;
      Fx blocking_fx;
      RunResult want = RunBlocking(kLoopKernelWat, fuse, opts, 6, &blocking_fx);
      ASSERT_EQ(want.trap, TrapKind::kNone) << label << " " << want.trap_message;

      RoundTripOutcome got = RunWithSnapshotEveryPark(kLoopKernelWat, fuse, opts, 6);
      ASSERT_TRUE(got.ok) << label;
      EXPECT_EQ(got.parks, 6) << label << ": one park per loop iteration";
      ExpectBitIdentical(want, got.result, label);
      ExpectStateIdentical(blocking_fx, got.final_fx, label);
      // The mid-run memory.grow must have survived the round trip.
      EXPECT_EQ(got.final_fx.instance->memory(0)->size_pages(), 2u) << label;
    }
  }
}

TEST(WasmSnapshot, RoundTripDifferentialRecursionKernel) {
  for (bool fuse : {true, false}) {
    for (DispatchMode dispatch : {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
      const std::string label = ModeLabel(fuse, dispatch);
      ExecOptions opts;
      opts.scheme = SafepointScheme::kLoop;
      opts.dispatch = dispatch;
      Fx blocking_fx;
      RunResult want = RunBlocking(kRecursionKernelWat, fuse, opts, 5, &blocking_fx);
      ASSERT_EQ(want.trap, TrapKind::kNone) << label << " " << want.trap_message;

      RoundTripOutcome got =
          RunWithSnapshotEveryPark(kRecursionKernelWat, fuse, opts, 5);
      ASSERT_TRUE(got.ok) << label;
      // One step() per recursion level plus the base case: rec(5) parks 6
      // times, the deepest with 7 live frames (run + rec x6).
      EXPECT_EQ(got.parks, 6) << label;
      ExpectBitIdentical(want, got.result, label);
      ExpectStateIdentical(blocking_fx, got.final_fx, label);
    }
  }
}

TEST(WasmSnapshot, RoundTripDifferentialJitTier) {
  // The baseline-JIT axis: parks reached FROM COMPILED CODE (the host call
  // deopts to the interpreter, which parks; threshold 0 compiles at first
  // entry, threshold 2 tiers up between parks) must snapshot and restore
  // bit-identically to a JIT-off switch-loop run. Restore lands in a fresh
  // module whose tier state is cold — the resumed run re-tiers on its own.
  for (const char* wat : {kLoopKernelWat, kRecursionKernelWat}) {
    ExecOptions ref_opts;
    ref_opts.scheme = SafepointScheme::kLoop;
    ref_opts.dispatch = DispatchMode::kSwitch;
    ref_opts.jit = wasm::JitTier::kOff;
    Fx blocking_fx;
    RunResult want = RunBlocking(wat, true, ref_opts, 5, &blocking_fx);
    ASSERT_EQ(want.trap, TrapKind::kNone) << want.trap_message;

    for (uint32_t threshold : {0u, 2u}) {
      const std::string label =
          std::string(wat == kLoopKernelWat ? "loop" : "rec") +
          "+jit-threshold=" + std::to_string(threshold);
      ExecOptions opts;
      opts.scheme = SafepointScheme::kLoop;
      opts.dispatch = DispatchMode::kThreaded;
      opts.jit = wasm::JitTier::kOn;
      opts.jit_threshold = threshold;
      RoundTripOutcome got = RunWithSnapshotEveryPark(wat, true, opts, 5);
      ASSERT_TRUE(got.ok) << label;
      ExpectBitIdentical(want, got.result, label);
      ExpectStateIdentical(blocking_fx, got.final_fx, label);
    }
  }
}

TEST(WasmSnapshot, EveryInstrSchemeRoundTrip) {
  // kEveryInstr pins execution to the decoded stream + switch loop; frames
  // serialize with the prepared flag clear and must restore onto the same
  // stream.
  ExecOptions opts;
  opts.scheme = SafepointScheme::kEveryInstr;
  Fx blocking_fx;
  RunResult want = RunBlocking(kLoopKernelWat, true, opts, 5, &blocking_fx);
  ASSERT_EQ(want.trap, TrapKind::kNone) << want.trap_message;
  RoundTripOutcome got = RunWithSnapshotEveryPark(kLoopKernelWat, true, opts, 5);
  ASSERT_TRUE(got.ok);
  ExpectBitIdentical(want, got.result, "every-instr");
  ExpectStateIdentical(blocking_fx, got.final_fx, "every-instr");
}

TEST(WasmSnapshot, FuelBoundarySweep) {
  // Fuel exhaustion must land on exactly the same instruction — executed ==
  // fuel + 1 — whether or not the run was snapshot/restored at every park,
  // for boundaries before the first park, between parks, and after the
  // last. (The restored context carries the original fuel budget and the
  // executed count; the boundary falls wherever it would have.)
  ExecOptions base;
  base.scheme = SafepointScheme::kLoop;
  RunResult free_run = RunBlocking(kLoopKernelWat, true, base, 4);
  ASSERT_EQ(free_run.trap, TrapKind::kNone);
  const uint64_t f0 = free_run.executed_instrs;
  ASSERT_GT(f0, 40u);

  std::vector<uint64_t> fuels = {1, 2, 3, 7, f0 / 4, f0 / 2};
  for (uint64_t f = f0 - 20; f <= f0 + 2; ++f) fuels.push_back(f);

  for (bool fuse : {true, false}) {
    for (DispatchMode dispatch : {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
      for (uint64_t fuel : fuels) {
        const std::string label =
            ModeLabel(fuse, dispatch) + " fuel=" + std::to_string(fuel);
        ExecOptions opts = base;
        opts.dispatch = dispatch;
        opts.fuel = fuel;
        RunResult want = RunBlocking(kLoopKernelWat, fuse, opts, 4);
        RoundTripOutcome got =
            RunWithSnapshotEveryPark(kLoopKernelWat, fuse, opts, 4);
        ASSERT_TRUE(got.ok) << label;
        ExpectBitIdentical(want, got.result, label);
        if (fuel < f0) {
          EXPECT_EQ(got.result.trap, TrapKind::kFuelExhausted) << label;
          EXPECT_EQ(got.result.executed_instrs, fuel + 1) << label;
        } else {
          EXPECT_EQ(got.result.trap, TrapKind::kNone) << label;
        }
      }
    }
  }
}

TEST(WasmSnapshot, CrossDispatchRestore) {
  // A snapshot taken under one dispatch loop restores and resumes under the
  // other: at a host-call park the operand stack is in its canonical plain
  // spilled form (STACK_SYNC), identical in both loops, so dispatch mode is
  // a pure performance knob even across an evict/restore boundary.
  for (DispatchMode from : {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
    for (DispatchMode to : {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
      const std::string label =
          std::string("from=") + (from == DispatchMode::kThreaded ? "threaded" : "switch") +
          " to=" + (to == DispatchMode::kThreaded ? "threaded" : "switch");
      ExecOptions opts;
      opts.scheme = SafepointScheme::kLoop;
      opts.dispatch = from;
      RunResult want = RunBlocking(kLoopKernelWat, true, opts, 6);
      ASSERT_EQ(want.trap, TrapKind::kNone) << label;

      Fx fx = MakeKernelFx(kLoopKernelWat, true, /*parking=*/true);
      ASSERT_TRUE(fx.ok);
      wasm::Suspension susp;
      opts.suspend_to = &susp;
      RunResult r = fx.instance->CallExport("run", {Value::I64(6)}, opts);
      std::vector<Fx> live;
      live.push_back(std::move(fx));
      int hops = 0;
      while (r.trap == TrapKind::kSyscallPending) {
        ++hops;
        Fx& cur = live.back();
        const uint64_t arg = cur.parked_args->back();
        const uint64_t hash = wasm::ModuleStructuralHash(*cur.module);
        auto bytes = wasm::SnapshotSuspension(susp, cur.instance.get(), hash, {});
        ASSERT_TRUE(bytes.ok()) << label << " " << bytes.status().ToString();
        susp.Discard();
        Fx fresh = MakeKernelFx(kLoopKernelWat, true, /*parking=*/true);
        ASSERT_TRUE(fresh.ok);
        // Flip the dispatch loop for the rest of the run.
        ExecOptions mode = opts;
        mode.dispatch = to;
        auto blob = wasm::RestoreSuspension(bytes->data(), bytes->size(),
                                            fresh.instance.get(), hash, mode,
                                            nullptr, &susp);
        ASSERT_TRUE(blob.ok()) << label << " " << blob.status().ToString();
        EXPECT_EQ(susp.ctx->opts.dispatch, to) << label;
        live.push_back(std::move(fresh));
        const uint64_t bits = StepAnswer(arg);
        r = wasm::ResumeInvoke(susp, &bits, 1);
      }
      EXPECT_EQ(hops, 6) << label;
      ExpectBitIdentical(want, r, label);
    }
  }
}

TEST(WasmSnapshot, CrossFusionRestoreFails) {
  // The structural hash covers both instruction streams, so a snapshot
  // taken under one fusion configuration can never be restored into a
  // module prepared differently — saved pcs would index a different stream.
  Fx fused = MakeKernelFx(kLoopKernelWat, true, /*parking=*/true);
  ASSERT_TRUE(fused.ok);
  const uint64_t fused_hash = wasm::ModuleStructuralHash(*fused.module);

  wasm::Suspension susp;
  ExecOptions opts;
  opts.scheme = SafepointScheme::kLoop;
  opts.suspend_to = &susp;
  RunResult r = fused.instance->CallExport("run", {Value::I64(4)}, opts);
  ASSERT_EQ(r.trap, TrapKind::kSyscallPending);
  auto bytes = wasm::SnapshotSuspension(susp, fused.instance.get(), fused_hash, {});
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  susp.Discard();

  Fx unfused = MakeKernelFx(kLoopKernelWat, false, /*parking=*/true);
  ASSERT_TRUE(unfused.ok);
  const uint64_t unfused_hash = wasm::ModuleStructuralHash(*unfused.module);
  EXPECT_NE(fused_hash, unfused_hash)
      << "fusion must change the structural hash";

  wasm::Suspension susp2;
  auto blob = wasm::RestoreSuspension(bytes->data(), bytes->size(),
                                      unfused.instance.get(), unfused_hash,
                                      opts, nullptr, &susp2);
  EXPECT_FALSE(blob.ok());
  EXPECT_FALSE(susp2.armed());

  // Wrong hash for the right module fails the same way.
  wasm::Suspension susp3;
  Fx fused2 = MakeKernelFx(kLoopKernelWat, true, /*parking=*/true);
  ASSERT_TRUE(fused2.ok);
  auto blob2 = wasm::RestoreSuspension(bytes->data(), bytes->size(),
                                       fused2.instance.get(), fused_hash + 1,
                                       opts, nullptr, &susp3);
  EXPECT_FALSE(blob2.ok());
  EXPECT_FALSE(susp3.armed());
}

// ------------------------------------------------------- hostile decoding --

// Produces a valid parked snapshot of `wat` plus the instance/hash needed
// to attempt restores against it.
struct HostileRig {
  Fx fx;            // the parked instance (kept alive; suspension discarded)
  Fx target;        // a fresh instance restores are attempted into
  uint64_t hash = 0;
  std::vector<uint8_t> bytes;
  bool ok = false;
};

// Runs `wat` to its `snapshot_at_park`-th park (completing earlier parks in
// place) and snapshots there, so the bytes can carry dirty memory pages.
HostileRig MakeHostileRig(const std::string& wat, int snapshot_at_park = 1) {
  HostileRig rig;
  rig.fx = MakeKernelFx(wat, true, /*parking=*/true);
  if (!rig.fx.ok) return rig;
  rig.hash = wasm::ModuleStructuralHash(*rig.fx.module);
  wasm::Suspension susp;
  ExecOptions opts;
  opts.scheme = SafepointScheme::kLoop;
  opts.suspend_to = &susp;
  RunResult r = rig.fx.instance->CallExport("run", {Value::I64(4)}, opts);
  for (int park = 1; park < snapshot_at_park; ++park) {
    EXPECT_EQ(r.trap, TrapKind::kSyscallPending);
    if (r.trap != TrapKind::kSyscallPending) return rig;
    const uint64_t bits = StepAnswer(rig.fx.parked_args->back());
    r = wasm::ResumeInvoke(susp, &bits, 1);
  }
  EXPECT_EQ(r.trap, TrapKind::kSyscallPending);
  if (r.trap != TrapKind::kSyscallPending) return rig;
  auto bytes = wasm::SnapshotSuspension(susp, rig.fx.instance.get(), rig.hash, {});
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  susp.Discard();
  if (!bytes.ok()) return rig;
  rig.bytes = std::move(*bytes);
  rig.target = MakeKernelFx(wat, true, /*parking=*/true);
  rig.ok = rig.target.ok;
  return rig;
}

TEST(WasmSnapshotHostile, EveryTruncationErrors) {
  HostileRig rig = MakeHostileRig(kTinyKernelWat);
  ASSERT_TRUE(rig.ok);
  ASSERT_LT(rig.bytes.size(), 4096u) << "tiny kernel snapshot should be small";
  for (size_t len = 0; len < rig.bytes.size(); ++len) {
    wasm::Suspension susp;
    auto blob = wasm::RestoreSuspension(rig.bytes.data(), len,
                                        rig.target.instance.get(), rig.hash,
                                        ExecOptions{}, nullptr, &susp);
    EXPECT_FALSE(blob.ok()) << "truncation to " << len << " bytes decoded";
    EXPECT_FALSE(susp.armed()) << "len=" << len;
  }
  // Sanity: the untruncated bytes still decode.
  wasm::Suspension susp;
  auto blob = wasm::RestoreSuspension(rig.bytes.data(), rig.bytes.size(),
                                      rig.target.instance.get(), rig.hash,
                                      ExecOptions{}, nullptr, &susp);
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  susp.Discard();
}

TEST(WasmSnapshotHostile, EverySingleBitFlipErrors) {
  // The payload checksum covers every byte after the header; the header
  // fields are each individually validated. So EVERY single-bit flip must
  // be rejected — deterministically, with no crash and no over-read (this
  // binary runs under ASan in CI).
  HostileRig rig = MakeHostileRig(kTinyKernelWat);
  ASSERT_TRUE(rig.ok);
  std::vector<uint8_t> mutated = rig.bytes;
  for (size_t i = 0; i < rig.bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[i] = rig.bytes[i] ^ static_cast<uint8_t>(1u << bit);
      wasm::Suspension susp;
      auto blob = wasm::RestoreSuspension(mutated.data(), mutated.size(),
                                          rig.target.instance.get(), rig.hash,
                                          ExecOptions{}, nullptr, &susp);
      EXPECT_FALSE(blob.ok()) << "flip byte " << i << " bit " << bit;
      EXPECT_FALSE(susp.armed());
    }
    mutated[i] = rig.bytes[i];
  }
}

TEST(WasmSnapshotHostile, TruncationAndFlipSampledOnMemorySnapshot) {
  // Same properties sampled over a big snapshot (dirty linear-memory delta
  // pages), where the exhaustive sweep would be too slow. Park 4 = after
  // three loop iterations' stores and the memory.grow.
  HostileRig rig = MakeHostileRig(kLoopKernelWat, /*snapshot_at_park=*/4);
  ASSERT_TRUE(rig.ok);
  ASSERT_GT(rig.bytes.size(), wasm::kWasmPageSize)
      << "loop kernel should have carried at least one delta page";
  const size_t n = rig.bytes.size();
  for (size_t len = 0; len < n; len += 997) {
    wasm::Suspension susp;
    auto blob = wasm::RestoreSuspension(rig.bytes.data(), len,
                                        rig.target.instance.get(), rig.hash,
                                        ExecOptions{}, nullptr, &susp);
    EXPECT_FALSE(blob.ok()) << "truncation to " << len;
    EXPECT_FALSE(susp.armed());
  }
  std::vector<uint8_t> mutated = rig.bytes;
  for (size_t i = 0; i < n; i += 131) {
    const int bit = static_cast<int>(i % 8);
    mutated[i] = rig.bytes[i] ^ static_cast<uint8_t>(1u << bit);
    wasm::Suspension susp;
    auto blob = wasm::RestoreSuspension(mutated.data(), n,
                                        rig.target.instance.get(), rig.hash,
                                        ExecOptions{}, nullptr, &susp);
    EXPECT_FALSE(blob.ok()) << "flip byte " << i << " bit " << bit;
    EXPECT_FALSE(susp.armed());
    mutated[i] = rig.bytes[i];
  }
}

TEST(WasmSnapshotHostile, HeaderFieldRejections) {
  HostileRig rig = MakeHostileRig(kTinyKernelWat);
  ASSERT_TRUE(rig.ok);
  auto expect_reject = [&](std::vector<uint8_t> bytes, uint64_t hash,
                           const char* what) {
    wasm::Suspension susp;
    auto blob = wasm::RestoreSuspension(bytes.data(), bytes.size(),
                                        rig.target.instance.get(), hash,
                                        ExecOptions{}, nullptr, &susp);
    EXPECT_FALSE(blob.ok()) << what;
    EXPECT_FALSE(susp.armed()) << what;
  };
  // Empty and header-only inputs.
  expect_reject({}, rig.hash, "empty input");
  expect_reject(std::vector<uint8_t>(rig.bytes.begin(), rig.bytes.begin() + 24),
                rig.hash, "header-only input");
  // Wrong magic (byte 0).
  std::vector<uint8_t> bad_magic = rig.bytes;
  bad_magic[0] ^= 0xff;
  expect_reject(bad_magic, rig.hash, "bad magic");
  // Wrong version (bytes 4..8). Note the checksum does NOT cover the
  // header, so this exercises the version check itself.
  std::vector<uint8_t> bad_version = rig.bytes;
  bad_version[4] = static_cast<uint8_t>(wasm::kSnapshotVersion + 1);
  expect_reject(bad_version, rig.hash, "unsupported version");
  // Wrong module hash: both a patched header field and a mismatched caller.
  std::vector<uint8_t> bad_hash = rig.bytes;
  bad_hash[16] ^= 0x01;
  expect_reject(bad_hash, rig.hash, "patched module hash");
  expect_reject(rig.bytes, rig.hash ^ 1, "caller hash mismatch");
  // Trailing garbage after a valid snapshot.
  std::vector<uint8_t> trailing = rig.bytes;
  trailing.push_back(0x5a);
  expect_reject(trailing, rig.hash, "trailing bytes");
}

// ppoll on an empty pipe with a 50ms timeout: parks on a one-member poll
// set, so the WALI host blob carries the richest park there is — the
// syscall id, its arguments and the interest set.
const char* kPpollParkGuest = R"(
  (memory 1)
  (func (export "main") (result i32)
    (drop (call $pipe2 (i64.const 256) (i64.const 0)))
    ;; pollfd at 512: the read end, events=POLLIN(1)
    (i32.store (i32.const 512) (i32.load (i32.const 256)))
    (i32.store16 (i32.const 516) (i32.const 1))
    ;; timespec at 528: 50ms
    (i64.store (i32.const 528) (i64.const 0))
    (i64.store (i32.const 536) (i64.const 50000000))
    (i32.wrap_i64 (call $ppoll (i64.const 512) (i64.const 1) (i64.const 528)
                               (i64.const 0) (i64.const 8))))
)";

TEST(WasmSnapshotHostile, WaliHostBlobTruncationsAndBitFlips) {
  // The checksum rejects a damaged file before the WALI decoder sees it, so
  // this sweep re-seals each mutated host blob (re-wraps it with
  // SnapshotSuspension) to reach that decoder directly. Every truncation
  // must error; every single-bit flip must error or decode, never crash or
  // over-read (ASan in CI); an error leaves the continuation disarmed; and
  // whatever decodes is a park resume may re-run: a handler that can park
  // (or a scripted answer), and at most IoOp::kMaxPollFds poll members.
  auto parsed = wasm::ParseAndValidateWat(std::string("(module ") +
                                          wali_test::kPrelude +
                                          kPpollParkGuest + ")");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const uint64_t hash = wasm::ModuleStructuralHash(**parsed);
  wasm::Linker linker;
  wali::WaliRuntime rt(&linker);
  auto proc = rt.CreateProcess(*parsed, {"ppoll"}, {});
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  wali::WaliRuntime::MainContinuation cont;
  RunResult r = rt.RunMain(**proc, rt.exec_options(), &cont);
  ASSERT_EQ(r.trap, TrapKind::kSyscallPending) << r.trap_message;
  ASSERT_FALSE((*proc)->pending_io.scripted);
  ASSERT_EQ((*proc)->pending_io.op.poll_fds.size(), 1u);
  auto snap = wali::SnapshotProcess(**proc, cont);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Take the host blob back out of the snapshot.
  std::vector<uint8_t> blob;
  {
    auto scratch = rt.CreateProcess(*parsed, {"ppoll"}, {});
    ASSERT_TRUE(scratch.ok());
    wasm::Suspension susp;
    auto got = wasm::RestoreSuspension(snap->data(), snap->size(),
                                       (*scratch)->main_instance.get(), hash,
                                       rt.exec_options(), nullptr, &susp);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    susp.Discard();
    blob = std::move(*got);
  }

  // Restores a re-sealed blob into a fresh process; true when it decoded.
  auto restore = [&](const std::vector<uint8_t>& host_blob,
                     const std::string& what) {
    auto bytes = wasm::SnapshotSuspension(
        cont.susp, (*proc)->main_instance.get(), hash, host_blob);
    EXPECT_TRUE(bytes.ok()) << what;
    auto fresh = rt.CreateProcess(*parsed, {"ppoll"}, {});
    EXPECT_TRUE(fresh.ok()) << what;
    if (!bytes.ok() || !fresh.ok()) return false;
    wali::WaliProcess& p = **fresh;
    wali::WaliRuntime::MainContinuation restored;
    common::Status st =
        wali::RestoreProcess(bytes->data(), bytes->size(), p, restored);
    if (st.ok()) {
      const wali::PendingIo& pio = p.pending_io;
      EXPECT_TRUE(pio.armed) << what;
      EXPECT_TRUE(pio.scripted || rt.CanPark(pio.syscall_id))
          << what << ": id " << pio.syscall_id;
      EXPECT_LE(pio.op.poll_fds.size(), wali::IoOp::kMaxPollFds) << what;
      restored.Discard();
    } else {
      EXPECT_FALSE(restored.armed()) << what;
    }
    // The fd numbers came from a mutated blob: forget them, never close.
    p.ReleaseGuestFds();
    return st.ok();
  };

  ASSERT_TRUE(restore(blob, "unmutated blob"));
  for (size_t len = 0; len < blob.size(); ++len) {
    std::vector<uint8_t> cut(blob.begin(), blob.begin() + len);
    EXPECT_FALSE(restore(cut, "truncated to " + std::to_string(len)));
  }
  std::vector<uint8_t> mutated = blob;
  size_t decoded = 0;
  for (size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[i] = blob[i] ^ static_cast<uint8_t>(1u << bit);
      decoded += restore(mutated, "flip byte " + std::to_string(i) + " bit " +
                                      std::to_string(bit));
    }
    mutated[i] = blob[i];
  }
  // Plenty of fields are free-form (arguments, timings, counters), so many
  // flips decode; the structural ones (scripted flag, id, counts) must not
  // all.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, blob.size() * 8);
  cont.Discard();
}

// ------------------------------------------------------ restored exec mode --

// Parks in a 1 ms nanosleep, then runs a loop hot enough to tier up under
// the default JIT threshold, and exits with a checksum of it.
const char* kSleepThenLoopGuest = R"(
  (memory 1)
  (func (export "main") (result i32)
    (local $i i32) (local $acc i32)
    (i64.store (i32.const 64) (i64.const 0))
    (i64.store (i32.const 72) (i64.const 1000000))
    (drop (call $nanosleep (i64.const 64) (i64.const 0)))
    (block $done
      (loop $l
        (br_if $done (i32.ge_u (local.get $i) (i32.const 20000)))
        (local.set $acc (i32.add (local.get $acc) (local.get $i)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
    (i32.and (local.get $acc) (i32.const 127)))
)";

TEST(WasmSnapshotWali, RestoredRunKeepsTheRestoringRuntimesMode) {
  // The execution mode is the restoring runtime's choice, as for any run it
  // starts: a jit-off runtime's restored run must stay interpreted through
  // the hot loop after its park, never tier up under the defaults, and a
  // runtime with another dispatch loop resumes the same snapshot in its own.
  if (!wasm::JitAvailable()) GTEST_SKIP() << "JIT tier not in this build";
  auto parsed = wasm::ParseAndValidateWat(std::string("(module ") +
                                          wali_test::kPrelude +
                                          kSleepThenLoopGuest + ")");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const int32_t want_exit = (19999 * 20000 / 2) & 127;
  wasm::Linker linker;
  wali::WaliRuntime::Options ropts;
  ropts.jit = wasm::JitTier::kOff;
  wali::WaliRuntime rt(&linker, ropts);

  auto proc = rt.CreateProcess(*parsed, {"mode"}, {});
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  wali::WaliRuntime::MainContinuation cont;
  RunResult r = rt.RunMain(**proc, rt.exec_options(), &cont);
  ASSERT_EQ(r.trap, TrapKind::kSyscallPending) << r.trap_message;
  auto snap = wali::SnapshotProcess(**proc, cont);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  cont.Discard();

  auto fresh = rt.CreateProcess(*parsed, {"mode"}, {});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  wali::WaliRuntime::MainContinuation restored;
  common::Status st =
      wali::RestoreProcess(snap->data(), snap->size(), **fresh, restored);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(restored.susp.ctx->opts.jit, wasm::JitTier::kOff);
  EXPECT_EQ(restored.susp.ctx->opts.jit_threshold, ropts.jit_threshold);
  r = rt.ResumeMain(**fresh, restored, wali::IoCompletion::Ready());
  ASSERT_TRUE(r.ok()) << r.trap_message;
  EXPECT_EQ(r.exit_code, want_exit);
  ASSERT_NE((*parsed)->jit, nullptr);
  EXPECT_EQ((*parsed)->jit->compiles.load(), 0u);
  EXPECT_EQ((*parsed)->jit->tierups.load(), 0u);

  // The same snapshot under a runtime that runs the switch loop.
  wasm::Linker switch_linker;
  wali::WaliRuntime::Options sopts = ropts;
  sopts.dispatch = DispatchMode::kSwitch;
  wali::WaliRuntime switch_rt(&switch_linker, sopts);
  auto other = switch_rt.CreateProcess(*parsed, {"mode"}, {});
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  wali::WaliRuntime::MainContinuation switched;
  st = wali::RestoreProcess(snap->data(), snap->size(), **other, switched);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(switched.susp.ctx->opts.dispatch, DispatchMode::kSwitch);
  r = switch_rt.ResumeMain(**other, switched, wali::IoCompletion::Ready());
  ASSERT_TRUE(r.ok()) << r.trap_message;
  EXPECT_EQ(r.exit_code, want_exit);
}

// ---------------------------------------------------------- memory scan --

// Per wasm page of [base, base + pages * 64 KiB): whether any of its OS
// pages is present or swapped, from /proc/self/pagemap. Empty when the file
// cannot be read here.
std::vector<bool> TouchedPages(const uint8_t* base, uint64_t pages) {
  const uint64_t os_page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  if (os_page == 0 || os_page > wasm::kWasmPageSize) return {};
  std::vector<uint64_t> entries(pages * wasm::kWasmPageSize / os_page);
  const int fd = open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {};
  const ssize_t want = static_cast<ssize_t>(entries.size() * sizeof(uint64_t));
  const ssize_t got =
      pread(fd, entries.data(), static_cast<size_t>(want),
            static_cast<off_t>(reinterpret_cast<uintptr_t>(base) / os_page * 8));
  close(fd);
  if (got != want) return {};
  std::vector<bool> touched(pages, false);
  for (size_t i = 0; i < entries.size(); ++i) {
    if ((entries[i] >> 62) != 0) touched[i * os_page / wasm::kWasmPageSize] = true;
  }
  return touched;
}

// 16 pages: a data segment on page 3, page 5 filled with 0x33, the
// timespec on page 0, every other page untouched. Parks in a 1 ms
// nanosleep, then exits with a byte of page 5.
const char* kSparseParkGuest = R"(
  (memory 16)
  (data (i32.const 196608) "segment")
  (func (export "main") (result i32)
    (memory.fill (i32.const 327680) (i32.const 0x33) (i32.const 65536))
    (i64.store (i32.const 64) (i64.const 0))
    (i64.store (i32.const 72) (i64.const 1000000))
    (drop (call $nanosleep (i64.const 64) (i64.const 0)))
    (i32.load8_u (i32.const 327680)))
)";

TEST(WasmSnapshotScan, UntouchedPageSkipKeepsTheBytes) {
  // The scan skips a page that no data segment writes without reading it,
  // when the pagemap shows the process never touched it. The bytes must not
  // depend on the skip: reading every committed page maps the zero page
  // under each untouched one, which turns the skip off for a second
  // snapshot of the same park.
  auto parsed = wasm::ParseAndValidateWat(std::string("(module ") +
                                          wali_test::kPrelude + kSparseParkGuest + ")");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  wasm::Linker linker;
  wali::WaliRuntime rt(&linker);
  auto proc = rt.CreateProcess(*parsed, {"sparse"}, {});
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  wali::WaliRuntime::MainContinuation cont;
  RunResult r = rt.RunMain(**proc, rt.exec_options(), &cont);
  ASSERT_EQ(r.trap, TrapKind::kSyscallPending) << r.trap_message;
  const wasm::Memory& mem = *(*proc)->memory;
  const uint64_t pages = mem.size_pages();

  const std::vector<bool> before = TouchedPages(mem.base(), pages);
  auto skipped = wali::SnapshotProcess(**proc, cont);
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  const std::vector<bool> after = TouchedPages(mem.base(), pages);
  if (!before.empty() && !after.empty()) {
    size_t untouched = 0;
    for (uint64_t p = 0; p < pages; ++p) {
      if (before[p]) continue;
      ++untouched;
      EXPECT_FALSE(after[p]) << "the scan read untouched page " << p;
    }
    EXPECT_GT(untouched, 0u) << "no untouched page: the skip was never tried";
  }

  for (uint64_t off = 0; off < pages * wasm::kWasmPageSize; off += 1024) {
    (void)*reinterpret_cast<const volatile uint8_t*>(mem.base() + off);
  }
  const std::vector<bool> read = TouchedPages(mem.base(), pages);
  for (uint64_t p = 0; p < read.size(); ++p) {
    EXPECT_TRUE(read[p]) << "page " << p << " still untouched after a read";
  }
  auto compared = wali::SnapshotProcess(**proc, cont);
  ASSERT_TRUE(compared.ok()) << compared.status().ToString();
  EXPECT_EQ(*skipped, *compared);
  cont.Discard();

  auto fresh = rt.CreateProcess(*parsed, {"sparse"}, {});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  wali::WaliRuntime::MainContinuation restored;
  common::Status st =
      wali::RestoreProcess(skipped->data(), skipped->size(), **fresh, restored);
  ASSERT_TRUE(st.ok()) << st.ToString();
  r = rt.ResumeMain(**fresh, restored, wali::IoCompletion::Result(0));
  ASSERT_TRUE(r.ok()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 0x33);
}

// A data segment writes "segment" at the start of page 2. The guest drops
// that page with madvise(MADV_DONTNEED), parks in a 1 ms nanosleep, then
// exits with the page's first byte: 0 once dropped ('s' = 115 if not).
const char* kDroppedSegmentPageGuest = R"(
  (import "wali" "SYS_madvise" (func $madvise (param i64 i64 i64) (result i64)))
  (memory 4)
  (data (i32.const 131072) "segment")
  (func (export "main") (result i32)
    (if (i64.ne (call $madvise (i64.const 131072) (i64.const 65536) (i64.const 4))
                (i64.const 0))
      (then (return (i32.const 200))))
    (i64.store (i32.const 64) (i64.const 0))
    (i64.store (i32.const 72) (i64.const 1000000))
    (drop (call $nanosleep (i64.const 64) (i64.const 0)))
    (i32.load8_u (i32.const 131072)))
)";

TEST(WasmSnapshotScan, DroppedSegmentPageRestoresAsZeros) {
  // A data page the guest dropped reads as zeros without being present,
  // yet differs from the fresh image, which holds the segment bytes. The
  // untouched-page skip must not apply to it: it is snapshotted as zeros,
  // and the restore overwrites the fresh instance's segment bytes.
  auto parsed = wasm::ParseAndValidateWat(std::string("(module ") + wali_test::kPrelude +
                                          kDroppedSegmentPageGuest + ")");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  wasm::Linker linker;
  wali::WaliRuntime rt(&linker);
  auto proc = rt.CreateProcess(*parsed, {"dropped"}, {});
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  wali::WaliRuntime::MainContinuation cont;
  RunResult r = rt.RunMain(**proc, rt.exec_options(), &cont);
  ASSERT_EQ(r.trap, TrapKind::kSyscallPending) << r.trap_message;
  constexpr uint64_t kSegment = 2 * wasm::kWasmPageSize;
  ASSERT_EQ((*proc)->memory->base()[kSegment], 0) << "madvise did not drop the page";
  auto snap = wali::SnapshotProcess(**proc, cont);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  cont.Discard();

  auto fresh = rt.CreateProcess(*parsed, {"dropped"}, {});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_EQ((*fresh)->memory->base()[kSegment], 's');
  wali::WaliRuntime::MainContinuation restored;
  common::Status st = wali::RestoreProcess(snap->data(), snap->size(), **fresh, restored);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const uint8_t* page = (*fresh)->memory->base() + kSegment;
  EXPECT_TRUE(std::all_of(page, page + wasm::kWasmPageSize, [](uint8_t b) { return b == 0; }))
      << "the restore kept the segment bytes the guest had dropped";
  r = rt.ResumeMain(**fresh, restored, wali::IoCompletion::Result(0));
  ASSERT_TRUE(r.ok()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 0);
}

// ------------------------------------------------------- format stability --

// Golden pin for snapshot format v6. The bytes of a fixed, fully
// deterministic park (kGoldenKernelWat under kEveryInstr + kSwitch with a
// fixed fake module hash) are summarized by (length, FNV-1a). If either
// changes, the on-disk format changed: bump wasm::kSnapshotVersion and
// regenerate these constants from the failure message. DO NOT update the
// constants without the version bump — old snapshots would decode wrong.
constexpr size_t kGoldenSnapshotSize = 65694;
constexpr uint64_t kGoldenSnapshotFnv = 0x737df88def093967ULL;
// First bytes of the golden snapshot (header + start of the exec section),
// for quick diagnosis of what moved.
constexpr uint8_t kGoldenPrefix[] = {0x57, 0x53, 0x4e, 0x50, 0x06, 0x00,
                                     0x00, 0x00};

uint64_t Fnv64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<uint8_t> MakeGoldenSnapshot() {
  Fx fx = MakeKernelFx(kGoldenKernelWat, true, /*parking=*/true);
  EXPECT_TRUE(fx.ok);
  if (!fx.ok) return {};
  wasm::Suspension susp;
  ExecOptions opts;
  opts.scheme = SafepointScheme::kEveryInstr;
  opts.dispatch = DispatchMode::kSwitch;
  opts.suspend_to = &susp;
  RunResult r = fx.instance->CallExport("run", {Value::I64(1)}, opts);
  EXPECT_EQ(r.trap, TrapKind::kSyscallPending) << r.trap_message;
  if (r.trap != TrapKind::kSyscallPending) return {};
  auto bytes = wasm::SnapshotSuspension(susp, fx.instance.get(),
                                        kGoldenFakeModuleHash, {});
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  susp.Discard();
  return bytes.ok() ? std::move(*bytes) : std::vector<uint8_t>{};
}

TEST(WasmSnapshotGolden, FormatStablePin) {
  std::vector<uint8_t> bytes = MakeGoldenSnapshot();
  ASSERT_FALSE(bytes.empty());
  // Deterministic: a second, fully independent generation is bit-identical.
  EXPECT_EQ(bytes, MakeGoldenSnapshot());

  ASSERT_GE(bytes.size(), sizeof(kGoldenPrefix));
  EXPECT_EQ(std::memcmp(bytes.data(), kGoldenPrefix, sizeof(kGoldenPrefix)), 0)
      << "snapshot header prefix changed";
  char actual[64];
  std::snprintf(actual, sizeof(actual), "size=%zu fnv=0x%016llx", bytes.size(),
                static_cast<unsigned long long>(Fnv64(bytes)));
  EXPECT_TRUE(bytes.size() == kGoldenSnapshotSize &&
              Fnv64(bytes) == kGoldenSnapshotFnv)
      << "snapshot format drifted without a version bump.\n"
      << "  golden: size=" << kGoldenSnapshotSize << " fnv=0x" << std::hex
      << kGoldenSnapshotFnv << std::dec << "\n  actual: " << actual << "\n"
      << "If the change is intentional, bump wasm::kSnapshotVersion and "
         "update the golden constants.";
}

TEST(WasmSnapshotGolden, GoldenBytesRestoreAndResume) {
  // The pinned bytes are not just stable — they restore into a fresh
  // instance and resume to the right answer.
  std::vector<uint8_t> bytes = MakeGoldenSnapshot();
  ASSERT_FALSE(bytes.empty());
  Fx fresh = MakeKernelFx(kGoldenKernelWat, true, /*parking=*/true);
  ASSERT_TRUE(fresh.ok);
  wasm::Suspension susp;
  ExecOptions mode;
  mode.dispatch = DispatchMode::kSwitch;
  auto blob = wasm::RestoreSuspension(bytes.data(), bytes.size(),
                                      fresh.instance.get(),
                                      kGoldenFakeModuleHash, mode, nullptr,
                                      &susp);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  const uint64_t bits = StepAnswer(9);
  RunResult r = wasm::ResumeInvoke(susp, &bits, 1);
  ASSERT_EQ(r.trap, TrapKind::kNone) << r.trap_message;
  ASSERT_EQ(r.values.size(), 1u);
  // step(9)=28, plus global 5+2=7.
  EXPECT_EQ(r.values[0].bits, 35u);
  // The golden's dirty page landed: the pre-park store is visible.
  uint64_t stored = 0;
  std::memcpy(&stored, fresh.instance->memory(0)->base() + 64, 8);
  EXPECT_EQ(stored, 0x0123456789abcdefULL);
}

// --------------------------------------------- workload-suite differential --

// Process-level round trip over the full workload suite: every non-threaded
// WAT workload runs under a real WALI runtime, is parked at every Nth
// syscall boundary by the scripted-park hook, snapshotted with
// wali::SnapshotProcess (fd table, signal dispositions, ledger counters and
// all), restored into a COMPLETELY FRESH process, and resumed there via
// ResumeMain. The final result must be bit-identical to the uninterrupted
// run: trap, exit code, executed_instrs, and final memory size.
TEST(WasmSnapshotWorkloads, ParkEveryNthSyscallRoundTrip) {
  const int kScale = 3;
  const uint64_t kParkEvery = 5;
  int covered = 0;
  for (const workloads::Workload& w : workloads::AllWorkloads()) {
    if (w.wat.empty() || w.uses_threads) continue;
    ++covered;
    const std::string wat = workloads::InstantiateWat(w, kScale);
    for (bool fuse : {true, false}) {
      for (DispatchMode dispatch : {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
        const std::string label = w.name + " " + ModeLabel(fuse, dispatch);
        auto parsed = wasm::ParseAndValidateWat(wat);
        ASSERT_TRUE(parsed.ok()) << label << " " << parsed.status().ToString();
        wasm::PrepareOptions popts;
        popts.fuse = fuse;
        wasm::PrepareModule(**parsed, popts);

        wasm::Linker linker;
        wali::WaliRuntime::Options ropts;
        ropts.dispatch = dispatch;
        wali::WaliRuntime rt(&linker, ropts);

        // Reference: uninterrupted run.
        auto ref_proc = rt.CreateProcess(*parsed, {w.name}, {});
        ASSERT_TRUE(ref_proc.ok()) << label << " " << ref_proc.status().ToString();
        RunResult want = rt.RunMain(**ref_proc);

        // Differential arm: park every Nth syscall, snapshot+restore into a
        // fresh process at every eligible park.
        std::vector<std::unique_ptr<wali::WaliProcess>> live;
        {
          auto p = rt.CreateProcess(*parsed, {w.name}, {});
          ASSERT_TRUE(p.ok()) << label << " " << p.status().ToString();
          live.push_back(std::move(*p));
        }
        live.back()->park_after_syscalls = kParkEvery;
        wali::WaliRuntime::MainContinuation cont;
        RunResult got = rt.RunMain(*live.back(), rt.exec_options(), &cont);
        int parks = 0;
        int round_trips = 0;
        while (got.trap == TrapKind::kSyscallPending) {
          ++parks;
          ASSERT_LT(parks, 100000) << label << ": runaway park loop";
          wali::WaliProcess& cur = *live.back();
          // Every park is snapshotted as it stands. At resume a scripted
          // park answers from its op and a real one is re-dispatched (a
          // sleep answers 0 without sleeping, a ready fd promptly).
          auto snap = wali::SnapshotProcess(cur, cont);
          if (!snap.ok()) {
            // Ineligible at this boundary (e.g. undelivered virtual
            // signals): resume in place, park again later.
            got = rt.ResumeMain(cur, cont, wali::IoCompletion::Ready());
            continue;
          }
          cont.Discard();
          // Hand fd ownership to the restored process: the snapshot carries
          // the fd numbers, and double-close on teardown could hit an
          // unrelated fd opened later.
          cur.ReleaseGuestFds();

          auto fresh = rt.CreateProcess(*parsed, {w.name}, {});
          ASSERT_TRUE(fresh.ok()) << label << " " << fresh.status().ToString();
          common::Status restored =
              wali::RestoreProcess(snap->data(), snap->size(), **fresh, cont);
          ASSERT_TRUE(restored.ok()) << label << " " << restored.ToString();
          const wali::PendingIo& want_pio = cur.pending_io;
          const wali::PendingIo& got_pio = (*fresh)->pending_io;
          EXPECT_EQ(got_pio.scripted, want_pio.scripted) << label;
          EXPECT_EQ(got_pio.scripted_result, want_pio.scripted_result) << label;
          EXPECT_EQ(got_pio.syscall_id, want_pio.syscall_id) << label;
          EXPECT_EQ(got_pio.op.timeout_nanos, want_pio.op.timeout_nanos) << label;
          ASSERT_EQ(got_pio.op.poll_fds.size(), want_pio.op.poll_fds.size())
              << label;
          for (size_t i = 0; i < want_pio.op.poll_fds.size(); ++i) {
            EXPECT_EQ(got_pio.op.poll_fds[i].fd, want_pio.op.poll_fds[i].fd);
            EXPECT_EQ(got_pio.op.poll_fds[i].events,
                      want_pio.op.poll_fds[i].events);
          }
          (*fresh)->park_after_syscalls = kParkEvery;
          live.push_back(std::move(*fresh));
          ++round_trips;
          got = rt.ResumeMain(*live.back(), cont, wali::IoCompletion::Ready());
        }

        EXPECT_GT(parks, 0) << label << ": workload never parked — park hook dead?";
        EXPECT_GT(round_trips, 0)
            << label << ": no park was snapshot-eligible";
        EXPECT_EQ(want.trap, got.trap)
            << label << ": " << wasm::TrapKindName(want.trap) << " vs "
            << wasm::TrapKindName(got.trap) << " (" << got.trap_message << ")";
        EXPECT_EQ(want.exit_code, got.exit_code) << label;
        EXPECT_EQ(want.executed_instrs, got.executed_instrs) << label;
        ASSERT_EQ(want.values.size(), got.values.size()) << label;
        for (size_t i = 0; i < want.values.size(); ++i) {
          EXPECT_EQ(want.values[i].bits, got.values[i].bits) << label;
        }
        // Final memory footprint matches the uninterrupted run.
        EXPECT_EQ((*ref_proc)->memory->size_pages(),
                  live.back()->memory->size_pages())
            << label;
        // Syscall accounting survived every round trip with no double
        // billing: the restored ledgers sum to the reference run's.
        EXPECT_EQ((*ref_proc)->run_syscalls.load(),
                  live.back()->run_syscalls.load())
            << label;
      }
    }
  }
  EXPECT_GE(covered, 3) << "workload suite unexpectedly small";
}

// The scripted-park hook itself must be transparent even without snapshots:
// park every syscall, resume immediately with the scripted result.
TEST(WasmSnapshotWorkloads, ScriptedParkHookIsTransparent) {
  const workloads::Workload* w = workloads::FindWorkload("bash");
  if (w == nullptr || w->wat.empty()) GTEST_SKIP() << "bash analog not present";
  const std::string wat = workloads::InstantiateWat(*w, 2);
  auto parsed = wasm::ParseAndValidateWat(wat);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  wasm::PrepareModule(**parsed);

  wasm::Linker linker;
  wali::WaliRuntime rt(&linker);
  auto ref = rt.CreateProcess(*parsed, {w->name}, {});
  ASSERT_TRUE(ref.ok());
  RunResult want = rt.RunMain(**ref);

  auto proc = rt.CreateProcess(*parsed, {w->name}, {});
  ASSERT_TRUE(proc.ok());
  (*proc)->park_after_syscalls = 1;  // every single syscall parks
  wali::WaliRuntime::MainContinuation cont;
  RunResult got = rt.RunMain(**proc, rt.exec_options(), &cont);
  int parks = 0;
  while (got.trap == TrapKind::kSyscallPending) {
    ++parks;
    ASSERT_LT(parks, 1000000);
    got = rt.ResumeMain(**proc, cont, wali::IoCompletion::Ready());
  }
  EXPECT_GT(parks, 0);
  EXPECT_EQ(want.trap, got.trap) << got.trap_message;
  EXPECT_EQ(want.exit_code, got.exit_code);
  EXPECT_EQ(want.executed_instrs, got.executed_instrs);
  EXPECT_EQ((*ref)->run_syscalls.load(), (*proc)->run_syscalls.load());
}

}  // namespace
