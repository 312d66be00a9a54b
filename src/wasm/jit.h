// Baseline template-JIT tier over the prepared instruction stream.
//
// The tier stitches per-op x86-64 stencils over exactly the stream the
// threaded interpreter executes: superinstructions stay fused, fuel is
// charged per linear_cost[pc] segment at the same gates, and all operands
// live in the interpreter's plain-form stack slots (operand k of a frame at
// stack slot stack_base + k, i32 values zero-extended to the full 8-byte
// slot). Because compiled code never caches a value anywhere the
// interpreter would not, every segment gate is an OSR seam: compiled code
// can exit at any gate (or deopt at any instruction boundary) and the
// interpreter continues with bit-identical executed_instrs, fuel
// accounting, trap kinds, and suspension/snapshot state. Anything the
// stencil table does not cover — floating point, truncations, atomics,
// memory.grow/fill/copy, host calls — exits to the interpreter, which
// RE-EXECUTES the instruction from an unconsumed state (the exit uncharges
// the remainder of the segment first), so the slow ops have exactly one
// implementation and the switch loop stays the semantics oracle.
//
// Entry points are the threaded loop's frame_entry and loop-header hooks
// (RequestEnter), which also drive count-based tier-up; RunLoop's driver
// then trampolines into compiled code (Execute) and reconciles its exits.
//
// Calls stay compiled. A direct call to a local function is a guarded
// native `call`: emitted code writes the callee's ExecContext::Frame onto
// the fixed-layout frame stack (ExecContext::FrameStack), zeroes its
// locals and enters its pc-0 gate; kReturn inside such a chain unwinds the
// results, pops the frame and `ret`s into the caller's post-call gate. The
// guards — callee compiled and not blacklisted, frame stack below
// min(capacity, max_frames, kMaxNativeDepth past the stint's base), the
// callee's operand region already resident within max_value_stack, and a
// safepoint scheme other than kFunction — send every other call through
// the dispatcher's slow path, which behaves exactly like the interpreter's
// call. call_indirect and host calls always take that path. Because a
// stint can exit at any native depth, the trampoline saves its rsp and the
// exit tails restore it; the dispatcher reconciles against frames.back().
//
// Deopts are blacklisted on an amortized basis: a function leaves the tier
// only once it has deopted often (1024 times) AND its compiled stints ran
// fewer than 64 source instructions per deopt, so a function that deopts
// once per call ahead of a long compiled loop stays compiled.
#ifndef SRC_WASM_JIT_H_
#define SRC_WASM_JIT_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/wasm/interp.h"
#include "src/wasm/module.h"
#include "src/wasm/types.h"

// The tier rides on the threaded loop's OSR seams and emits x86-64 with a
// GCC/Clang top-level-asm trampoline; anywhere that stack is unavailable
// the tier compiles out entirely and JitAvailable() reports false.
#if defined(WASM_JIT) && defined(WASM_THREADED_DISPATCH) && \
    defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WASM_JIT_OK 1
#else
#define WASM_JIT_OK 0
#endif

namespace wasm {
namespace jit {

// Allocates the module's tier state (per-function slots + counters). Called
// by PrepareModule; returns null when the tier is compiled out. Re-prepare
// REPLACES the state: compiled code is keyed to the prepared stream's pcs
// and bakes in addresses of `module`'s functions (JitModuleState::owner).
std::shared_ptr<JitModuleState> CreateModuleState(const Module& module);

#if WASM_JIT_OK

// Tier-up decision point, called from the threaded loop's OSR hooks with
// fr->pc / ctx.executed already synced. Bumps the frame's function heat,
// triggers compilation past ExecOptions::jit_threshold (CAS latch: exactly
// one compiler per function across concurrent instances), and returns true
// when compiled code is ready to enter at fr->pc — the hook then spills its
// TOS cache and returns to RunLoop's driver with ctx.jit_enter set.
bool RequestEnter(ExecContext& ctx);

// Runs compiled code starting at ctx.frames.back() (validated by
// RequestEnter) and keeps executing natively across calls and returns while
// callees/callers are compiled. Returns kNone either with the run finished
// (frames empty, results in plain form at the stack top) or with the
// interpreter expected to continue at frames.back() — which may be a frame
// emitted code pushed — with fr->pc / ctx.executed / stack all exact;
// returns a trap kind on traps raised from native state (safepoint polls).
// All other traps deopt to the interpreter first so their billing and
// messages come from the oracle path.
TrapKind Execute(ExecContext& ctx);

// interp.cc's PushFrame, exported for Execute's slow call path so frame
// geometry has exactly one C++ implementation (the native call sequence
// mirrors it; the differential tests hold the two in agreement).
bool PushFrameForJit(ExecContext& ctx, const FuncRef& ref);

// interp.cc's frame-entry profiling hook for the frame emitted code just
// pushed (frames.back()), with `executed` the exact count at the call site.
void ProfileFrameEntryForJit(ExecContext& ctx, uint64_t executed);

#endif  // WASM_JIT_OK

}  // namespace jit
}  // namespace wasm

#endif  // SRC_WASM_JIT_H_
