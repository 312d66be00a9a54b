#include "src/wasm/interp.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>

#include "src/common/logging.h"
#include "src/wasm/jit.h"

// Computed-goto dispatch needs the GNU &&label extension and an opt-in from
// the build (-DWASM_THREADED_DISPATCH, CMake option of the same name).
#if defined(WASM_THREADED_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
#define WASM_THREADED_OK 1
#else
#define WASM_THREADED_OK 0
#endif

namespace wasm {

void ExecContext::FrameStack::reserve(size_t n) {
  if (n <= capacity_) return;
  Frame* grown = new Frame[n];
  std::copy(data_, data_ + size_, grown);
  delete[] data_;
  data_ = grown;
  capacity_ = n;
}

void ExecContext::FrameStack::Grow() { reserve(capacity_ == 0 ? 16 : 2 * capacity_); }

namespace {

// Initial capacities for a fresh (non-recycled) invocation; recycled
// ExecBuffers keep whatever they grew to.
constexpr size_t kStackReserve = 1024;
constexpr size_t kFramesReserve = 64;

inline uint64_t BitsOfF32(float v) {
  uint32_t u;
  std::memcpy(&u, &v, 4);
  return u;
}
inline uint64_t BitsOfF64(double v) {
  uint64_t u;
  std::memcpy(&u, &v, 8);
  return u;
}
inline float F32OfBits(uint64_t bits) {
  uint32_t u = static_cast<uint32_t>(bits);
  float v;
  std::memcpy(&v, &u, 4);
  return v;
}
inline double F64OfBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

inline float FMin32(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::nanf("");
  if (a == b) return std::signbit(a) ? a : b;
  return a < b ? a : b;
}
inline float FMax32(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::nanf("");
  if (a == b) return std::signbit(a) ? b : a;
  return a > b ? a : b;
}
inline double FMin64(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::nan("");
  if (a == b) return std::signbit(a) ? a : b;
  return a < b ? a : b;
}
inline double FMax64(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::nan("");
  if (a == b) return std::signbit(a) ? b : a;
  return a > b ? a : b;
}

// Interpreters for the generic-operator superinstructions (prepare pass
// folds the concrete operator into an immediate). Only non-trapping ops are
// ever folded (no division), so these are total functions.
inline uint32_t CmpI32(Op op, uint32_t ra, uint32_t rb) {
  const int32_t sa = static_cast<int32_t>(ra);
  const int32_t sb = static_cast<int32_t>(rb);
  switch (op) {
    case Op::kI32Eq: return ra == rb;
    case Op::kI32Ne: return ra != rb;
    case Op::kI32LtS: return sa < sb;
    case Op::kI32LtU: return ra < rb;
    case Op::kI32GtS: return sa > sb;
    case Op::kI32GtU: return ra > rb;
    case Op::kI32LeS: return sa <= sb;
    case Op::kI32LeU: return ra <= rb;
    case Op::kI32GeS: return sa >= sb;
    case Op::kI32GeU: return ra >= rb;
    default: return 0;
  }
}

inline uint32_t CmpI64(Op op, uint64_t ra, uint64_t rb) {
  const int64_t sa = static_cast<int64_t>(ra);
  const int64_t sb = static_cast<int64_t>(rb);
  switch (op) {
    case Op::kI64Eq: return ra == rb;
    case Op::kI64Ne: return ra != rb;
    case Op::kI64LtS: return sa < sb;
    case Op::kI64LtU: return ra < rb;
    case Op::kI64GtS: return sa > sb;
    case Op::kI64GtU: return ra > rb;
    case Op::kI64LeS: return sa <= sb;
    case Op::kI64LeU: return ra <= rb;
    case Op::kI64GeS: return sa >= sb;
    case Op::kI64GeU: return ra >= rb;
    default: return 0;
  }
}

inline uint32_t AluI32(Op op, uint32_t ra, uint32_t rb) {
  switch (op) {
    case Op::kI32Add: return ra + rb;
    case Op::kI32Sub: return ra - rb;
    case Op::kI32Mul: return ra * rb;
    case Op::kI32And: return ra & rb;
    case Op::kI32Or: return ra | rb;
    case Op::kI32Xor: return ra ^ rb;
    case Op::kI32Shl: return ra << (rb & 31);
    case Op::kI32ShrS: return static_cast<uint32_t>(static_cast<int32_t>(ra) >> (rb & 31));
    case Op::kI32ShrU: return ra >> (rb & 31);
    case Op::kI32Rotl: return (ra << (rb & 31)) | (ra >> ((32 - rb) & 31));
    case Op::kI32Rotr: return (ra >> (rb & 31)) | (ra << ((32 - rb) & 31));
    default: return CmpI32(op, ra, rb);
  }
}

inline uint64_t AluI64(Op op, uint64_t ra, uint64_t rb) {
  switch (op) {
    case Op::kI64Add: return ra + rb;
    case Op::kI64Sub: return ra - rb;
    case Op::kI64Mul: return ra * rb;
    case Op::kI64And: return ra & rb;
    case Op::kI64Or: return ra | rb;
    case Op::kI64Xor: return ra ^ rb;
    case Op::kI64Shl: return ra << (rb & 63);
    case Op::kI64ShrS: return static_cast<uint64_t>(static_cast<int64_t>(ra) >> (rb & 63));
    case Op::kI64ShrU: return ra >> (rb & 63);
    case Op::kI64Rotl: return (ra << (rb & 63)) | (ra >> ((64 - rb) & 63));
    case Op::kI64Rotr: return (ra >> (rb & 63)) | (ra << ((64 - rb) & 63));
    default: return CmpI64(op, ra, rb);
  }
}

// Frame-entry profiling hook (ExecOptions::profile): bumps the callee's
// entry count and attributes the fuel burned since the last frame entry to
// the function that was executing. `executed_now` must be the caller's
// CURRENT executed count — the threaded loop passes its local accumulator,
// which is ahead of ctx.executed between SYNC_STATE points.
inline void ProfileFrameEntry(ExecContext& ctx, const FuncRef& ref,
                              uint64_t executed_now) {
  const Module& m = ref.owner->module();
  FuncProfileSlot* slots = m.func_profile.get();
  if (slots == nullptr) {
    return;
  }
  FuncProfileSlot& slot = slots[static_cast<size_t>(ref.code - m.functions.data())];
  if (&slot == ctx.profile_slot) {
    // Re-entering the function already being attributed (self-recursion,
    // the call-dense hot case): context-local arithmetic only.
    ctx.profile_pending_entries += 1;
    ctx.profile_pending_fuel += executed_now - ctx.profile_mark;
    ctx.profile_mark = executed_now;
    return;
  }
  if (ctx.profile_slot != nullptr) {
    ctx.profile_slot->entries.fetch_add(ctx.profile_pending_entries,
                                        std::memory_order_relaxed);
    ctx.profile_slot->fuel.fetch_add(
        ctx.profile_pending_fuel + (executed_now - ctx.profile_mark),
        std::memory_order_relaxed);
  }
  ctx.profile_slot = &slot;
  ctx.profile_pending_entries = 1;
  ctx.profile_pending_fuel = 0;
  ctx.profile_mark = executed_now;
}

// Pushes a new wasm frame; arguments must already be on the stack.
// The frame binds the execution stream: the prepared (fused, block-metadata)
// form by default, the original decoded stream under kEveryInstr so that
// per-instruction safepoint polling stays per *source* instruction.
bool PushFrame(ExecContext& ctx, const FuncRef& ref) {
  if (ctx.frames.size() >= ctx.opts.max_frames ||
      ctx.stack.size() >= ctx.opts.max_value_stack) {
    ctx.SetTrap(TrapKind::kStackExhausted);
    return false;
  }
  const Function* fn = ref.code;
  const bool use_prepared = !fn->prepared.code.empty() &&
                            ctx.opts.scheme != SafepointScheme::kEveryInstr;
  const uint32_t locals_base =
      static_cast<uint32_t>(ctx.stack.size() - ref.type->params.size());
  // One grow for all locals PLUS one scratch slot between the locals and
  // the operand region; resize value-initializes the slots to zero. The
  // scratch slot is where the threaded loop's TOS cache lands its dead
  // spills when the operand stack is empty — every frame carries it so
  // both dispatch loops agree on operand positions (stack_base + k).
  ctx.stack.resize(ctx.stack.size() + fn->locals.size() + 1);
  ExecContext::Frame& fr = ctx.frames.emplace_back();
  fr.inst = ref.owner;
  fr.fn = fn;
  if (use_prepared) {
    fr.code = fn->prepared.code.data();
    fr.tables = fn->prepared.br_tables.data();
    fr.lcost = fn->prepared.linear_cost.data();
  } else {
    fr.code = fn->code.data();
    fr.tables = fn->br_tables.data();
    fr.lcost = nullptr;
  }
  fr.pc = 0;
  fr.type = ref.type;
  fr.locals_base = locals_base;
  fr.stack_base = static_cast<uint32_t>(ctx.stack.size());
  fr.mem = ref.owner->memory(0).get();
  if (__builtin_expect(ctx.opts.profile, 0)) {
    ProfileFrameEntry(ctx, ref, ctx.executed);
  }
  return true;
}

// Calls a host function with args taken from (and results pushed to) the
// operand stack.
TrapKind CallHost(ExecContext& ctx, const HostFunc& host) {
  size_t nargs = host.type.params.size();
  size_t nres = host.type.results.size();
  uint64_t argbuf[kMaxHostArgs];
  uint64_t resbuf[kMaxHostResults] = {0};
  if (nargs > kMaxHostArgs || nres > kMaxHostResults) {
    ctx.SetTrap(TrapKind::kHostError, "host function arity too large");
    return ctx.trap;
  }
  for (size_t i = 0; i < nargs; ++i) {
    argbuf[i] = ctx.stack[ctx.stack.size() - nargs + i];
  }
  ctx.stack.resize(ctx.stack.size() - nargs);
  TrapKind t = host.fn(ctx, argbuf, resbuf);
  if (t == TrapKind::kSyscallPending || ctx.trap == TrapKind::kSyscallPending) {
    if (ctx.opts.suspend_to == nullptr) {
      // A host function parked an invocation that cannot be resumed (no
      // suspension slot). Programming error in the host layer; fail loudly
      // rather than losing the call's results.
      ctx.SetTrap(TrapKind::kHostError, "host call suspended without a suspension slot");
      return ctx.trap;
    }
    // The args are consumed; the results arrive via ResumeInvoke. The frame
    // state was synced before the call, so the context is resumable as-is.
    ctx.trap = TrapKind::kSyscallPending;
    ctx.pending_host_results = static_cast<uint32_t>(nres);
    return ctx.trap;
  }
  if (t != TrapKind::kNone) {
    if (ctx.trap == TrapKind::kNone) {
      ctx.trap = t;
    }
    return t;
  }
  if (ctx.trap != TrapKind::kNone) {
    return ctx.trap;  // host set a trap (e.g. exit) without returning one
  }
  for (size_t i = 0; i < nres; ++i) {
    ctx.stack.push_back(resbuf[i]);
  }
  return TrapKind::kNone;
}

// ---- dispatch loops -------------------------------------------------------
// One body (interp_body.inc), two expansions: the portable switch loop and,
// when the build allows, the computed-goto threaded loop.

#define WASM_BODY_THREADED 0
#define WASM_LOOP_NAME RunLoopSwitch
#include "src/wasm/interp_body.inc"  // NOLINT
#undef WASM_LOOP_NAME
#undef WASM_BODY_THREADED

#if WASM_THREADED_OK
#define WASM_BODY_THREADED 1
#define WASM_LOOP_NAME RunLoopThreadedImpl
#include "src/wasm/interp_body.inc"  // NOLINT
#undef WASM_LOOP_NAME
#undef WASM_BODY_THREADED
#endif

// RAII swap of recycled stack/frame storage into a fresh ExecContext and
// back out on every exit path, preserving grown capacity across runs.
struct BufferLease {
  ExecContext& ctx;
  ExecBuffers* buffers;

  BufferLease(ExecContext& c, ExecBuffers* b) : ctx(c), buffers(b) {
    if (buffers != nullptr) {
      ctx.stack.swap(buffers->stack);
      ctx.frames.swap(buffers->frames);
      ctx.stack.clear();
      ctx.frames.clear();
    }
    if (ctx.stack.capacity() < kStackReserve) ctx.stack.reserve(kStackReserve);
    if (ctx.frames.capacity() < kFramesReserve) ctx.frames.reserve(kFramesReserve);
  }
  ~BufferLease() {
    if (buffers != nullptr) {
      ctx.stack.swap(buffers->stack);
      ctx.frames.swap(buffers->frames);
    }
  }
};

}  // namespace

#if WASM_JIT_OK
namespace jit {
// interp.cc's PushFrame and profiling hook, re-exported so the JIT's slow
// call path and its native call sequence share the single implementations.
bool PushFrameForJit(ExecContext& ctx, const FuncRef& ref) {
  return PushFrame(ctx, ref);
}

void ProfileFrameEntryForJit(ExecContext& ctx, uint64_t executed) {
  const ExecContext::Frame& fr = ctx.frames.back();
  FuncRef ref;
  ref.type = fr.type;
  ref.code = fr.fn;
  ref.owner = fr.inst;
  ProfileFrameEntry(ctx, ref, executed);
}
}  // namespace jit
#endif

bool ThreadedDispatchAvailable() { return WASM_THREADED_OK != 0; }

DispatchMode ResolveDispatch(const ExecOptions& opts) {
  // kEveryInstr polls after every source instruction; that contract lives
  // in the per-instruction switch loop over the unfused stream.
  if (opts.scheme == SafepointScheme::kEveryInstr) {
    return DispatchMode::kSwitch;
  }
  if (opts.dispatch == DispatchMode::kSwitch) {
    return DispatchMode::kSwitch;
  }
  return ThreadedDispatchAvailable() ? DispatchMode::kThreaded
                                     : DispatchMode::kSwitch;
}

TrapKind RunLoop(ExecContext& ctx) {
#if WASM_THREADED_OK
  if (ResolveDispatch(ctx.opts) == DispatchMode::kThreaded) {
#if WASM_JIT_OK
    // The baseline JIT tier rides on the threaded loop's OSR seams: its
    // hooks return kNone with jit_enter set when compiled code should take
    // over at frames.back(), and jit::Execute hands back the same way.
    ctx.jit_active = ctx.opts.jit != JitTier::kOff;
    for (;;) {
      ctx.jit_enter = false;
      TrapKind t = RunLoopThreadedImpl(ctx);
      if (t != TrapKind::kNone || !ctx.jit_enter) {
        return t;
      }
      t = jit::Execute(ctx);
      if (t != TrapKind::kNone || ctx.frames.empty()) {
        return t;
      }
    }
#else
    return RunLoopThreadedImpl(ctx);
#endif
  }
#endif
  ctx.jit_active = false;
  return RunLoopSwitch(ctx);
}

namespace {

// Marshals a finished (non-suspended) context into a RunResult. Result
// values are read from the operand-stack top when the run completed.
RunResult HarvestResult(ExecContext& ctx, const FuncType* type, TrapKind t) {
  // Flush the open profile attribution window so per-function entries and
  // fuel sum to the run's true totals for a finished run.
  if (ctx.profile_slot != nullptr) {
    ctx.profile_slot->entries.fetch_add(ctx.profile_pending_entries,
                                        std::memory_order_relaxed);
    ctx.profile_slot->fuel.fetch_add(
        ctx.profile_pending_fuel + (ctx.executed - ctx.profile_mark),
        std::memory_order_relaxed);
    ctx.profile_slot = nullptr;
    ctx.profile_pending_entries = 0;
    ctx.profile_pending_fuel = 0;
    ctx.profile_mark = ctx.executed;
  }
  RunResult result;
  result.trap = t;
  result.trap_message = ctx.trap_msg;
  result.exit_code = ctx.exit_code;
  result.executed_instrs = ctx.executed;
  if (t == TrapKind::kNone) {
    size_t nres = type->results.size();
    for (size_t i = 0; i < nres; ++i) {
      Value v;
      v.type = type->results[i];
      v.bits = ctx.stack[ctx.stack.size() - nres + i];
      result.values.push_back(v);
    }
  }
  return result;
}

// Shared entry setup: pushes args and the first frame, runs the dispatch
// loop to completion or suspension. Buffer swap-in/out is the caller's
// concern (RAII for the synchronous path, manual for the resumable one).
TrapKind RunEntry(ExecContext& ctx, const FuncRef& ref, const std::vector<Value>& args) {
  for (const Value& v : args) {
    ctx.stack.push_back(v.bits);
  }
  if (ref.IsHost()) {
    return CallHost(ctx, *ref.host);
  }
  if (!PushFrame(ctx, ref)) {
    return ctx.trap;
  }
  if (ctx.opts.scheme == SafepointScheme::kFunction && ctx.poll != nullptr && *ctx.poll) {
    (*ctx.poll)(ctx);
  }
  return ctx.trap != TrapKind::kNone ? ctx.trap : RunLoop(ctx);
}

}  // namespace

void Suspension::Discard() {
  if (ctx != nullptr && buffers != nullptr) {
    // Hand the borrowed storage (and its grown capacity) back to its owner;
    // the parked stack contents are dead, only the allocation is recycled.
    ctx->stack.swap(buffers->stack);
    ctx->frames.swap(buffers->frames);
  }
  ctx.reset();
  entry_type = nullptr;
  buffers = nullptr;
  pending_results = 0;
}

RunResult Invoke(Instance* inst, const FuncRef& ref, const std::vector<Value>& args,
                 const ExecOptions& opts) {
  RunResult result;
  if (ref.IsNull()) {
    result.trap = TrapKind::kHostError;
    result.trap_message = "null function reference";
    return result;
  }
  if (args.size() != ref.type->params.size()) {
    result.trap = TrapKind::kHostError;
    result.trap_message = "argument count mismatch";
    return result;
  }

  if (opts.suspend_to == nullptr) {
    // Synchronous path: the context lives on this stack frame and the
    // borrowed buffers are returned on every exit via RAII.
    ExecContext ctx;
    ctx.root = inst;
    ctx.opts = opts;
    ctx.poll = &inst->safepoint_fn();
    BufferLease lease(ctx, opts.buffers);
    TrapKind t = RunEntry(ctx, ref, args);
    return HarvestResult(ctx, ref.type, t);
  }

  // Resumable path: the context is heap-allocated so a suspension can move
  // it into the caller's Suspension slot; borrowed buffers are swapped in
  // here and handed back only when the run finally completes (ResumeInvoke)
  // or is abandoned (Suspension::Discard).
  Suspension& susp = *opts.suspend_to;
  susp.Discard();  // a stale armed slot must not leak its parked context
  auto ctxp = std::make_unique<ExecContext>();
  ExecContext& ctx = *ctxp;
  ctx.root = inst;
  ctx.opts = opts;
  ctx.poll = &inst->safepoint_fn();
  if (opts.buffers != nullptr) {
    ctx.stack.swap(opts.buffers->stack);
    ctx.frames.swap(opts.buffers->frames);
    ctx.stack.clear();
    ctx.frames.clear();
  }
  if (ctx.stack.capacity() < kStackReserve) ctx.stack.reserve(kStackReserve);
  if (ctx.frames.capacity() < kFramesReserve) ctx.frames.reserve(kFramesReserve);

  TrapKind t = RunEntry(ctx, ref, args);
  if (t == TrapKind::kSyscallPending) {
    susp.entry_type = ref.type;
    susp.buffers = opts.buffers;
    susp.pending_results = ctx.pending_host_results;
    susp.ctx = std::move(ctxp);
    result.trap = t;
    result.trap_message = ctx.trap_msg;
    result.executed_instrs = ctx.executed;
    return result;
  }
  result = HarvestResult(ctx, ref.type, t);
  if (opts.buffers != nullptr) {
    ctx.stack.swap(opts.buffers->stack);
    ctx.frames.swap(opts.buffers->frames);
  }
  return result;
}

RunResult ResumeInvoke(Suspension& susp, const uint64_t* results, size_t nres) {
  RunResult result;
  if (!susp.armed()) {
    result.trap = TrapKind::kHostError;
    result.trap_message = "resume of an unarmed suspension";
    return result;
  }
  if (nres != susp.pending_results) {
    susp.Discard();
    result.trap = TrapKind::kHostError;
    result.trap_message = "suspended host call result arity mismatch";
    return result;
  }
  ExecContext& ctx = *susp.ctx;
  ctx.trap = TrapKind::kNone;
  ctx.trap_msg.clear();
  ctx.pending_host_results = 0;
  // Materialize the host call's results exactly where CallHost would have
  // pushed them, then continue from the saved frame (fr->pc already points
  // past the call site). An empty frame stack means the suspended call WAS
  // the entry invocation; its results are the run's results.
  for (size_t i = 0; i < nres; ++i) {
    ctx.stack.push_back(results[i]);
  }
  TrapKind t = ctx.frames.empty() ? TrapKind::kNone : RunLoop(ctx);
  if (t == TrapKind::kSyscallPending) {
    susp.pending_results = ctx.pending_host_results;
    result.trap = t;
    result.trap_message = ctx.trap_msg;
    result.executed_instrs = ctx.executed;
    return result;
  }
  result = HarvestResult(ctx, susp.entry_type, t);
  susp.Discard();
  return result;
}

}  // namespace wasm
