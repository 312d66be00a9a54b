// The interpreter. Executes pre-decoded, validator-annotated instruction
// streams. Signal-poll safepoints (paper §3.3) are issued according to
// ExecOptions::scheme: on backward branches (loop headers), on function
// entry, or after every instruction.
#ifndef SRC_WASM_INTERP_H_
#define SRC_WASM_INTERP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/wasm/instance.h"
#include "src/wasm/module.h"
#include "src/wasm/types.h"

namespace wasm {

inline constexpr size_t kMaxHostArgs = 16;
inline constexpr size_t kMaxHostResults = 8;

class ExecContext {
 public:
  struct Frame {
    Instance* inst = nullptr;
    const Function* fn = nullptr;
    // Executed stream: fn->prepared.code normally, fn->code under the
    // kEveryInstr scheme (per-source-instruction polling). `tables` and
    // `lcost` match the chosen stream; lcost is null for the unfused
    // stream, which pins the frame to the switch loop.
    const Instr* code = nullptr;
    const BrTable* tables = nullptr;
    const uint32_t* lcost = nullptr;
    uint32_t pc = 0;
    uint32_t locals_base = 0;  // stack slot where params/locals begin
    // Operand stack floor for this frame. Frames are laid out as
    // `locals | gap | operands`: slot stack_base - 1 is a scratch ("gap")
    // slot that absorbs the threaded loop's dead TOS-cache spills when the
    // operand stack is empty (see interp_body.inc); operand k lives at
    // stack_base + k in both dispatch loops.
    uint32_t stack_base = 0;
    Memory* mem = nullptr;     // cached memory 0 of inst
    const FuncType* type = nullptr;
  };

  // The call stack: a fixed-layout {data, size, capacity} triple rather
  // than a std::vector, because the baseline JIT pushes and pops frames
  // from emitted code by raw offset (the offsets below are static_asserted
  // in the destructor; jit.cc bakes them and Frame's field offsets into
  // its native call sequence). Only the C++ push paths and reserve()
  // reallocate, and emitted code pushes only while size < capacity, so
  // frame addresses are stable for the length of a compiled stint.
  class FrameStack {
   public:
    static constexpr size_t kDataOffset = 0;
    static constexpr size_t kSizeOffset = 8;
    static constexpr size_t kCapacityOffset = 16;

    FrameStack() = default;
    FrameStack(const FrameStack&) = delete;
    FrameStack& operator=(const FrameStack&) = delete;
    FrameStack(FrameStack&& other) noexcept { swap(other); }
    FrameStack& operator=(FrameStack&& other) noexcept {
      swap(other);
      return *this;
    }
    ~FrameStack();

    size_t size() const { return size_; }
    size_t capacity() const { return capacity_; }
    bool empty() const { return size_ == 0; }
    Frame& back() { return data_[size_ - 1]; }
    const Frame& back() const { return data_[size_ - 1]; }
    Frame* begin() { return data_; }
    Frame* end() { return data_ + size_; }
    const Frame* begin() const { return data_; }
    const Frame* end() const { return data_ + size_; }

    void push_back(const Frame& f) { emplace_back() = f; }
    // Appends a frame slot for the caller to fill field by field. The hot
    // push paths use this: a frame assembled in a local and then copied in
    // costs a store-forwarding stall per call (narrow stores, wide loads).
    Frame& emplace_back() {
      if (__builtin_expect(size_ == capacity_, 0)) Grow();
      return data_[size_++];
    }
    void pop_back() { --size_; }
    void clear() { size_ = 0; }
    void reserve(size_t n);
    void swap(FrameStack& other) {
      std::swap(data_, other.data_);
      std::swap(size_, other.size_);
      std::swap(capacity_, other.capacity_);
    }

   private:
    // Out of line: push_back is inlined into both dispatch loops, and the
    // reallocation must not be.
    void Grow();

    Frame* data_ = nullptr;
    size_t size_ = 0;
    size_t capacity_ = 0;
  };

  Instance* root = nullptr;
  ExecOptions opts;
  std::vector<uint64_t> stack;
  FrameStack frames;
  TrapKind trap = TrapKind::kNone;
  std::string trap_msg;
  int32_t exit_code = 0;
  uint64_t executed = 0;
  const SafepointFn* poll = nullptr;
  // Result arity of the host call that suspended (kSyscallPending): how
  // many operand-stack slots ResumeInvoke must materialize before the
  // interpreter continues past the call site.
  uint32_t pending_host_results = 0;
  // Frame-entry profiling state (ExecOptions::profile): the slot of the
  // function currently being attributed, the value of `executed` at which
  // attribution last advanced, and entry/fuel counts owed to that slot but
  // not yet flushed to its shared atomics. Fuel between marks is charged to
  // the function whose frame was most recently entered (entry-sampled —
  // returns do not switch attribution back, keeping the hook off the return
  // path). Batching matters: self-recursion re-enters the same slot, so the
  // hot path is pure context-local arithmetic; the atomics are touched only
  // when attribution moves to a different function (and at harvest).
  FuncProfileSlot* profile_slot = nullptr;
  uint64_t profile_mark = 0;
  uint64_t profile_pending_entries = 0;
  uint64_t profile_pending_fuel = 0;
  // ---- baseline-JIT tier state (WASM_JIT builds; inert otherwise) ----
  // Resolved once per RunLoop: true when this run may tier up at all. The
  // threaded loop's OSR hooks check this one bool before anything else.
  bool jit_active = false;
  // Set by the threaded loop when an OSR hook selected compiled code: the
  // loop has synced fr->pc/executed/stack and returned kNone with frames
  // still live; RunLoop's driver hands control to jit::Execute.
  bool jit_enter = false;
  // One-shot inhibit: after a deopt exit the interpreter must make progress
  // past (frame, pc) before the tier re-enters, or a persistent deopt
  // condition (unsupported op, repeating trap re-execution) would ping-pong
  // interp<->jit without advancing. Keyed by frames.size() + pc; consumed
  // (cleared) by the first matching hook.
  size_t jit_inhibit_frame = 0;
  uint32_t jit_inhibit_pc = 0;
  bool jit_inhibit = false;

  Instance* current_instance() {
    return frames.empty() ? root : frames.back().inst;
  }
  Memory* current_memory() {
    if (!frames.empty() && frames.back().mem != nullptr) {
      return frames.back().mem;
    }
    auto m = root != nullptr ? root->memory(0) : nullptr;
    return m.get();
  }

  void SetTrap(TrapKind kind, const char* msg = nullptr) {
    trap = kind;
    if (msg != nullptr) {
      trap_msg = msg;
    }
  }
  // Clean process-style exit; unwinds the interpreter with kExit.
  void RequestExit(int32_t code) {
    exit_code = code;
    trap = TrapKind::kExit;
  }
};

// Recyclable interpreter buffers (see ExecOptions::buffers): Invoke swaps
// these in on entry and back out on exit, so capacity grown by one run is
// reused by the next instead of being reallocated. One owner per concurrent
// invocation (host::InstancePool keeps one per pooled process slot).
struct ExecBuffers {
  std::vector<uint64_t> stack;
  ExecContext::FrameStack frames;
};

inline ExecContext::FrameStack::~FrameStack() {
  // Member-function bodies see the complete class: pin the layout here.
  static_assert(offsetof(FrameStack, data_) == kDataOffset &&
                    offsetof(FrameStack, size_) == kSizeOffset &&
                    offsetof(FrameStack, capacity_) == kCapacityOffset,
                "frame stack layout");
  delete[] data_;
}


// A parked invocation: the full interpreter state of a run that unwound at
// a host-call boundary with TrapKind::kSyscallPending. Filled by Invoke
// when ExecOptions::suspend_to points here and a host function suspends;
// consumed by ResumeInvoke (continue) or Discard (abandon). The suspension
// pins the instance graph and any ExecBuffers the invocation borrowed, so
// it must not outlive either.
struct Suspension {
  std::unique_ptr<ExecContext> ctx;
  const FuncType* entry_type = nullptr;  // result marshaling at final exit
  ExecBuffers* buffers = nullptr;        // returned on finish/discard
  uint32_t pending_results = 0;          // slots ResumeInvoke must supply

  bool armed() const { return ctx != nullptr; }
  // Abandons the parked run: drops the interpreter state and hands any
  // borrowed buffers (with their grown capacity) back to their owner.
  void Discard();
};

// Invokes `ref` (wasm or host function) with typed arguments.
RunResult Invoke(Instance* inst, const FuncRef& ref, const std::vector<Value>& args,
                 const ExecOptions& opts);

// Continues a parked invocation: pushes the suspended host call's results
// (`results[0..nres)`, which must match Suspension::pending_results) and
// re-enters the dispatch loop at the saved frame. Returns exactly what the
// uninterrupted Invoke would have — executed_instrs, fuel accounting, traps
// and result values are bit-identical to a run whose host call completed
// synchronously — or suspends again (kSyscallPending) if another host call
// parks. The suspension is disarmed on any non-pending return.
RunResult ResumeInvoke(Suspension& susp, const uint64_t* results, size_t nres);

// Dispatch loop; returns the trap kind (kNone on normal completion).
// Resolves ExecOptions::dispatch: computed-goto threaded dispatch with
// block-granular fuel/safepoint accounting when available, the portable
// switch loop otherwise (and always for SafepointScheme::kEveryInstr).
TrapKind RunLoop(ExecContext& ctx);

}  // namespace wasm

#endif  // SRC_WASM_INTERP_H_
