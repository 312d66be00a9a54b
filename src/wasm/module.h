// In-memory module representation. Produced by the WAT parser or the binary
// decoder; consumed by the validator (which annotates branch instructions
// with resolved targets) and then by the interpreter.
#ifndef SRC_WASM_MODULE_H_
#define SRC_WASM_MODULE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/wasm/opcode.h"
#include "src/wasm/types.h"

namespace wasm {

// Block type immediate (stored in Instr::imm as the raw wire byte):
// 0x40 = empty, otherwise a valtype byte. Multi-value block types are not
// supported by this engine's validator.
inline constexpr uint64_t kVoidBlockType = 0x40;

// Pre-decoded instruction. 24 bytes. Field use per op:
//   consts:        imm = payload bits
//   local/global:  a = index
//   call:          a = function index
//   call_indirect: a = type index, b = table index
//   br/br_if:      before validation a = label depth; after validation
//                  a = target pc, b = unwind height, arity = label arity.
//                  imm always holds the original label depth (encoder use).
//   br_table:      a = index into Function::br_tables
//   block/loop:    imm = blocktype; (after validation) a = end pc
//   if:            imm = blocktype; a = false-branch target, b = end pc
//   else:          a = end pc
//   memory ops:    a = offset, b = align
// Superinstructions (prepare pass; never on the wire):
//   kFLocalLocalI32Add: a = lhs local, b = rhs local
//   kFI32AddConst:      imm = addend
//   kFLocalI32Load:     a = load offset, b = address local
//   kFLocalI64Load:     a = load offset, b = address local
//   kFBrIfEqz:          a/b/arity as br_if (branches when operand == 0)
//   kFI32CmpBrIf:       a/b/arity as br_if, imm = fused i32 comparison Op
//   kFI64CmpBrIf:       a/b/arity as br_if, imm = fused i64 comparison Op
//   kFLocalCopy:        a = src local, b = dst local
//   kFI32ConstOp:       b = fused i32 binop/cmp Op, imm = constant (rhs)
//   kFI64ConstOp:       b = fused i64 binop/cmp Op, imm = constant (rhs)
//   kFI32LoadOp:        a = load offset, b = fused i32 binop Op
//   kFI32CmpSel:        imm = fused i32 comparison Op (feeds select)
//   kFI64CmpSel:        imm = fused i64 comparison Op (feeds select)
//   kFLocalTeeBrIf:     a/b/arity as br_if, imm = local index (tee target)
//   kFLocalLocalCmp:    a = lhs local, b = rhs local, arity = i32 cmp Op
//   kFLocalLocalCmpBrIf: a/b/arity as br_if,
//                        imm = cmp Op | lhs local << 16 | rhs local << 32
//   kFLocalConstI32Op:  a = local, b = fused i32 binop/cmp Op, imm = const
//   kFLocalConstI32OpSet: a = src local, b = dst local, arity = i32 binop Op,
//                         imm = const (dst = op(src, const); no stack traffic)
//   kFCallWasm:         a = function index (statically known local wasm
//                       callee; the threaded loop takes an inline frame-push
//                       fast path with no host-function checks)
struct Instr {
  Op op = Op::kNop;
  uint8_t flags = 0;
  // Source instructions this op accounts for: 1 for every decoded wire op,
  // the fused sequence length for superinstructions. Fuel and executed_instrs
  // are charged in these units, so fused and unfused streams bill the same.
  uint8_t cost = 1;
  uint16_t arity = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  uint64_t imm = 0;

  static constexpr uint8_t kFlagBackward = 1;
};

// One resolved br_table target.
struct BrTarget {
  uint32_t pc = 0;      // jump destination
  uint32_t height = 0;  // operand stack height to unwind to
  uint16_t arity = 0;   // values carried
  uint32_t depth = 0;   // original label depth (pre-validation)
};

struct BrTable {
  std::vector<BrTarget> targets;  // last entry is the default
};

// Execution-optimized form of a function body, built by the prepare pass
// (src/wasm/prepare) after validation. `code` is the (optionally fused)
// instruction stream with branch targets remapped; `br_tables` are the
// remapped copies of Function::br_tables. `linear_cost[pc]` is the source-
// instruction cost from pc up to AND INCLUDING the next control-transfer op
// in linear order — the interpreter charges fuel per straight-line segment
// at segment entry instead of per instruction, and reconciles on traps.
struct PreparedCode {
  std::vector<Instr> code;
  std::vector<BrTable> br_tables;
  std::vector<uint32_t> linear_cost;
};

// Aggregate output of the prepare pass, kept on the Module so operators
// (walirun --serve) can attribute perf reports to the active fusion set.
// per_op[op - kFirstInternalOp] counts emissions of each superinstruction.
struct PrepareStats {
  uint32_t functions = 0;
  uint32_t source_instrs = 0;
  uint32_t prepared_instrs = 0;
  uint32_t fused = 0;  // superinstructions emitted (excludes kFCallWasm)
  uint32_t direct_calls = 0;  // kCall sites rewritten to kFCallWasm
  uint32_t per_op[kNumInternalOps] = {0};
};

// Per-function profile counters (host telemetry's tier-up signal). Indexed
// like Module::functions; written by the interpreter's frame-entry hooks
// with relaxed atomics, so concurrent instances of one module accumulate
// into the same slots without tearing.
struct FuncProfileSlot {
  std::atomic<uint64_t> entries{0};
  std::atomic<uint64_t> fuel{0};  // source instrs attributed to this function
};

// Per-function baseline-JIT tier state. Indexed like Module::functions.
// `heat` counts frame entries plus loop back-edges observed by the threaded
// loop's OSR hooks (it ticks even when func_profile telemetry is compiled
// out, and back-edges matter: a single-entry hot loop must still tier up).
// `state` is a CAS latch cold -> compiling -> {compiled, failed}; the winner
// publishes the code descriptor with a release store into `code` and every
// enter-site reads it with a plain acquire load, so concurrent instances of
// one cached module compile once and share the result.
struct JitFuncSlot {
  enum : uint32_t { kCold = 0, kCompiling = 1, kCompiled = 2, kFailed = 3 };
  std::atomic<const void*> code{nullptr};  // jit::CompiledFn, owned by state
  // Address of the compiled code's pc-0 gate: published with `code`, and
  // cleared again when the function is blacklisted. The one word every
  // enter-site reads to decide "enterable" — the dispatcher's
  // EnterableCode and the native call sequence at each direct call site.
  std::atomic<const void*> entry{nullptr};
  std::atomic<uint32_t> state{kCold};
  std::atomic<uint32_t> heat{0};
  // Deopt exits (unsupported op / trap re-execution / host call) from this
  // function's compiled code, and the source instructions compiled stints
  // entered at this function ran natively. The blacklist is amortized: a
  // function is evicted from the tier only once it has deopted often AND
  // rarely runs long between deopts (a loop that deopts every iteration is
  // slower than the interpreter; a function that deopts once per call and
  // then runs a long compiled loop is not).
  std::atomic<uint64_t> deopts{0};
  std::atomic<uint64_t> native_instrs{0};

  bool Blacklisted() const {
    return state.load(std::memory_order_acquire) == kCompiled &&
           entry.load(std::memory_order_relaxed) == nullptr;
  }
};

struct Module;

// Module-wide JIT tier state: one slot per local function plus the tier
// counters telemetry exports (jit_compiles_total and friends). The concrete
// subclass living in jit.cc owns the executable code buffers; this base is
// what module.h can name without pulling in the emitter. Allocated by
// PrepareModule (and REPLACED by it on re-prepare: compiled code is keyed to
// the prepared stream's pcs, so a fusion-level change must discard it).
struct JitModuleState {
  virtual ~JitModuleState() = default;
  // The module this state was prepared for. Compiled code bakes addresses
  // of that module's functions and types into its native call sequences,
  // so a copy of the Module (which shares this state through the
  // shared_ptr) must never enter it; the tier checks this at every
  // interpreter->compiled-code transition.
  const Module* owner = nullptr;
  std::unique_ptr<JitFuncSlot[]> slots;  // Module::functions.size() entries
  std::atomic<uint64_t> compiles{0};
  std::atomic<uint64_t> compile_failures{0};
  std::atomic<uint64_t> tierups{0};    // interpreter->jit entries taken
  std::atomic<uint64_t> osr_exits{0};  // deopt/host-call exits back to interp
  std::atomic<uint64_t> compile_nanos_sum{0};
  // Compile-time histogram, decade buckets matching
  // metrics::LatencyBoundsNanos() (1us..10s, +inf last). Kept as raw atomics
  // so module.h does not depend on the metrics layer; host::Telemetry
  // synthesizes a registry histogram from these at snapshot time.
  static constexpr size_t kCompileNanosBuckets = 9;
  std::atomic<uint64_t> compile_nanos_bucket[kCompileNanosBuckets] = {};
};

struct Function {
  uint32_t type_index = 0;
  std::vector<ValType> locals;  // non-param locals
  std::vector<Instr> code;      // terminated by kEnd; wire-faithful (encoder)
  std::vector<BrTable> br_tables;
  // Peak operand-stack height of the body (validator high-water mark,
  // excluding params/locals). Lets the threaded dispatch loop pre-size the
  // value stack once per frame and run on a raw stack pointer; fusion can
  // only lower the true peak, so this stays a safe bound for prepared code.
  uint32_t max_operand_stack = 0;
  // Built by Prepare (called from Validate); the interpreter executes this
  // stream except under SafepointScheme::kEveryInstr, which runs `code` so
  // per-instruction polling stays per *source* instruction.
  PreparedCode prepared;
  std::string debug_name;
};

enum class ExternKind : uint8_t { kFunc = 0, kTable = 1, kMemory = 2, kGlobal = 3 };

struct GlobalType {
  ValType type = ValType::kI32;
  bool mut = false;
};

// Constant initializer expression (module-level): a single const instruction
// or global.get of an imported immutable global.
struct InitExpr {
  enum class Kind : uint8_t { kConst, kGlobalGet };
  Kind kind = Kind::kConst;
  ValType type = ValType::kI32;
  uint64_t bits = 0;       // for kConst
  uint32_t global_index = 0;  // for kGlobalGet
};

struct Import {
  std::string module;
  std::string name;
  ExternKind kind = ExternKind::kFunc;
  uint32_t type_index = 0;  // kFunc
  Limits limits;            // kMemory / kTable
  GlobalType global_type;   // kGlobal
};

struct Export {
  std::string name;
  ExternKind kind = ExternKind::kFunc;
  uint32_t index = 0;
};

struct Global {
  GlobalType type;
  InitExpr init;
  std::string debug_name;
};

struct TableDecl {
  Limits limits;  // funcref tables only
};

struct MemoryDecl {
  Limits limits;  // units: 64 KiB pages
};

struct ElemSegment {
  uint32_t table_index = 0;
  InitExpr offset;
  std::vector<uint32_t> func_indices;
};

struct DataSegment {
  uint32_t memory_index = 0;
  InitExpr offset;
  std::vector<uint8_t> bytes;
};

struct Module {
  std::vector<FuncType> types;
  std::vector<Import> imports;
  std::vector<Function> functions;  // local (non-imported) functions
  std::vector<TableDecl> tables;    // local tables
  std::vector<MemoryDecl> memories;  // local memories
  std::vector<Global> globals;      // local globals
  std::vector<Export> exports;
  std::vector<ElemSegment> elems;
  std::vector<DataSegment> datas;
  std::optional<uint32_t> start;
  std::string name;

  bool validated = false;
  // Fusion statistics from the last PrepareModule / Validate run over this
  // module (per-superinstruction emission counts for perf attribution).
  PrepareStats prepare_stats;

  // Profile slots, one per local function; allocated by PrepareModule.
  // shared_ptr (not unique_ptr) keeps Module copyable: copies of a module
  // share one profile, which is what the telemetry consumer wants anyway.
  std::shared_ptr<FuncProfileSlot[]> func_profile;

  // Baseline-JIT tier state (slots + compiled code), allocated by
  // PrepareModule when the tier is compiled in, null otherwise. Shared for
  // the same reason as func_profile: host::ModuleCache hands out copies of
  // one cached Module, and they must share one set of compiled functions so
  // a hot tenant compiles once per content hash.
  std::shared_ptr<JitModuleState> jit;

  // Import-space counts (imports precede local definitions in index spaces).
  uint32_t num_imported_funcs = 0;
  uint32_t num_imported_tables = 0;
  uint32_t num_imported_memories = 0;
  uint32_t num_imported_globals = 0;

  uint32_t NumFuncs() const {
    return num_imported_funcs + static_cast<uint32_t>(functions.size());
  }
  uint32_t NumGlobals() const {
    return num_imported_globals + static_cast<uint32_t>(globals.size());
  }
  uint32_t NumMemories() const {
    return num_imported_memories + static_cast<uint32_t>(memories.size());
  }
  uint32_t NumTables() const {
    return num_imported_tables + static_cast<uint32_t>(tables.size());
  }

  // Type of function index `i` (import space first). Caller must ensure the
  // index is in range.
  uint32_t FuncTypeIndex(uint32_t i) const {
    if (i < num_imported_funcs) {
      uint32_t seen = 0;
      for (const Import& imp : imports) {
        if (imp.kind == ExternKind::kFunc) {
          if (seen == i) return imp.type_index;
          ++seen;
        }
      }
    }
    return functions[i - num_imported_funcs].type_index;
  }

  const Export* FindExport(const std::string& export_name, ExternKind kind) const {
    for (const Export& e : exports) {
      if (e.kind == kind && e.name == export_name) return &e;
    }
    return nullptr;
  }
};

}  // namespace wasm

#endif  // SRC_WASM_MODULE_H_
