#include "src/wasm/prepare.h"

#include <cstddef>
#include <vector>

#include "src/wasm/jit.h"

namespace wasm {

namespace {

// IsSegmentTerminator lives in prepare.h (shared with the JIT tier).

bool IsI32Cmp(Op op) {
  switch (op) {
    case Op::kI32Eq:
    case Op::kI32Ne:
    case Op::kI32LtS:
    case Op::kI32LtU:
    case Op::kI32GtS:
    case Op::kI32GtU:
    case Op::kI32LeS:
    case Op::kI32LeU:
    case Op::kI32GeS:
    case Op::kI32GeU:
      return true;
    default:
      return false;
  }
}

bool IsI64Cmp(Op op) {
  switch (op) {
    case Op::kI64Eq:
    case Op::kI64Ne:
    case Op::kI64LtS:
    case Op::kI64LtU:
    case Op::kI64GtS:
    case Op::kI64GtU:
    case Op::kI64LeS:
    case Op::kI64LeU:
    case Op::kI64GeS:
    case Op::kI64GeU:
      return true;
    default:
      return false;
  }
}

// Pure i32 binary operators safe to fold behind a fused op (no trapping
// division). Comparisons are included: they are binops producing an i32.
bool IsI32FoldableBinop(Op op) {
  switch (op) {
    case Op::kI32Add:
    case Op::kI32Sub:
    case Op::kI32Mul:
    case Op::kI32And:
    case Op::kI32Or:
    case Op::kI32Xor:
    case Op::kI32Shl:
    case Op::kI32ShrS:
    case Op::kI32ShrU:
    case Op::kI32Rotl:
    case Op::kI32Rotr:
      return true;
    default:
      return IsI32Cmp(op);
  }
}

bool IsI64FoldableBinop(Op op) {
  switch (op) {
    case Op::kI64Add:
    case Op::kI64Sub:
    case Op::kI64Mul:
    case Op::kI64And:
    case Op::kI64Or:
    case Op::kI64Xor:
    case Op::kI64Shl:
    case Op::kI64ShrS:
    case Op::kI64ShrU:
    case Op::kI64Rotl:
    case Op::kI64Rotr:
      return true;
    default:
      return IsI64Cmp(op);
  }
}

// Marks every pc that any control instruction can jump to. Fusion must not
// swallow a jump target into the middle of a superinstruction: the target
// would vanish from the rewritten stream. (Block/loop end annotations are
// included conservatively even though plain ends are only reached by
// fall-through.)
std::vector<uint8_t> ComputeLeaders(const Function& fn) {
  const std::vector<Instr>& code = fn.code;
  std::vector<uint8_t> leader(code.size(), 0);
  auto mark = [&](uint32_t pc) {
    if (pc < leader.size()) leader[pc] = 1;
  };
  for (const Instr& in : code) {
    switch (in.op) {
      case Op::kBlock:
      case Op::kLoop:
      case Op::kElse:
      case Op::kBr:
      case Op::kBrIf:
        mark(in.a);
        break;
      case Op::kIf:
        mark(in.a);
        mark(in.b);
        break;
      case Op::kBrTable:
        if (in.a < fn.br_tables.size()) {
          for (const BrTarget& t : fn.br_tables[in.a].targets) {
            mark(t.pc);
          }
        }
        break;
      default:
        break;
    }
  }
  return leader;
}

// Locals referenced by the packed-imm superinstructions must fit 16 bits.
bool PackableLocal(uint32_t idx) { return idx < (1u << 16); }

}  // namespace

void PrepareFunction(Function& fn, const PrepareOptions& opts,
                     PrepareStats* stats) {
  const std::vector<Instr>& src = fn.code;
  const size_t n = src.size();
  PreparedCode& out = fn.prepared;
  out.code.clear();
  out.code.reserve(n);
  out.br_tables = fn.br_tables;

  std::vector<uint8_t> leader = ComputeLeaders(fn);
  // Old pc -> new pc. Instructions swallowed by a fusion map to the fusion
  // head; nothing branches to them (leader check), so this is only for
  // map-completeness.
  std::vector<uint32_t> map(n, 0);

  uint32_t fused = 0;
  uint32_t direct_calls = 0;
  auto count_op = [&](Op op) {
    if (stats != nullptr) {
      uint32_t slot = static_cast<uint32_t>(op) - kFirstInternalOp;
      if (slot < kNumInternalOps) {
        ++stats->per_op[slot];
      }
    }
  };
  // Emits a superinstruction replacing `width` source ops starting at i.
  auto emit = [&](size_t i, size_t width, Instr f) {
    f.cost = static_cast<uint8_t>(width);
    for (size_t k = 1; k < width; ++k) {
      map[i + k] = map[i];
    }
    count_op(f.op);
    out.code.push_back(f);
    ++fused;
  };
  // True when the `width - 1` ops after i can be swallowed (no branch lands
  // inside the fused region).
  auto fusable = [&](size_t i, size_t width) {
    if (i + width > n) return false;
    for (size_t k = 1; k < width; ++k) {
      if (leader[i + k]) return false;
    }
    return true;
  };

  size_t i = 0;
  while (i < n) {
    map[i] = static_cast<uint32_t>(out.code.size());
    const Instr& a = src[i];
    if (opts.fuse) {
      // 4-op patterns first (widest match wins), then 3-op, then pairs.
      if (fusable(i, 4) && a.op == Op::kLocalGet &&
          src[i + 1].op == Op::kLocalGet && IsI32Cmp(src[i + 2].op) &&
          src[i + 3].op == Op::kBrIf && PackableLocal(a.a) &&
          PackableLocal(src[i + 1].a)) {
        // The hottest loop-header shape: compare two locals, branch.
        Instr f;
        f.op = Op::kFLocalLocalCmpBrIf;
        f.a = src[i + 3].a;
        f.b = src[i + 3].b;
        f.arity = src[i + 3].arity;
        f.imm = static_cast<uint64_t>(src[i + 2].op) |
                (static_cast<uint64_t>(a.a) << 16) |
                (static_cast<uint64_t>(src[i + 1].a) << 32);
        emit(i, 4, f);
        i += 4;
        continue;
      }
      if (fusable(i, 4) && a.op == Op::kLocalGet &&
          src[i + 1].op == Op::kI32Const && IsI32FoldableBinop(src[i + 2].op) &&
          !IsI32Cmp(src[i + 2].op) && src[i + 3].op == Op::kLocalSet) {
        // Loop-counter update (dst = op(src, const)): zero stack traffic.
        Instr f;
        f.op = Op::kFLocalConstI32OpSet;
        f.a = a.a;
        f.b = src[i + 3].a;
        f.arity = static_cast<uint16_t>(src[i + 2].op);
        f.imm = src[i + 1].imm;
        emit(i, 4, f);
        i += 4;
        continue;
      }
      if (fusable(i, 3) && a.op == Op::kLocalGet &&
          src[i + 1].op == Op::kLocalGet && src[i + 2].op == Op::kI32Add) {
        Instr f;
        f.op = Op::kFLocalLocalI32Add;
        f.a = a.a;
        f.b = src[i + 1].a;
        emit(i, 3, f);
        i += 3;
        continue;
      }
      if (fusable(i, 3) && a.op == Op::kLocalGet &&
          src[i + 1].op == Op::kLocalGet && IsI32Cmp(src[i + 2].op)) {
        Instr f;
        f.op = Op::kFLocalLocalCmp;
        f.a = a.a;
        f.b = src[i + 1].a;
        f.arity = static_cast<uint16_t>(src[i + 2].op);
        emit(i, 3, f);
        i += 3;
        continue;
      }
      if (fusable(i, 3) && a.op == Op::kLocalGet &&
          src[i + 1].op == Op::kI32Const && IsI32FoldableBinop(src[i + 2].op)) {
        Instr f;
        f.op = Op::kFLocalConstI32Op;
        f.a = a.a;
        f.b = static_cast<uint32_t>(src[i + 2].op);
        f.imm = src[i + 1].imm;
        emit(i, 3, f);
        i += 3;
        continue;
      }
      if (fusable(i, 2)) {
        const Instr& b = src[i + 1];
        Instr f;
        bool matched = true;
        if (a.op == Op::kLocalGet && b.op == Op::kI32Load) {
          f.op = Op::kFLocalI32Load;
          f.a = b.a;  // load offset
          f.b = a.a;  // address local
        } else if (a.op == Op::kLocalGet && b.op == Op::kI64Load) {
          f.op = Op::kFLocalI64Load;
          f.a = b.a;  // load offset
          f.b = a.a;  // address local
        } else if (a.op == Op::kLocalGet && b.op == Op::kLocalSet) {
          f.op = Op::kFLocalCopy;
          f.a = a.a;  // src local
          f.b = b.a;  // dst local
        } else if (a.op == Op::kI32Const && b.op == Op::kI32Add) {
          f.op = Op::kFI32AddConst;
          f.imm = a.imm;
        } else if (a.op == Op::kI32Const && IsI32FoldableBinop(b.op)) {
          f.op = Op::kFI32ConstOp;
          f.b = static_cast<uint32_t>(b.op);
          f.imm = a.imm;
        } else if (a.op == Op::kI64Const && IsI64FoldableBinop(b.op)) {
          f.op = Op::kFI64ConstOp;
          f.b = static_cast<uint32_t>(b.op);
          f.imm = a.imm;
        } else if (a.op == Op::kI32Load && IsI32FoldableBinop(b.op) &&
                   !IsI32Cmp(b.op)) {
          f.op = Op::kFI32LoadOp;
          f.a = a.a;  // load offset
          f.b = static_cast<uint32_t>(b.op);
        } else if (a.op == Op::kI32Eqz && b.op == Op::kBrIf) {
          f.op = Op::kFBrIfEqz;
          f.a = b.a;
          f.b = b.b;
          f.arity = b.arity;
        } else if (IsI32Cmp(a.op) && b.op == Op::kBrIf) {
          f.op = Op::kFI32CmpBrIf;
          f.imm = static_cast<uint64_t>(a.op);
          f.a = b.a;
          f.b = b.b;
          f.arity = b.arity;
        } else if (IsI64Cmp(a.op) && b.op == Op::kBrIf) {
          f.op = Op::kFI64CmpBrIf;
          f.imm = static_cast<uint64_t>(a.op);
          f.a = b.a;
          f.b = b.b;
          f.arity = b.arity;
        } else if (IsI32Cmp(a.op) && b.op == Op::kSelect) {
          f.op = Op::kFI32CmpSel;
          f.imm = static_cast<uint64_t>(a.op);
        } else if (IsI64Cmp(a.op) && b.op == Op::kSelect) {
          f.op = Op::kFI64CmpSel;
          f.imm = static_cast<uint64_t>(a.op);
        } else if (a.op == Op::kLocalTee && b.op == Op::kBrIf) {
          f.op = Op::kFLocalTeeBrIf;
          f.imm = static_cast<uint64_t>(a.a);  // tee'd local
          f.a = b.a;
          f.b = b.b;
          f.arity = b.arity;
        } else {
          matched = false;
        }
        if (matched) {
          emit(i, 2, f);
          i += 2;
          continue;
        }
      }
      // Direct-call rewrite (1:1, cost 1): a call whose callee is a local
      // wasm function of this module can skip the host-function checks and
      // take the threaded loop's inline frame-push fast path. Imported
      // callees (hosts, cross-module) keep the generic kCall.
      if (a.op == Op::kCall && opts.num_funcs != 0 &&
          a.a >= opts.num_imported_funcs && a.a < opts.num_funcs) {
        Instr f = a;
        f.op = Op::kFCallWasm;
        count_op(f.op);
        out.code.push_back(f);
        ++direct_calls;
        ++i;
        continue;
      }
    }
    out.code.push_back(a);
    ++i;
  }

  // Remap branch targets into the rewritten stream. Only control operands
  // hold pcs; indices (call targets, locals, memory offsets) pass through.
  for (Instr& in : out.code) {
    switch (in.op) {
      case Op::kBlock:
      case Op::kLoop:
      case Op::kElse:
      case Op::kBr:
      case Op::kBrIf:
      case Op::kFBrIfEqz:
      case Op::kFI32CmpBrIf:
      case Op::kFI64CmpBrIf:
      case Op::kFLocalTeeBrIf:
      case Op::kFLocalLocalCmpBrIf:
        in.a = map[in.a];
        break;
      case Op::kIf:
        in.a = map[in.a];
        in.b = map[in.b];
        break;
      default:
        break;
    }
  }
  for (BrTable& table : out.br_tables) {
    for (BrTarget& t : table.targets) {
      t.pc = map[t.pc];
    }
  }

  // Straight-line cost metadata: lc[pc] = source units from pc through the
  // next terminator (inclusive). The dispatch loop charges a whole segment
  // on entry and falls back to per-instruction accounting only when the
  // remaining fuel cannot cover the segment, so executed counts and the
  // kFuelExhausted boundary stay bit-identical to per-instruction charging.
  std::vector<uint32_t>& lc = out.linear_cost;
  lc.assign(out.code.size(), 0);
  uint32_t run = 0;
  for (size_t j = out.code.size(); j-- > 0;) {
    if (IsSegmentTerminator(out.code[j].op)) {
      run = out.code[j].cost;
    } else {
      run += out.code[j].cost;
    }
    lc[j] = run;
  }

  if (stats != nullptr) {
    ++stats->functions;
    stats->source_instrs += static_cast<uint32_t>(n);
    stats->prepared_instrs += static_cast<uint32_t>(out.code.size());
    stats->fused += fused;
    stats->direct_calls += direct_calls;
  }
}

PrepareStats PrepareModule(Module& module, const PrepareOptions& opts) {
  PrepareStats stats;
  PrepareOptions full = opts;
  full.num_imported_funcs = module.num_imported_funcs;
  full.num_funcs = module.NumFuncs();
  for (Function& fn : module.functions) {
    PrepareFunction(fn, full, &stats);
  }
  // Profile slots survive re-prepares: counts accumulated so far stay
  // attributed to the same function indices, which a re-prepare never moves.
  if (!module.functions.empty() && module.func_profile == nullptr) {
    module.func_profile = std::shared_ptr<FuncProfileSlot[]>(
        new FuncProfileSlot[module.functions.size()]());
  }
  // JIT tier state does NOT survive a re-prepare: compiled code is keyed to
  // the prepared stream's pcs, which this pass just rewrote. Null when the
  // tier is compiled out.
  module.jit = jit::CreateModuleState(module);
  module.prepare_stats = stats;
  return stats;
}

}  // namespace wasm
