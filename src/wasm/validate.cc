#include "src/wasm/validate.h"

#include <optional>
#include <string>
#include <vector>

#include "src/wasm/prepare.h"

namespace wasm {

namespace {

// Stack-effect signature for "simple" (non-control) operators, encoded as
// "<pops>:<push>" with i=i32, l=i64, f=f32, d=f64. Returns nullptr for
// operators handled specially.
const char* SimpleSig(Op op) {
  switch (op) {
    // consts
    case Op::kI32Const: return ":i";
    case Op::kI64Const: return ":l";
    case Op::kF32Const: return ":f";
    case Op::kF64Const: return ":d";
    // i32 unary/binary
    case Op::kI32Eqz: return "i:i";
    case Op::kI32Eq: case Op::kI32Ne: case Op::kI32LtS: case Op::kI32LtU:
    case Op::kI32GtS: case Op::kI32GtU: case Op::kI32LeS: case Op::kI32LeU:
    case Op::kI32GeS: case Op::kI32GeU:
      return "ii:i";
    case Op::kI32Clz: case Op::kI32Ctz: case Op::kI32Popcnt:
    case Op::kI32Extend8S: case Op::kI32Extend16S:
      return "i:i";
    case Op::kI32Add: case Op::kI32Sub: case Op::kI32Mul: case Op::kI32DivS:
    case Op::kI32DivU: case Op::kI32RemS: case Op::kI32RemU: case Op::kI32And:
    case Op::kI32Or: case Op::kI32Xor: case Op::kI32Shl: case Op::kI32ShrS:
    case Op::kI32ShrU: case Op::kI32Rotl: case Op::kI32Rotr:
      return "ii:i";
    // i64
    case Op::kI64Eqz: return "l:i";
    case Op::kI64Eq: case Op::kI64Ne: case Op::kI64LtS: case Op::kI64LtU:
    case Op::kI64GtS: case Op::kI64GtU: case Op::kI64LeS: case Op::kI64LeU:
    case Op::kI64GeS: case Op::kI64GeU:
      return "ll:i";
    case Op::kI64Clz: case Op::kI64Ctz: case Op::kI64Popcnt:
    case Op::kI64Extend8S: case Op::kI64Extend16S: case Op::kI64Extend32S:
      return "l:l";
    case Op::kI64Add: case Op::kI64Sub: case Op::kI64Mul: case Op::kI64DivS:
    case Op::kI64DivU: case Op::kI64RemS: case Op::kI64RemU: case Op::kI64And:
    case Op::kI64Or: case Op::kI64Xor: case Op::kI64Shl: case Op::kI64ShrS:
    case Op::kI64ShrU: case Op::kI64Rotl: case Op::kI64Rotr:
      return "ll:l";
    // f32
    case Op::kF32Eq: case Op::kF32Ne: case Op::kF32Lt: case Op::kF32Gt:
    case Op::kF32Le: case Op::kF32Ge:
      return "ff:i";
    case Op::kF32Abs: case Op::kF32Neg: case Op::kF32Ceil: case Op::kF32Floor:
    case Op::kF32Trunc: case Op::kF32Nearest: case Op::kF32Sqrt:
      return "f:f";
    case Op::kF32Add: case Op::kF32Sub: case Op::kF32Mul: case Op::kF32Div:
    case Op::kF32Min: case Op::kF32Max: case Op::kF32Copysign:
      return "ff:f";
    // f64
    case Op::kF64Eq: case Op::kF64Ne: case Op::kF64Lt: case Op::kF64Gt:
    case Op::kF64Le: case Op::kF64Ge:
      return "dd:i";
    case Op::kF64Abs: case Op::kF64Neg: case Op::kF64Ceil: case Op::kF64Floor:
    case Op::kF64Trunc: case Op::kF64Nearest: case Op::kF64Sqrt:
      return "d:d";
    case Op::kF64Add: case Op::kF64Sub: case Op::kF64Mul: case Op::kF64Div:
    case Op::kF64Min: case Op::kF64Max: case Op::kF64Copysign:
      return "dd:d";
    // conversions
    case Op::kI32WrapI64: return "l:i";
    case Op::kI32TruncF32S: case Op::kI32TruncF32U:
    case Op::kI32TruncSatF32S: case Op::kI32TruncSatF32U:
      return "f:i";
    case Op::kI32TruncF64S: case Op::kI32TruncF64U:
    case Op::kI32TruncSatF64S: case Op::kI32TruncSatF64U:
      return "d:i";
    case Op::kI64ExtendI32S: case Op::kI64ExtendI32U: return "i:l";
    case Op::kI64TruncF32S: case Op::kI64TruncF32U:
    case Op::kI64TruncSatF32S: case Op::kI64TruncSatF32U:
      return "f:l";
    case Op::kI64TruncF64S: case Op::kI64TruncF64U:
    case Op::kI64TruncSatF64S: case Op::kI64TruncSatF64U:
      return "d:l";
    case Op::kF32ConvertI32S: case Op::kF32ConvertI32U: return "i:f";
    case Op::kF32ConvertI64S: case Op::kF32ConvertI64U: return "l:f";
    case Op::kF32DemoteF64: return "d:f";
    case Op::kF64ConvertI32S: case Op::kF64ConvertI32U: return "i:d";
    case Op::kF64ConvertI64S: case Op::kF64ConvertI64U: return "l:d";
    case Op::kF64PromoteF32: return "f:d";
    case Op::kI32ReinterpretF32: return "f:i";
    case Op::kI64ReinterpretF64: return "d:l";
    case Op::kF32ReinterpretI32: return "i:f";
    case Op::kF64ReinterpretI64: return "l:d";
    // memory
    case Op::kI32Load: case Op::kI32Load8S: case Op::kI32Load8U:
    case Op::kI32Load16S: case Op::kI32Load16U:
      return "i:i";
    case Op::kI64Load: case Op::kI64Load8S: case Op::kI64Load8U:
    case Op::kI64Load16S: case Op::kI64Load16U: case Op::kI64Load32S:
    case Op::kI64Load32U:
      return "i:l";
    case Op::kF32Load: return "i:f";
    case Op::kF64Load: return "i:d";
    case Op::kI32Store: case Op::kI32Store8: case Op::kI32Store16: return "ii:";
    case Op::kI64Store: case Op::kI64Store8: case Op::kI64Store16:
    case Op::kI64Store32:
      return "il:";
    case Op::kF32Store: return "if:";
    case Op::kF64Store: return "id:";
    case Op::kMemorySize: return ":i";
    case Op::kMemoryGrow: return "i:i";
    case Op::kMemoryCopy: case Op::kMemoryFill: return "iii:";
    // atomics
    case Op::kAtomicNotify: return "ii:i";
    case Op::kAtomicWait32: return "iil:i";
    case Op::kAtomicWait64: return "ill:i";
    case Op::kAtomicFence: return ":";
    case Op::kI32AtomicLoad: return "i:i";
    case Op::kI64AtomicLoad: return "i:l";
    case Op::kI32AtomicStore: return "ii:";
    case Op::kI64AtomicStore: return "il:";
    case Op::kI32AtomicRmwAdd: case Op::kI32AtomicRmwSub:
    case Op::kI32AtomicRmwAnd: case Op::kI32AtomicRmwOr:
    case Op::kI32AtomicRmwXor: case Op::kI32AtomicRmwXchg:
      return "ii:i";
    case Op::kI64AtomicRmwAdd: case Op::kI64AtomicRmwSub:
    case Op::kI64AtomicRmwAnd: case Op::kI64AtomicRmwOr:
    case Op::kI64AtomicRmwXor: case Op::kI64AtomicRmwXchg:
      return "il:l";
    case Op::kI32AtomicRmwCmpxchg: return "iii:i";
    case Op::kI64AtomicRmwCmpxchg: return "ill:l";
    default:
      return nullptr;
  }
}

ValType TypeOfChar(char c) {
  switch (c) {
    case 'i': return ValType::kI32;
    case 'l': return ValType::kI64;
    case 'f': return ValType::kF32;
    default: return ValType::kF64;
  }
}

bool OpNeedsMemory(Op op) {
  ImmKind k = OpImmKind(op);
  if (k == ImmKind::kMem || k == ImmKind::kMemIdx || k == ImmKind::kMemMemIdx) {
    return op != Op::kAtomicFence;
  }
  return false;
}

class FunctionValidator {
 public:
  FunctionValidator(const Module& module, Function& fn,
                    const std::vector<GlobalType>& global_types)
      : module_(module), fn_(fn), global_types_(global_types) {
    const FuncType& type = module.types[fn.type_index];
    locals_.assign(type.params.begin(), type.params.end());
    locals_.insert(locals_.end(), fn.locals.begin(), fn.locals.end());
    result_arity_ = static_cast<uint16_t>(type.results.size());
    if (!type.results.empty()) {
      result_type_ = type.results[0];
    }
  }

  common::Status Run();

 private:
  struct Ctrl {
    Op op = Op::kBlock;
    std::optional<ValType> result;
    uint32_t height = 0;
    bool unreachable = false;
    uint32_t block_pc = 0;   // pc of the block/loop/if instruction
    uint32_t else_pc = 0;    // pc of kElse (for if)
    std::vector<uint32_t> br_fixups;  // pcs of br/br_if needing end target
    // (br_table index in fn.br_tables, target slot) pairs needing end target
    std::vector<std::pair<uint32_t, uint32_t>> table_fixups;
  };

  common::Status Fail(const std::string& msg) {
    return common::InvalidArgument("validate " +
                                   (fn_.debug_name.empty() ? "<fn>" : fn_.debug_name) +
                                   " @pc=" + std::to_string(pc_) + ": " + msg);
  }

  bool PopAny(std::optional<ValType>* out) {
    Ctrl& top = ctrls_.back();
    if (stack_.size() == top.height) {
      if (top.unreachable) {
        *out = std::nullopt;
        return true;
      }
      return false;
    }
    *out = stack_.back();
    stack_.pop_back();
    return true;
  }

  bool PopExpect(ValType want) {
    std::optional<ValType> got;
    if (!PopAny(&got)) return false;
    return !got.has_value() || *got == want;
  }

  void Push(ValType t) {
    stack_.push_back(t);
    if (stack_.size() > max_stack_) {
      max_stack_ = static_cast<uint32_t>(stack_.size());
    }
  }

  void MarkUnreachable() {
    Ctrl& top = ctrls_.back();
    stack_.resize(top.height);
    top.unreachable = true;
  }

  common::Status CheckLabel(uint32_t depth, Ctrl** out) {
    if (depth >= ctrls_.size()) {
      return Fail("branch depth out of range");
    }
    *out = &ctrls_[ctrls_.size() - 1 - depth];
    return common::OkStatus();
  }

  // Label arity: loops take no values; blocks/ifs carry their result.
  uint16_t LabelArity(const Ctrl& c) const {
    if (c.op == Op::kLoop) return 0;
    return c.result.has_value() ? 1 : 0;
  }
  std::optional<ValType> LabelType(const Ctrl& c) const {
    if (c.op == Op::kLoop) return std::nullopt;
    return c.result;
  }

  // Pops (and re-pushes) the values a branch to `c` carries.
  common::Status CheckBranchValues(const Ctrl& c) {
    if (LabelArity(c) == 1) {
      if (!PopExpect(*LabelType(c))) return Fail("branch value type mismatch");
      Push(*LabelType(c));
    }
    return common::OkStatus();
  }

  // Fills a branch instruction's runtime operands for a resolved target.
  void AnnotateBranch(Instr& in, const Ctrl& c) {
    in.arity = LabelArity(c);
    in.b = c.height;
    if (c.op == Op::kLoop) {
      in.a = c.block_pc;  // jump to the loop header (safepoint site)
    }
    // Forward targets patched at kEnd via fixups.
  }

  common::Status ParseBlockType(uint64_t imm, std::optional<ValType>* out) {
    if (imm == kVoidBlockType) {
      *out = std::nullopt;
      return common::OkStatus();
    }
    switch (imm) {
      case 0x7F: *out = ValType::kI32; return common::OkStatus();
      case 0x7E: *out = ValType::kI64; return common::OkStatus();
      case 0x7D: *out = ValType::kF32; return common::OkStatus();
      case 0x7C: *out = ValType::kF64; return common::OkStatus();
      default:
        return Fail("unsupported block type (multi-value blocks not supported)");
    }
  }

  const Module& module_;
  Function& fn_;
  const std::vector<GlobalType>& global_types_;
  std::vector<ValType> locals_;
  std::vector<ValType> stack_;
  std::vector<Ctrl> ctrls_;
  uint32_t pc_ = 0;
  uint16_t result_arity_ = 0;
  uint32_t max_stack_ = 0;
  std::optional<ValType> result_type_;
};

common::Status FunctionValidator::Run() {
  if (fn_.code.empty() || fn_.code.back().op != Op::kEnd) {
    return Fail("function body must end with 'end'");
  }
  // Function-level pseudo-label: branches to it return from the function.
  Ctrl root;
  root.op = Op::kBlock;
  root.result = result_type_;
  root.height = 0;
  root.block_pc = 0;
  ctrls_.push_back(root);

  const uint32_t end_of_body = static_cast<uint32_t>(fn_.code.size());

  for (pc_ = 0; pc_ < fn_.code.size(); ++pc_) {
    Instr& in = fn_.code[pc_];
    if (OpNeedsMemory(in.op) && module_.NumMemories() == 0) {
      return Fail("memory instruction without declared memory");
    }

    const char* sig = SimpleSig(in.op);
    if (sig != nullptr) {
      const char* colon = sig;
      while (*colon != ':') ++colon;
      for (const char* p = colon - 1; p >= sig; --p) {
        if (!PopExpect(TypeOfChar(*p))) return Fail(std::string("operand mismatch for ") + OpName(in.op));
      }
      if (colon[1] != '\0') {
        Push(TypeOfChar(colon[1]));
      }
      continue;
    }

    switch (in.op) {
      case Op::kUnreachable:
        MarkUnreachable();
        break;
      case Op::kNop:
        break;
      case Op::kBlock:
      case Op::kLoop: {
        Ctrl c;
        c.op = in.op;
        RETURN_IF_ERROR(ParseBlockType(in.imm, &c.result));
        c.height = static_cast<uint32_t>(stack_.size());
        c.block_pc = pc_;
        ctrls_.push_back(c);
        break;
      }
      case Op::kIf: {
        if (!PopExpect(ValType::kI32)) return Fail("if condition must be i32");
        Ctrl c;
        c.op = Op::kIf;
        RETURN_IF_ERROR(ParseBlockType(in.imm, &c.result));
        c.height = static_cast<uint32_t>(stack_.size());
        c.block_pc = pc_;
        ctrls_.push_back(c);
        break;
      }
      case Op::kElse: {
        Ctrl& c = ctrls_.back();
        if (c.op != Op::kIf) return Fail("else without if");
        // Check then-branch produced the result.
        if (c.result.has_value() && !c.unreachable) {
          if (stack_.size() != c.height + 1 || stack_.back() != *c.result) {
            return Fail("then branch result mismatch");
          }
        } else if (!c.unreachable && stack_.size() != c.height) {
          return Fail("then branch stack mismatch");
        }
        stack_.resize(c.height);
        c.unreachable = false;
        c.op = Op::kElse;
        c.else_pc = pc_;
        // if jumps past the else instruction when the condition is false.
        fn_.code[c.block_pc].a = pc_ + 1;
        break;
      }
      case Op::kEnd: {
        Ctrl c = ctrls_.back();
        // Result check.
        if (c.result.has_value() && !c.unreachable) {
          if (stack_.size() != c.height + 1 || stack_.back() != *c.result) {
            return Fail("block result mismatch at end");
          }
        } else if (!c.unreachable && stack_.size() != c.height) {
          return Fail("stack height mismatch at end");
        }
        if (c.op == Op::kIf && c.result.has_value()) {
          return Fail("if with result requires else branch");
        }
        ctrls_.pop_back();
        const bool is_function_end = ctrls_.empty();
        uint32_t end_target = is_function_end ? end_of_body : pc_;
        // Patch the structured-control operands (not for the function-level
        // pseudo-label, which has no real block instruction).
        if (!is_function_end) {
          if (c.op == Op::kIf) {
            fn_.code[c.block_pc].a = end_target;  // no else: false -> end
            fn_.code[c.block_pc].b = end_target;
          } else if (c.op == Op::kElse) {
            fn_.code[c.block_pc].b = end_target;
            fn_.code[c.else_pc].a = end_target;
          } else if (c.op == Op::kBlock || c.op == Op::kLoop) {
            fn_.code[c.block_pc].a = end_target;
          }
        }
        for (uint32_t fixup_pc : c.br_fixups) {
          fn_.code[fixup_pc].a = end_target;
        }
        for (auto [table_idx, slot] : c.table_fixups) {
          fn_.br_tables[table_idx].targets[slot].pc = end_target;
        }
        stack_.resize(c.height);
        if (c.result.has_value()) {
          Push(*c.result);
        }
        if (is_function_end && pc_ + 1 != fn_.code.size()) {
          return Fail("trailing instructions after function end");
        }
        break;
      }
      case Op::kBr: {
        Ctrl* target;
        RETURN_IF_ERROR(CheckLabel(in.a, &target));
        RETURN_IF_ERROR(CheckBranchValues(*target));
        AnnotateBranch(in, *target);
        if (target->op != Op::kLoop) {
          target->br_fixups.push_back(pc_);
        }
        MarkUnreachable();
        break;
      }
      case Op::kBrIf: {
        if (!PopExpect(ValType::kI32)) return Fail("br_if condition must be i32");
        Ctrl* target;
        RETURN_IF_ERROR(CheckLabel(in.a, &target));
        RETURN_IF_ERROR(CheckBranchValues(*target));
        AnnotateBranch(in, *target);
        if (target->op != Op::kLoop) {
          target->br_fixups.push_back(pc_);
        }
        break;
      }
      case Op::kBrTable: {
        if (!PopExpect(ValType::kI32)) return Fail("br_table index must be i32");
        if (in.a >= fn_.br_tables.size()) return Fail("br_table side index out of range");
        BrTable& table = fn_.br_tables[in.a];
        if (table.targets.empty()) return Fail("br_table without default");
        std::optional<uint16_t> arity;
        for (size_t slot = 0; slot < table.targets.size(); ++slot) {
          BrTarget& t = table.targets[slot];
          Ctrl* target;
          RETURN_IF_ERROR(CheckLabel(t.depth, &target));
          if (!arity.has_value()) {
            arity = LabelArity(*target);
          } else if (*arity != LabelArity(*target)) {
            return Fail("br_table targets have mismatched arities");
          }
          RETURN_IF_ERROR(CheckBranchValues(*target));
          t.arity = LabelArity(*target);
          t.height = target->height;
          if (target->op == Op::kLoop) {
            t.pc = target->block_pc;
          } else {
            target->table_fixups.emplace_back(in.a, static_cast<uint32_t>(slot));
          }
        }
        MarkUnreachable();
        break;
      }
      case Op::kReturn: {
        if (result_arity_ == 1) {
          if (!PopExpect(*result_type_)) return Fail("return value type mismatch");
        }
        MarkUnreachable();
        break;
      }
      case Op::kCall: {
        if (in.a >= module_.NumFuncs()) return Fail("call target out of range");
        const FuncType& t = module_.types[module_.FuncTypeIndex(in.a)];
        for (size_t i = t.params.size(); i > 0; --i) {
          if (!PopExpect(t.params[i - 1])) return Fail("call argument mismatch");
        }
        for (ValType r : t.results) Push(r);
        break;
      }
      case Op::kCallIndirect: {
        if (in.a >= module_.types.size()) return Fail("call_indirect type out of range");
        if (in.b >= module_.NumTables()) return Fail("call_indirect table out of range");
        if (!PopExpect(ValType::kI32)) return Fail("call_indirect index must be i32");
        const FuncType& t = module_.types[in.a];
        for (size_t i = t.params.size(); i > 0; --i) {
          if (!PopExpect(t.params[i - 1])) return Fail("call_indirect argument mismatch");
        }
        for (ValType r : t.results) Push(r);
        break;
      }
      case Op::kDrop: {
        std::optional<ValType> v;
        if (!PopAny(&v)) return Fail("drop on empty stack");
        break;
      }
      case Op::kSelect: {
        if (!PopExpect(ValType::kI32)) return Fail("select condition must be i32");
        std::optional<ValType> b, a;
        if (!PopAny(&b) || !PopAny(&a)) return Fail("select on empty stack");
        if (a.has_value() && b.has_value() && *a != *b) {
          return Fail("select operand type mismatch");
        }
        std::optional<ValType> out = a.has_value() ? a : b;
        Push(out.value_or(ValType::kI32));
        break;
      }
      case Op::kLocalGet:
        if (in.a >= locals_.size()) return Fail("local index out of range");
        Push(locals_[in.a]);
        break;
      case Op::kLocalSet:
        if (in.a >= locals_.size()) return Fail("local index out of range");
        if (!PopExpect(locals_[in.a])) return Fail("local.set type mismatch");
        break;
      case Op::kLocalTee:
        if (in.a >= locals_.size()) return Fail("local index out of range");
        if (!PopExpect(locals_[in.a])) return Fail("local.tee type mismatch");
        Push(locals_[in.a]);
        break;
      case Op::kGlobalGet:
        if (in.a >= global_types_.size()) return Fail("global index out of range");
        Push(global_types_[in.a].type);
        break;
      case Op::kGlobalSet:
        if (in.a >= global_types_.size()) return Fail("global index out of range");
        if (!global_types_[in.a].mut) return Fail("global.set on immutable global");
        if (!PopExpect(global_types_[in.a].type)) return Fail("global.set type mismatch");
        break;
      default:
        return Fail(std::string("unhandled opcode ") + OpName(in.op));
    }
  }

  if (!ctrls_.empty()) {
    return Fail("unterminated blocks at end of function");
  }
  // Synthetic return executed when control falls off (or branches to) the
  // function-level label.
  Instr ret;
  ret.op = Op::kReturn;
  fn_.code.push_back(ret);
  fn_.max_operand_stack = max_stack_;
  return common::OkStatus();
}

common::Status ValidateInitExpr(const Module& module, const InitExpr& init,
                                ValType want, uint32_t num_imported_globals) {
  if (init.kind == InitExpr::Kind::kConst) {
    if (init.type != want) {
      return common::InvalidArgument("init expr type mismatch");
    }
    return common::OkStatus();
  }
  if (init.global_index >= num_imported_globals) {
    return common::InvalidArgument("init expr may only reference imported globals");
  }
  return common::OkStatus();
}

}  // namespace

common::Status Validate(Module& module) {
  if (module.validated) {
    return common::OkStatus();
  }

  for (const FuncType& t : module.types) {
    if (t.results.size() > 1) {
      return common::Unimplemented("multi-value results not supported");
    }
  }

  // Recompute import-space counts (parsers fill them, but keep this the
  // single source of truth).
  module.num_imported_funcs = 0;
  module.num_imported_tables = 0;
  module.num_imported_memories = 0;
  module.num_imported_globals = 0;
  std::vector<GlobalType> global_types;
  for (const Import& imp : module.imports) {
    switch (imp.kind) {
      case ExternKind::kFunc:
        if (imp.type_index >= module.types.size()) {
          return common::InvalidArgument("import type index out of range");
        }
        ++module.num_imported_funcs;
        break;
      case ExternKind::kTable:
        ++module.num_imported_tables;
        break;
      case ExternKind::kMemory:
        ++module.num_imported_memories;
        break;
      case ExternKind::kGlobal:
        ++module.num_imported_globals;
        global_types.push_back(imp.global_type);
        break;
    }
  }
  for (const Global& g : module.globals) {
    RETURN_IF_ERROR(ValidateInitExpr(module, g.init, g.type.type,
                                     module.num_imported_globals));
    global_types.push_back(g.type);
  }

  for (const MemoryDecl& m : module.memories) {
    if (m.limits.has_max && m.limits.min > m.limits.max) {
      return common::InvalidArgument("memory min > max");
    }
    if (m.limits.min > (1ULL << 16)) {
      return common::InvalidArgument("memory min exceeds 4GiB");
    }
  }

  for (const Function& f : module.functions) {
    if (f.type_index >= module.types.size()) {
      return common::InvalidArgument("function type index out of range");
    }
  }

  for (const Export& e : module.exports) {
    uint32_t limit = 0;
    switch (e.kind) {
      case ExternKind::kFunc: limit = module.NumFuncs(); break;
      case ExternKind::kTable: limit = module.NumTables(); break;
      case ExternKind::kMemory: limit = module.NumMemories(); break;
      case ExternKind::kGlobal: limit = module.NumGlobals(); break;
    }
    if (e.index >= limit) {
      return common::InvalidArgument("export index out of range: " + e.name);
    }
  }

  for (const ElemSegment& seg : module.elems) {
    if (seg.table_index >= module.NumTables()) {
      return common::InvalidArgument("elem table index out of range");
    }
    RETURN_IF_ERROR(ValidateInitExpr(module, seg.offset, ValType::kI32,
                                     module.num_imported_globals));
    for (uint32_t fi : seg.func_indices) {
      if (fi >= module.NumFuncs()) {
        return common::InvalidArgument("elem function index out of range");
      }
    }
  }
  for (const DataSegment& seg : module.datas) {
    if (seg.memory_index >= module.NumMemories()) {
      return common::InvalidArgument("data memory index out of range");
    }
    RETURN_IF_ERROR(ValidateInitExpr(module, seg.offset, ValType::kI32,
                                     module.num_imported_globals));
  }

  if (module.start.has_value()) {
    if (*module.start >= module.NumFuncs()) {
      return common::InvalidArgument("start function index out of range");
    }
    const FuncType& t = module.types[module.FuncTypeIndex(*module.start)];
    if (!t.params.empty() || !t.results.empty()) {
      return common::InvalidArgument("start function must have type () -> ()");
    }
  }

  for (Function& f : module.functions) {
    FunctionValidator v(module, f, global_types);
    RETURN_IF_ERROR(v.Run());
  }
  // Translate the annotated bodies into their execution form (fused
  // superinstructions + block fuel metadata, plus the per-module profile
  // and tier state) while we still hold the mutable module — everything
  // downstream shares it as const.
  PrepareModule(module);

  module.validated = true;
  return common::OkStatus();
}

}  // namespace wasm
