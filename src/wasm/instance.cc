#include "src/wasm/instance.h"

#include <cstring>

#include "src/common/logging.h"
#include "src/wasm/interp.h"

namespace wasm {

const char* DispatchModeName(DispatchMode m) {
  switch (m) {
    case DispatchMode::kAuto: return "auto";
    case DispatchMode::kSwitch: return "switch";
    case DispatchMode::kThreaded: return "threaded";
  }
  return "<bad>";
}

const char* SafepointSchemeName(SafepointScheme s) {
  switch (s) {
    case SafepointScheme::kNone: return "none";
    case SafepointScheme::kLoop: return "loop";
    case SafepointScheme::kFunction: return "function";
    case SafepointScheme::kEveryInstr: return "all";
  }
  return "<bad>";
}

common::StatusOr<uint32_t> Instance::FindExportedFuncIndex(const std::string& name) const {
  const Export* e = module_->FindExport(name, ExternKind::kFunc);
  if (e == nullptr) {
    return common::NotFound("no exported function named '" + name + "'");
  }
  return e->index;
}

RunResult Instance::Call(uint32_t func_index, const std::vector<Value>& args,
                         const ExecOptions& opts) {
  if (func_index >= funcs_.size()) {
    RunResult r;
    r.trap = TrapKind::kHostError;
    r.trap_message = "function index out of range";
    return r;
  }
  return CallRef(funcs_[func_index], args, opts);
}

RunResult Instance::CallExport(const std::string& export_name,
                               const std::vector<Value>& args, const ExecOptions& opts) {
  auto idx = FindExportedFuncIndex(export_name);
  if (!idx.ok()) {
    RunResult r;
    r.trap = TrapKind::kHostError;
    r.trap_message = idx.status().ToString();
    return r;
  }
  return Call(*idx, args, opts);
}

RunResult Instance::CallRef(const FuncRef& ref, const std::vector<Value>& args,
                            const ExecOptions& opts) {
  return Invoke(this, ref, args, opts);
}

void Linker::DefineHostFunc(const std::string& module, const std::string& name,
                            FuncType type, HostFn fn) {
  auto host = std::make_unique<HostFunc>();
  host->type = std::move(type);
  host->fn = std::move(fn);
  host->name = module + "." + name;
  ExternVal val;
  val.kind = ExternKind::kFunc;
  val.funcref.type = &host->type;
  val.funcref.host = host.get();
  defs_[Key(module, name)] = std::move(val);
  host_funcs_.push_back(std::move(host));
}

void Linker::DefineMemory(const std::string& module, const std::string& name,
                          std::shared_ptr<Memory> memory) {
  ExternVal val;
  val.kind = ExternKind::kMemory;
  val.memory = std::move(memory);
  defs_[Key(module, name)] = std::move(val);
}

void Linker::DefineTable(const std::string& module, const std::string& name,
                         std::shared_ptr<TableInst> table) {
  ExternVal val;
  val.kind = ExternKind::kTable;
  val.table = std::move(table);
  defs_[Key(module, name)] = std::move(val);
}

void Linker::DefineGlobal(const std::string& module, const std::string& name,
                          GlobalType type, uint64_t bits) {
  ExternVal val;
  val.kind = ExternKind::kGlobal;
  val.global_type = type;
  val.global_bits = bits;
  defs_[Key(module, name)] = std::move(val);
}

common::Status Linker::DefineInstanceExports(const std::string& as_module,
                                             Instance* instance) {
  for (const Export& e : instance->module().exports) {
    if (e.kind == ExternKind::kFunc) {
      ExternVal val;
      val.kind = ExternKind::kFunc;
      val.funcref = instance->func(e.index);
      defs_[Key(as_module, e.name)] = std::move(val);
    } else if (e.kind == ExternKind::kMemory) {
      ExternVal val;
      val.kind = ExternKind::kMemory;
      val.memory = instance->memory(e.index);
      defs_[Key(as_module, e.name)] = std::move(val);
    }
  }
  return common::OkStatus();
}

common::StatusOr<std::unique_ptr<Instance>> Linker::Instantiate(
    std::shared_ptr<const Module> module) {
  return Instantiate(std::move(module), InstantiateOptions());
}

common::StatusOr<std::unique_ptr<Instance>> Linker::Instantiate(
    std::shared_ptr<const Module> module, const InstantiateOptions& opts) {
  if (!module->validated) {
    return common::FailedPrecondition("module must be validated before instantiation");
  }
  auto inst = std::unique_ptr<Instance>(new Instance());
  inst->module_ = module;
  inst->name_ = opts.instance_name.empty() ? module->name : opts.instance_name;
  inst->user_data_ = opts.user_data;

  // Resolve imports in declaration order.
  for (const Import& imp : module->imports) {
    auto it = defs_.find(Key(imp.module, imp.name));
    if (it == defs_.end()) {
      return common::NotFound("unresolved import " + imp.module + "." + imp.name);
    }
    const ExternVal& val = it->second;
    if (val.kind != imp.kind) {
      return common::InvalidArgument("import kind mismatch for " + imp.module + "." +
                                     imp.name);
    }
    switch (imp.kind) {
      case ExternKind::kFunc: {
        const FuncType& want = module->types[imp.type_index];
        if (!(want == *val.funcref.type)) {
          return common::InvalidArgument("import signature mismatch for " + imp.module +
                                         "." + imp.name + ": want " + want.ToString() +
                                         " got " + val.funcref.type->ToString());
        }
        inst->funcs_.push_back(val.funcref);
        break;
      }
      case ExternKind::kMemory:
        inst->memories_.push_back(val.memory);
        break;
      case ExternKind::kTable:
        inst->tables_.push_back(val.table);
        break;
      case ExternKind::kGlobal: {
        if (val.global_type.mut || imp.global_type.mut) {
          return common::Unimplemented("mutable global imports are not supported");
        }
        GlobalInst g;
        g.type = imp.global_type;
        g.bits = val.global_bits;
        inst->globals_.push_back(g);
        break;
      }
    }
  }

  // Local definitions. When memory 0 is overridden (thread clones, pooled
  // slab reuse), the first local declaration is not Create()d — the override
  // takes its slot below and no reservation syscalls are issued.
  const bool override_replaces_local0 =
      opts.memory0_override != nullptr && inst->memories_.empty();
  for (size_t mi = 0; mi < module->memories.size(); ++mi) {
    if (mi == 0 && override_replaces_local0) {
      inst->memories_.push_back(nullptr);  // placeholder, installed below
      continue;
    }
    ASSIGN_OR_RETURN(std::shared_ptr<Memory> mem,
                     Memory::Create(module->memories[mi].limits));
    inst->memories_.push_back(std::move(mem));
  }
  if (opts.memory0_override != nullptr) {
    // Single owner of the override decision, whether memory 0 is imported or
    // locally declared: the slab must cover the declared min either way.
    uint64_t declared_min = 0;
    if (module->num_imported_memories > 0) {
      for (const Import& imp : module->imports) {
        if (imp.kind == ExternKind::kMemory) {
          declared_min = imp.limits.min;
          break;
        }
      }
    } else if (!module->memories.empty()) {
      declared_min = module->memories[0].limits.min;
    }
    if (declared_min > opts.memory0_override->max_pages()) {
      return common::InvalidArgument("memory override smaller than declared min");
    }
    if (inst->memories_.empty()) {
      inst->memories_.push_back(opts.memory0_override);
    } else {
      inst->memories_[0] = opts.memory0_override;
    }
  }
  for (const TableDecl& t : module->tables) {
    auto table = std::make_shared<TableInst>();
    table->limits = t.limits;
    table->elems.resize(t.limits.min);
    inst->tables_.push_back(std::move(table));
  }
  for (const Global& g : module->globals) {
    GlobalInst gi;
    gi.type = g.type;
    if (g.init.kind == InitExpr::Kind::kConst) {
      gi.bits = g.init.bits;
    } else {
      if (g.init.global_index >= inst->globals_.size()) {
        return common::InvalidArgument("global init references undefined global");
      }
      gi.bits = inst->globals_[g.init.global_index].bits;
    }
    inst->globals_.push_back(gi);
  }

  // Function index space: imports already pushed; now local functions.
  for (const Function& f : module->functions) {
    FuncRef ref;
    ref.type = &module->types[f.type_index];
    ref.code = &f;
    ref.owner = inst.get();
    inst->funcs_.push_back(ref);
  }

  // Element segments.
  for (const ElemSegment& seg : module->elems) {
    if (seg.table_index >= inst->tables_.size()) {
      return common::InvalidArgument("elem segment table index out of range");
    }
    TableInst& table = *inst->tables_[seg.table_index];
    uint64_t offset = seg.offset.kind == InitExpr::Kind::kConst
                          ? seg.offset.bits
                          : inst->globals_[seg.offset.global_index].bits;
    // Overflow-safe: a huge offset must not wrap past the check.
    if (offset > table.elems.size() ||
        seg.func_indices.size() > table.elems.size() - offset) {
      return common::OutOfRange("elem segment out of table bounds");
    }
    for (size_t i = 0; i < seg.func_indices.size(); ++i) {
      uint32_t fi = seg.func_indices[i];
      if (fi >= inst->funcs_.size()) {
        return common::InvalidArgument("elem segment function index out of range");
      }
      table.elems[offset + i] = inst->funcs_[fi];
    }
  }

  // Data segments.
  if (opts.apply_data) {
    for (const DataSegment& seg : module->datas) {
      if (seg.memory_index >= inst->memories_.size()) {
        return common::InvalidArgument("data segment memory index out of range");
      }
      Memory& mem = *inst->memories_[seg.memory_index];
      uint64_t offset = seg.offset.kind == InitExpr::Kind::kConst
                            ? seg.offset.bits
                            : inst->globals_[seg.offset.global_index].bits;
      if (!mem.InBounds(offset, seg.bytes.size())) {
        return common::OutOfRange("data segment out of memory bounds");
      }
      std::memcpy(mem.At(offset), seg.bytes.data(), seg.bytes.size());
    }
  }

  if (opts.run_start && module->start.has_value()) {
    RunResult r = inst->Call(*module->start, {});
    if (!r.ok()) {
      return common::Internal("start function trapped: " + std::string(TrapKindName(r.trap)));
    }
  }
  return inst;
}

}  // namespace wasm
