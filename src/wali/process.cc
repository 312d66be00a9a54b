#include "src/wali/process.h"

#include <errno.h>
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <future>

#include "src/common/logging.h"
#include "src/wali/runtime.h"

namespace wali {

namespace {

// Subset of clone(2) flags WALI interprets for thread spawn bookkeeping.
constexpr uint64_t kCloneParentSettid = 0x00100000;  // CLONE_PARENT_SETTID
constexpr uint64_t kCloneChildSettid = 0x01000000;   // CLONE_CHILD_SETTID
constexpr uint64_t kCloneChildCleartid = 0x00200000;  // CLONE_CHILD_CLEARTID

}  // namespace

WaliProcess::WaliProcess(WaliRuntime* rt, std::vector<std::string> argv_in,
                         std::vector<std::string> env_in)
    : runtime(rt), argv(std::move(argv_in)), env(std::move(env_in)) {}

WaliProcess::~WaliProcess() { JoinThreads(); }

void WaliProcess::ResetForReuse(std::vector<std::string> argv_in,
                                std::vector<std::string> env_in) {
  JoinThreads();
  argv = std::move(argv_in);
  env = std::move(env_in);
  cpu_deadline_nanos.store(0, std::memory_order_release);
  syscall_budget.store(0, std::memory_order_release);
  run_syscalls.store(0, std::memory_order_release);
  exit_all.store(false, std::memory_order_release);
  exit_code.store(0, std::memory_order_release);
  in_signal_handler.store(false, std::memory_order_release);
  clear_child_tid.store(0, std::memory_order_release);
  sigtable.Reset();
  mmap.Reset();
  trace.Reset();
  pending_io.Reset();
  park_after_syscalls = 0;
  syscalls_since_park = 0;
  fds.CloseAll();  // the next tenant's fd numbers mean different files
  policy.reset();
  // Keep the recycled interpreter buffers warm across slot reuse, but bound
  // what a slot retains: a deep run can grow the operand stack toward
  // max_value_stack (32 MiB), and that scratch is invisible to the tenant
  // accounting layer — a pool of such slots must not pin it for the host's
  // lifetime. Typical runs stay well under these caps and keep their
  // capacity.
  constexpr size_t kMaxRetainedStackSlots = 1 << 16;  // 512 KiB
  constexpr size_t kMaxRetainedFrames = 1024;
  if (exec_buffers.stack.capacity() > kMaxRetainedStackSlots) {
    std::vector<uint64_t>().swap(exec_buffers.stack);
  }
  if (exec_buffers.frames.capacity() > kMaxRetainedFrames) {
    wasm::ExecContext::FrameStack().swap(exec_buffers.frames);
  }
  main_instance.reset();
  module.reset();
}

int WaliProcess::thread_count() {
  std::lock_guard<std::mutex> lock(threads_mu_);
  return static_cast<int>(threads_.size());
}

bool WaliProcess::IsGuestThread(pid_t tid) {
  std::lock_guard<std::mutex> lock(threads_mu_);
  return std::any_of(threads_.begin(), threads_.end(),
                     [tid](const auto& t) { return t->tid == tid; });
}

void WaliProcess::JoinThreads() {
  while (true) {
    std::unique_ptr<GuestThread> t;
    {
      std::lock_guard<std::mutex> lock(threads_mu_);
      if (threads_.empty()) {
        return;
      }
      t = std::move(threads_.back());
      threads_.pop_back();
    }
    if (t->native.joinable()) {
      t->native.join();
    }
  }
}

int64_t WaliProcess::SpawnThread(uint32_t func_index, uint64_t arg, uint64_t flags,
                                 uint64_t ptid_addr, uint64_t ctid_addr) {
  // Instance-per-thread (paper §3.1): re-instantiate the module sharing the
  // parent's linear memory; globals/tables are fresh per thread, and active
  // data segments are not re-applied (memory is already live).
  wasm::Linker::InstantiateOptions opts;
  opts.memory0_override = memory;
  opts.apply_data = false;
  opts.run_start = false;
  opts.user_data = this;
  opts.instance_name = "thread";
  auto instOr = runtime->linker()->Instantiate(module, opts);
  if (!instOr.ok()) {
    LOG_ERROR() << "clone: thread instantiation failed: "
                << instOr.status().ToString();
    return -EAGAIN;
  }
  std::shared_ptr<wasm::Instance> inst = std::move(*instOr);
  AdoptInstance(inst.get());

  auto table = inst->table(0);
  if (table == nullptr || func_index >= table->elems.size() ||
      table->elems[func_index].IsNull()) {
    return -EINVAL;
  }
  wasm::FuncRef entry = table->elems[func_index];

  std::promise<pid_t> tid_promise;
  std::future<pid_t> tid_future = tid_promise.get_future();
  wasm::ExecOptions exec_opts = runtime->exec_options();
  WaliProcess* proc = this;

  auto thread = std::make_unique<GuestThread>();
  thread->native = std::thread([proc, inst, entry, arg, flags, ctid_addr, exec_opts,
                                promise = std::move(tid_promise)]() mutable {
    pid_t tid = static_cast<pid_t>(::syscall(SYS_gettid));
    if ((flags & kCloneChildSettid) != 0 && ctid_addr != 0 &&
        proc->memory->InBounds(ctid_addr, 4)) {
      *reinterpret_cast<uint32_t*>(proc->memory->At(ctid_addr)) =
          static_cast<uint32_t>(tid);
    }
    promise.set_value(tid);
    wasm::RunResult r =
        inst->CallRef(entry, {wasm::Value::I32(static_cast<uint32_t>(arg))}, exec_opts);
    if (!r.ok() && r.trap != wasm::TrapKind::kExit) {
      LOG_ERROR() << "guest thread trapped: " << wasm::TrapKindName(r.trap);
    }
    // CLONE_CHILD_CLEARTID: clear the tid word and futex-wake joiners
    // (musl pthread_join blocks on this address).
    if ((flags & kCloneChildCleartid) != 0 && ctid_addr != 0 &&
        proc->memory->InBounds(ctid_addr, 4)) {
      uint32_t* word = reinterpret_cast<uint32_t*>(proc->memory->At(ctid_addr));
      __atomic_store_n(word, 0, __ATOMIC_SEQ_CST);
      ::syscall(SYS_futex, word, FUTEX_WAKE, INT32_MAX, nullptr, nullptr, 0);
      proc->memory->Notify(ctid_addr, UINT32_MAX);
    }
  });

  pid_t tid = tid_future.get();
  thread->tid = tid;
  if ((flags & kCloneParentSettid) != 0 && ptid_addr != 0 &&
      memory->InBounds(ptid_addr, 4)) {
    *reinterpret_cast<uint32_t*>(memory->At(ptid_addr)) = static_cast<uint32_t>(tid);
  }
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads_.push_back(std::move(thread));
  }
  return tid;
}

}  // namespace wali
