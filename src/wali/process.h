// WaliProcess: the engine-side state for one WALI process (paper §3).
//
// Follows the paper's chosen 1-to-1 process model with instance-per-thread
// (§3.1): the process maps to the host process; each guest thread spawned via
// SYS_clone runs its own module instance sharing the parent's linear memory.
#ifndef SRC_WALI_PROCESS_H_
#define SRC_WALI_PROCESS_H_

#include <sys/types.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/wali/async.h"
#include "src/wali/mmap_mgr.h"
#include "src/wali/policy.h"
#include "src/wali/sigtable.h"
#include "src/wali/trace.h"
#include "src/wasm/wasm.h"

namespace wali {

class WaliRuntime;

class WaliProcess {
 public:
  WaliProcess(WaliRuntime* runtime, std::vector<std::string> argv,
              std::vector<std::string> env);
  ~WaliProcess();

  WaliProcess(const WaliProcess&) = delete;
  WaliProcess& operator=(const WaliProcess&) = delete;

  // Wires safepoint polling + user_data into an instance belonging to this
  // process (main instance and every thread clone).
  void AdoptInstance(wasm::Instance* instance);

  // SYS_clone backend: spawns a native thread running a fresh instance that
  // shares this process's memory; the thread invokes funcref table entry
  // `func_index` with `arg`. Returns child tid or -errno.
  int64_t SpawnThread(uint32_t func_index, uint64_t arg, uint64_t flags,
                      uint64_t ptid_addr, uint64_t ctid_addr);

  void JoinThreads();
  int thread_count();
  // True when `tid` is the native tid of one of this process's guest threads.
  bool IsGuestThread(pid_t tid);

  // Host fds minted for this guest (open/dup/socket/pipe/...), maintained by
  // the syscall dispatch layer. Tenants share one host process, so anything
  // the guest leaves open must be closed when the process dies or its slot
  // is recycled — otherwise fds (and the files behind them) leak across
  // tenants. Only fds > 2 are tracked; stdio is shared by design.
  void TrackFd(int fd);
  void UntrackFd(int fd);
  // Closes every tracked fd (destructor and slot recycling).
  void CloseGuestFds();
  int tracked_fd_count();
  // Sorted copy of the tracked fd set (snapshot/restore: the fd table is
  // part of the serialized process state; see src/wali/process_snapshot.cc).
  std::vector<int> GuestFds();
  // Bulk re-track on restore: adopts `fds` as the tracked set (union with
  // anything already tracked, same > 2 rule as TrackFd).
  void AdoptGuestFds(const std::vector<int>& fds);
  // Untracks every fd WITHOUT closing it and returns them sorted: eviction
  // hands the open fds to the evicted run before the slot is recycled.
  std::vector<int> ReleaseGuestFds();

  // Cached per-fd classification (see wali::OffloadableFd): the poll(2)
  // directions in which a read/write/accept gate on `fd` can block. Every
  // blocking-capable gate under async-io consults it before the readiness
  // probe (WaliCtx::WouldBlock), so regular files, directories, O_NONBLOCK
  // and wrong-direction fds never pay the probe, and a hit costs a lookup
  // instead of an fstat+fcntl. The classification is a pure function of the
  // open file description's type, access mode and O_NONBLOCK flag, so it is
  // cached per process and invalidated wherever one of them can change under
  // us: close (fd number freed for reuse), dup2/dup3 (target fd silently
  // replaced), fcntl(F_SETFL) and ioctl(FIONBIO) (O_NONBLOCK flipped; the
  // access mode cannot change), and slot recycling (ResetForReuse).
  // Invalidation hooks live in the syscall dispatch wrapper
  // (WaliRuntime::ApplyFdEffect), so no handler can mint or retire an fd
  // without the cache hearing about it.
  short OffloadableCached(int fd);
  void InvalidateOffloadFd(int fd);
  void ClearOffloadCache();

  // Returns the process to a just-constructed state while keeping the linear
  // memory slab alive for reuse: joins straggler threads, clears exit/signal/
  // mmap/trace/policy state and the tid registration, and drops the old
  // instance and module. The caller (WaliRuntime::ResetProcess) is responsible
  // for zeroing the memory and re-instantiating into it.
  void ResetForReuse(std::vector<std::string> argv_in,
                     std::vector<std::string> env_in);

  // Requests process-wide termination; sibling threads observe it at their
  // next safepoint (used by SYS_exit_group).
  void RequestExitAll(int32_t code) {
    exit_code.store(code, std::memory_order_release);
    exit_all.store(true, std::memory_order_release);
  }

  WaliRuntime* runtime;
  std::vector<std::string> argv;
  std::vector<std::string> env;

  std::shared_ptr<const wasm::Module> module;
  std::unique_ptr<wasm::Instance> main_instance;
  std::shared_ptr<wasm::Memory> memory;

  SigTable sigtable;
  MmapManager mmap;
  SyscallTrace trace;
  // Recycled interpreter stack/frame storage for the main-thread run: wired
  // into ExecOptions by RunMain, so pooled slots (host::InstancePool) reuse
  // grown capacity across guest runs instead of reallocating per run.
  // ResetForReuse keeps it warm but trims outlier capacity (a deep run can
  // grow toward max_value_stack; that must not stay resident per slot).
  // Guest threads and re-entrant signal handlers do not share it (one owner
  // per invocation).
  wasm::ExecBuffers exec_buffers;
  // Optional user-space syscall policy (§3.6); consulted before dispatch.
  std::shared_ptr<SyscallPolicy> policy;

  // Per-tenant budget enforcement, observed at the same safepoints as
  // async signal delivery (and alongside the interpreter's fuel check):
  // when the monotonic clock passes `cpu_deadline_nanos`, or linear memory
  // grows beyond `mem_budget_pages`, the run traps kBudgetExhausted (the
  // memory cap is additionally enforced at the allocation itself via
  // wasm::Memory's grow budget, so pages past the cap are never committed;
  // the safepoint check is the backstop for a cap below the module's
  // declared minimum). `syscall_budget` is checked in the syscall dispatch
  // wrapper — one dispatch past the budget traps — against `run_syscalls`,
  // the process's cheap dispatch counter. Zero disables any check. Set by
  // the host supervisor from the tenant's remaining TenantLedger slices
  // before each run.
  std::atomic<int64_t> cpu_deadline_nanos{0};
  std::atomic<uint64_t> mem_budget_pages{0};
  std::atomic<uint64_t> syscall_budget{0};
  std::atomic<uint64_t> run_syscalls{0};

  // Park request filed by a blocking-capable syscall instead of blocking
  // (src/wali/async.h). Only the main-run invocation can park (guest
  // threads and signal-handler re-entries run without a suspension slot),
  // so this needs no lock: it is written by the handler and the dispatch
  // wrapper (or by RestoreProcess) and read by the host and ResumeMain
  // strictly after the interpreter unwound with kSyscallPending. Cleared
  // per run, at resume, and on slot recycling.
  PendingIo pending_io;

  // Deterministic park hook (snapshot round-trip harness): when nonzero,
  // the syscall dispatch wrapper parks the main run at every Nth dispatch
  // with the handler's already-computed result scripted on the PendingIo.
  // Resuming with that result is bit-identical to never having parked —
  // the handler ran to completion before the park — which lets
  // tests park ANY workload mid-run at a boundary where the interpreter
  // state is in its canonical spilled form. Main-run only (no lock needed,
  // same discipline as pending_io); cleared on slot recycling.
  uint64_t park_after_syscalls = 0;
  uint64_t syscalls_since_park = 0;

  std::atomic<bool> exit_all{false};
  std::atomic<int32_t> exit_code{0};
  // Defers nested handler execution while one is running (paper: stack-based
  // deferral when SA_NODEFER is unset; we keep one level).
  std::atomic<bool> in_signal_handler{false};

  // tid registered via SYS_set_tid_address (cleared+futex-woken on exit).
  std::atomic<uint64_t> clear_child_tid{0};

 private:
  struct GuestThread {
    std::thread native;
    pid_t tid = 0;
  };
  std::mutex threads_mu_;
  std::vector<std::unique_ptr<GuestThread>> threads_;

  std::mutex fds_mu_;
  std::set<int> guest_fds_;

  std::mutex offload_mu_;
  std::map<int, short> offload_cache_;
};

}  // namespace wali

#endif  // SRC_WALI_PROCESS_H_
