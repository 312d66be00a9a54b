// WaliRuntime: registers the `wali` import namespace on a Linker and owns
// the name-bound syscall registry (paper §3.5). Each syscall is a host
// function `("wali", "SYS_<name>")` with the uniform signature
// (i64 x nargs) -> i64, returning the kernel convention (-errno on failure).
#ifndef SRC_WALI_RUNTIME_H_
#define SRC_WALI_RUNTIME_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/time_util.h"
#include "src/wali/process.h"
#include "src/wasm/wasm.h"

namespace wabi {
struct WaliTimespec;  // src/abi/layout.h; only referenced, never stored
}

namespace wali {

class WaliRuntime;

// Per-call context handed to syscall handlers: address-space translation
// (§3.2), raw-syscall passthrough with kernel-time attribution, and access
// to the owning process.
struct WaliCtx {
  wasm::ExecContext& exec;
  WaliProcess& proc;
  wasm::Memory& mem;
  WaliRuntime& rt;
  // Set when WaliRuntime::ResumeMain re-dispatches a parked syscall: the
  // wait the handler parked on has already ended (the fd is ready, the
  // sleep or timeout elapsed), so the handler answers without waiting.
  bool resumed = false;

  // Bounds-checked wasm->host pointer translation; nullptr on fault
  // (handlers then return -EFAULT, mirroring the kernel).
  void* Ptr(uint64_t addr, uint64_t len) const {
    if (!mem.InBounds(addr, len)) {
      return nullptr;
    }
    return mem.At(addr);
  }
  template <typename T>
  T* TypedPtr(uint64_t addr) const {
    return static_cast<T*>(Ptr(addr, sizeof(T)));
  }

  // Reads a NUL-terminated guest string (bounded).
  bool GetStr(uint64_t addr, std::string* out) const;

  // Timed raw syscall passthrough (kernel time accounted for Fig. 7).
  int64_t Raw(long number, long a0 = 0, long a1 = 0, long a2 = 0, long a3 = 0,
              long a4 = 0, long a5 = 0) const;

  // Returns a write's answer `ret`; when it is -EPIPE, raises SIGPIPE in an
  // unbound process's table, as the kernel would signal a process. A bound
  // process already got the kernel's SIGPIPE.
  int64_t SigpipeOnEpipe(int64_t ret) const;

  // True when this invocation may park at the syscall boundary instead of
  // blocking: the host entered it resumably (ExecOptions::suspend_to), no
  // park request is already armed, and this is not the resume-time
  // re-dispatch of a park. Guest threads and signal-handler re-entries
  // always see false and take the blocking path.
  bool CanOffload() const {
    return !resumed && exec.opts.suspend_to != nullptr && !proc.pending_io.armed;
  }
  // The would-block rule of the fd gates that can park (read, write, readv,
  // writev, accept, accept4): true only when `fd` can block on `events`
  // (POLLIN or POLLOUT) by its blocking class (FdTable::BlockingClass) AND
  // a zero-timeout poll probe reports it not ready (or fails). A ready fd
  // takes the gate's synchronous path, so a park costs a round trip only
  // when the kernel would really block.
  // The probe goes through Raw (booked as kernel time); it is not a guest
  // syscall, so it is neither counted nor charged against the budget.
  // Call only when CanOffload().
  bool WouldBlock(int fd, short events) const;
  // Files a park request (see src/wali/async.h): the dispatch wrapper
  // records the syscall and its arguments, turns the request into
  // kSyscallPending, and ignores the handler's return value. Only call when
  // CanOffload().
  void Park(IoOp op) const {
    proc.pending_io.armed = true;
    proc.pending_io.op = std::move(op);
  }
};

using SyscallHandler = int64_t (*)(WaliCtx&, const int64_t*);

struct SyscallDef {
  const char* name;
  int nargs;
  SyscallHandler fn;
  bool stateful;     // maintains engine-side state (Table 2 "State" column)
  int loc_estimate;  // implementation size (Table 2 "LOC" column)
  // The handler may park (WaliCtx::Park); resume re-dispatches it.
  bool can_park = false;
  // How the syscall changes the process's fd table (FdTable::Apply).
  FdEffect fd_effect = FdEffect::kNone;
};

class WaliRuntime {
 public:
  struct Options {
    wasm::SafepointScheme scheme = wasm::SafepointScheme::kLoop;
    bool attribute_time = true;  // per-layer timing (small clock overhead)
    uint32_t max_frames = 4096;
    uint64_t fuel = 0;
    // Interpreter dispatch (walirun --dispatch): kAuto = threaded when built
    // in, except under the kEveryInstr scheme (switch slow path).
    wasm::DispatchMode dispatch = wasm::DispatchMode::kAuto;
    // Baseline-JIT tier (walirun --jit): kAuto = on when built in and the
    // threaded loop is selected; kOff pins every run to the interpreter.
    wasm::JitTier jit = wasm::JitTier::kAuto;
    uint32_t jit_threshold = 16;  // frame entries/back-edges before tier-up
  };

  // Registers all host functions on `linker`; the linker must outlive the
  // runtime and all instances.
  explicit WaliRuntime(wasm::Linker* linker);
  WaliRuntime(wasm::Linker* linker, const Options& options);

  // Instantiates `module` as a new WALI process with the given parameters.
  common::StatusOr<std::unique_ptr<WaliProcess>> CreateProcess(
      std::shared_ptr<const wasm::Module> module, std::vector<std::string> argv,
      std::vector<std::string> env);

  // Recycles `process` for a fresh run of `module` without reallocating its
  // linear-memory slab: resets all engine-side process state, zeroes and
  // truncates the memory back to the module's declared min pages, and
  // re-instantiates into it (data segments re-applied). The module must fit
  // the slab's reservation. This is the pooled fast path used by
  // host::InstancePool; CreateProcess is the cold path.
  common::Status ResetProcess(WaliProcess& process,
                              std::shared_ptr<const wasm::Module> module,
                              std::vector<std::string> argv,
                              std::vector<std::string> env);

  // A main run parked at a syscall boundary: everything needed to continue
  // it once the blocking operation completes. Owned by the host layer (the
  // supervisor keeps one per parked job); the underlying wasm::Suspension
  // pins the process's instance and recycled exec buffers, so it must be
  // resumed or discarded before the process slot is recycled.
  struct MainContinuation {
    wasm::Suspension susp;
    uint64_t start_instrs = 0;   // fuel the deferred (start) burned
    bool entry_is_main = false;  // exit code comes from main's i32 result

    bool armed() const { return susp.armed(); }
    void Discard() {
      susp.Discard();
      start_instrs = 0;
      entry_is_main = false;
    }
  };

  // Runs the process entry point: exported `_start` ()->() if present, else
  // `main` ()->i32. SYS_exit(_group) surfaces as trap==kExit with the code.
  wasm::RunResult RunMain(WaliProcess& process);
  // Same, with per-run execution limits (per-tenant fuel / frame caps).
  wasm::RunResult RunMain(WaliProcess& process, const wasm::ExecOptions& opts);
  // Same, resumable: a blocking-capable syscall may park instead of
  // blocking, returning trap == kSyscallPending with `*cont` armed and the
  // park request in process.pending_io. The caller registers
  // pending_io.op with its completion loop and passes the completion to
  // ResumeMain.
  // A null `cont` is the synchronous overload. The deferred (start)
  // function always runs synchronously — only the entry call can park.
  wasm::RunResult RunMain(WaliProcess& process, const wasm::ExecOptions& opts,
                          MainContinuation* cont);
  // Continues a parked main run once its op completed, finishing the
  // parked syscall first (process.pending_io): a completion that carries
  // the answer (a scripted result, or a backend kError's -errno) is the
  // result as is, a scripted park answers its scripted_result, and
  // otherwise the parked handler is re-dispatched with WaliCtx::resumed
  // set — timed, fd-effected and logged like any dispatch, but not counted
  // or budget-checked a second time.
  // May park again (kSyscallPending, `cont` re-armed); any other return is
  // final, with executed_instrs / fuel / exit-code semantics bit-identical
  // to an uninterrupted RunMain.
  wasm::RunResult ResumeMain(WaliProcess& process, MainContinuation& cont,
                             const IoCompletion& completion);

  const std::vector<SyscallDef>& syscalls() const { return defs_; }
  int SyscallId(const std::string& name) const;
  // True for the syscalls whose handler may park (the only ids a snapshot's
  // pending park may name).
  bool CanPark(uint32_t id) const {
    return id < defs_.size() && defs_[id].can_park;
  }
  wasm::Linker* linker() { return linker_; }
  const Options& options() const { return options_; }
  wasm::ExecOptions exec_options() const;

 private:
  void RegisterAll();
  void RegisterSupportMethods();
  // The dispatch wrapper every ("wali", "SYS_<name>") import runs.
  wasm::TrapKind Dispatch(wasm::ExecContext& ctx, uint32_t id,
                          const uint64_t* args, uint64_t* results);
  // Runs handler `id`, booking its time as WALI time.
  int64_t CallHandler(WaliCtx& c, uint32_t id, const uint64_t* args) const;
  // The tail of every dispatch that produced a result: fd effect and log.
  void Complete(WaliProcess& proc, uint32_t id, const uint64_t* args,
                int64_t ret) const;
  // The tail of every finished main run (RunMain, ResumeMain): exit code,
  // instruction tally, thread join and the end-of-run signal rule.
  wasm::RunResult EndMain(WaliProcess& process, wasm::RunResult r,
                          bool entry_is_main, uint64_t start_instrs) const;

  wasm::Linker* linker_;
  Options options_;
  std::vector<SyscallDef> defs_;
  std::map<std::string, int> ids_;
};

// Validates a guest timespec and flattens it to nanoseconds (kernel
// nanosleep rules: negative seconds or out-of-range nanos are EINVAL,
// reported as `false`; overlong durations saturate to INT64_MAX). Shared by
// every offload gate that converts a guest-relative timeout — nanosleep,
// clock_nanosleep, ppoll, futex. Defined in syscalls_time.cc.
bool SleepDurationNanos(const wabi::WaliTimespec& ts, int64_t* out);

// Registry population, grouped by subsystem (one .cc per group).
void RegisterFsSyscalls(std::vector<SyscallDef>& defs);
void RegisterMemSyscalls(std::vector<SyscallDef>& defs);
void RegisterProcSyscalls(std::vector<SyscallDef>& defs);
void RegisterSignalSyscalls(std::vector<SyscallDef>& defs);
void RegisterNetSyscalls(std::vector<SyscallDef>& defs);
void RegisterTimeSyscalls(std::vector<SyscallDef>& defs);
void RegisterMiscSyscalls(std::vector<SyscallDef>& defs);

// Security interposition (paper §3.6): rejects sandbox-escaping paths such
// as /proc/<pid>/mem and /proc/self/mem. Paths are lexically normalized
// (`.`/`..`/`//` collapsed) before matching, so spellings like
// /proc/self/../self/mem cannot bypass the filter; relative paths are
// anchored at the current working directory first, so ../../proc/self/mem
// is caught too. When a relative path is allowed, `resolved` (if non-null)
// receives the check-time absolute form; callers must pass THAT to the
// kernel, or a sibling guest thread can chdir between check and use and
// re-point the relative path at a blocked target.
bool PathAllowed(const std::string& path, std::string* resolved = nullptr);

// Same check for dirfd-relative syscalls (openat): a relative `path` is
// anchored at the directory `dirfd` refers to (resolved via /proc/self/fd),
// closing the open("/proc/self") + openat(fd, "mem") two-step. `resolved`
// works as in PathAllowed (and also guards against dup2 swapping the dirfd
// between check and use).
bool PathAllowedAt(int64_t dirfd, const std::string& path,
                   std::string* resolved = nullptr);

// Lexical path normalization used by PathAllowed (exposed for tests):
// collapses empty and `.` segments and resolves `..` against the prefix.
// `..` at the root of an absolute path stays at the root, as in the kernel.
std::string NormalizePath(const std::string& path);

}  // namespace wali

#endif  // SRC_WALI_RUNTIME_H_
