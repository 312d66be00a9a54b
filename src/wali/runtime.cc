#include "src/wali/runtime.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/ioctl.h>
#include <limits.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/common/logging.h"

namespace wali {

namespace {

// Safepoint callback: delivers pending virtual signals by re-entering the
// module (paper Fig. 5 steps 3-4), and observes process-wide exit requests.
wasm::TrapKind WaliSafepoint(wasm::ExecContext& ctx) {
  auto* proc = static_cast<WaliProcess*>(ctx.current_instance()->user_data());
  if (proc == nullptr) {
    return wasm::TrapKind::kNone;
  }
  if (proc->exit_all.load(std::memory_order_acquire)) {
    ctx.RequestExit(proc->exit_code.load(std::memory_order_acquire));
    return wasm::TrapKind::kExit;
  }
  // Tenant budget enforcement (host accounting layer): the supervisor arms
  // these from the tenant's remaining cumulative budget; they trip here so a
  // run over budget stops at the next safepoint, exactly where fuel and
  // virtual signals are observed.
  int64_t cpu_deadline = proc->cpu_deadline_nanos.load(std::memory_order_acquire);
  if (cpu_deadline != 0 && common::MonotonicNanos() >= cpu_deadline) {
    ctx.SetTrap(wasm::TrapKind::kBudgetExhausted, "tenant cpu budget exhausted");
    return wasm::TrapKind::kBudgetExhausted;
  }
  uint64_t mem_budget = proc->mem_budget_pages.load(std::memory_order_acquire);
  if (mem_budget != 0 && proc->memory != nullptr &&
      proc->memory->size_pages() > mem_budget) {
    ctx.SetTrap(wasm::TrapKind::kBudgetExhausted, "tenant memory budget exhausted");
    return wasm::TrapKind::kBudgetExhausted;
  }
  if (!proc->sigtable.AnyPending()) {
    return wasm::TrapKind::kNone;
  }
  // Defer while a handler is already running (one-level SA_NODEFER model).
  if (proc->in_signal_handler.exchange(true)) {
    return wasm::TrapKind::kNone;
  }
  wasm::TrapKind out = wasm::TrapKind::kNone;
  uint64_t pending = proc->sigtable.TakePending(proc->sigtable.virtual_mask());
  for (int signo = 1; signo <= kNumSignals && out == wasm::TrapKind::kNone; ++signo) {
    if ((pending & SigBit(signo)) == 0) {
      continue;
    }
    SigEntry entry = proc->sigtable.GetAction(signo);
    if (entry.handler == kSigIgn) {
      continue;
    }
    if (entry.handler == kSigDfl) {
      // Linux's default action. The kernel applies it natively to a bound
      // table's SIG_DFL signals, so these were raised by the guest itself
      // (or raced a re-registration): ignore, or end the run as killed.
      if ((kDefaultIgnored & SigBit(signo)) != 0) {
        continue;
      }
      ctx.RequestExit(128 + signo);
      out = wasm::TrapKind::kExit;
      break;
    }
    wasm::Instance* inst = ctx.current_instance();
    auto table = inst->table(0);
    if (table == nullptr || entry.handler >= table->elems.size()) {
      continue;  // stale funcref; drop the signal
    }
    const wasm::FuncRef& handler = table->elems[entry.handler];
    if (handler.IsNull()) {
      continue;
    }
    proc->sigtable.count_delivery();
    wasm::ExecOptions opts = ctx.opts;
    // The interrupted invocation holds the recycled buffers; the handler
    // re-entry allocates its own. It must also not inherit the suspension
    // slot — the parked state of the interrupted run lives there, and a
    // handler's syscalls have no parked-job identity to resume under.
    opts.buffers = nullptr;
    opts.suspend_to = nullptr;
    wasm::RunResult r =
        inst->CallRef(handler, {wasm::Value::I32(static_cast<uint32_t>(signo))}, opts);
    if (!r.ok()) {
      if (r.trap == wasm::TrapKind::kExit) {
        ctx.RequestExit(r.exit_code);
      } else {
        ctx.SetTrap(r.trap, r.trap_message.c_str());
      }
      out = r.trap;
    }
  }
  proc->in_signal_handler.store(false);
  return out;
}

}  // namespace

bool WaliCtx::GetStr(uint64_t addr, std::string* out) const {
  constexpr uint64_t kMaxStr = 1 << 16;
  uint64_t size = mem.size_bytes();
  if (addr >= size) {
    return false;
  }
  uint64_t limit = std::min(size, addr + kMaxStr);
  const char* p = reinterpret_cast<const char*>(mem.At(addr));
  uint64_t n = 0;
  while (addr + n < limit && p[n] != '\0') {
    ++n;
  }
  if (addr + n >= limit) {
    return false;  // unterminated
  }
  out->assign(p, n);
  return true;
}

short OffloadableFd(int fd) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return 0;  // bad fd: let the real syscall surface the errno
  }
  if (!(S_ISFIFO(st.st_mode) || S_ISSOCK(st.st_mode) || S_ISCHR(st.st_mode))) {
    return 0;
  }
  // O_NONBLOCK fds never block — the kernel answers -EAGAIN instantly, and
  // event-loop guests depend on exactly that. Parking one would turn a
  // readiness probe into an indefinite suspension, diverging from the
  // blocking path this offload must match bit-for-bit.
  int fl = ::fcntl(fd, F_GETFL);
  if (fl < 0 || (fl & O_NONBLOCK) != 0) {
    return 0;
  }
  // The access mode decides which direction can wait: the wrong one answers
  // -EBADF at once, and its probe would report "not ready" forever (a read
  // end never polls POLLOUT), parking the guest for good.
  switch (fl & O_ACCMODE) {
    case O_RDONLY:
      return POLLIN;
    case O_WRONLY:
      return POLLOUT;
    case O_RDWR:
      return POLLIN | POLLOUT;
    default:
      return 0;
  }
}

bool WaliCtx::WouldBlock(int fd, short events) const {
  if ((proc.OffloadableCached(fd) & events) == 0) {
    return false;
  }
  struct pollfd probe = {fd, events, 0};
  struct timespec zero = {0, 0};
  // 0 ready, or a failed probe (which proves nothing): park. POLLERR,
  // POLLHUP and POLLNVAL count as ready: the kernel answers those promptly
  // on the synchronous path.
  return Raw(SYS_ppoll, reinterpret_cast<long>(&probe), 1,
             reinterpret_cast<long>(&zero), 0, 8) <= 0;
}

int64_t WaliCtx::Raw(long number, long a0, long a1, long a2, long a3, long a4,
                     long a5) const {
  const bool timed = rt.options().attribute_time;
  int64_t t0 = timed ? common::MonotonicNanos() : 0;
  long r = ::syscall(number, a0, a1, a2, a3, a4, a5);
  int64_t ret = r >= 0 ? static_cast<int64_t>(r) : -static_cast<int64_t>(errno);
  if (timed) {
    proc.trace.AddKernelNanos(common::MonotonicNanos() - t0);
  }
  return ret;
}

int64_t WaliCtx::SigpipeOnEpipe(int64_t ret) const {
  if (ret == -EPIPE && !proc.sigtable.bound()) {
    proc.sigtable.RaiseVirtual(SIGPIPE);
  }
  return ret;
}

std::string NormalizePath(const std::string& path) {
  const bool absolute = !path.empty() && path[0] == '/';
  std::vector<std::string> segs;
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    std::string seg = path.substr(i, j - i);
    i = j;
    if (seg.empty() || seg == ".") {
      continue;
    }
    if (seg == "..") {
      if (!segs.empty() && segs.back() != "..") {
        segs.pop_back();
      } else if (!absolute) {
        // Relative paths keep leading ".." (no anchor to resolve against);
        // absolute paths clamp at the root like the kernel does.
        segs.push_back("..");
      }
      continue;
    }
    segs.push_back(std::move(seg));
  }
  std::string out = absolute ? "/" : "";
  for (size_t k = 0; k < segs.size(); ++k) {
    if (k > 0) out += '/';
    out += segs[k];
  }
  if (out.empty()) {
    out = ".";
  }
  return out;
}

namespace {

// Checks an already-absolute, already-normalized path against the /proc
// interposition rules.
bool NormalizedPathAllowed(const std::string& norm);

// Anchors `path` to an absolute form: as-is when absolute, joined to `base`
// (itself absolute) otherwise, then lexically normalized.
std::string AnchoredNormalize(const std::string& base, const std::string& path) {
  if (!path.empty() && path[0] == '/') {
    return NormalizePath(path);
  }
  return NormalizePath(base + "/" + path);
}

// True when a ".." segment follows a named segment ("a/../f"). Collapsing
// such a path lexically disagrees with the kernel when the named segment is
// a symlink (the kernel follows the link before applying ".."), so those
// paths must not be rewritten into their lexical form — only checked.
bool HasDotDotAfterName(const std::string& path) {
  bool seen_name = false;
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    std::string seg = path.substr(i, j - i);
    i = j;
    if (seg.empty() || seg == ".") continue;
    if (seg == "..") {
      if (seen_name) return true;
    } else {
      seen_name = true;
    }
  }
  return false;
}

}  // namespace

bool PathAllowed(const std::string& path, std::string* resolved) {
  if (path.empty()) {
    return true;  // names no file: the kernel answers -ENOENT
  }
  std::string norm = NormalizePath(path);
  if (norm.empty() || norm[0] != '/') {
    // Relative path: the kernel resolves it against the cwd, so the filter
    // must too — ../../proc/self/mem from / is /proc/self/mem.
    char cwd[PATH_MAX];
    if (getcwd(cwd, sizeof(cwd)) != nullptr) {
      norm = AnchoredNormalize(cwd, norm);
    }
    if (norm.empty() || norm[0] != '/') {
      return true;  // could not anchor; not a /proc path we can judge
    }
    if (!NormalizedPathAllowed(norm)) {
      return false;
    }
    if (resolved != nullptr && !HasDotDotAfterName(path)) {
      // Bind the syscall to the snapshot just checked: a sibling thread's
      // chdir between check and use must not re-point the path. Skipped for
      // "a/../f"-style paths whose kernel resolution can differ lexically.
      *resolved = std::move(norm);
    }
    return true;
  }
  return NormalizedPathAllowed(norm);
}

bool PathAllowedAt(int64_t dirfd, const std::string& path,
                   std::string* resolved) {
  if (path.empty() || path[0] == '/') {
    return PathAllowed(path, resolved);
  }
  if (dirfd == AT_FDCWD) {
    return PathAllowed(path, resolved);
  }
  // Resolve the directory the fd refers to; if it cannot be resolved the
  // kernel will fail the syscall anyway, so allowing is safe.
  char link[64];
  std::snprintf(link, sizeof(link), "/proc/self/fd/%lld",
                static_cast<long long>(dirfd));
  char target[PATH_MAX];
  ssize_t n = readlink(link, target, sizeof(target) - 1);
  if (n <= 0) {
    return true;
  }
  target[n] = '\0';
  if (target[0] != '/') {
    return true;  // pipes/sockets print as "pipe:[...]"; not a directory
  }
  std::string norm = AnchoredNormalize(target, path);
  if (!NormalizedPathAllowed(norm)) {
    return false;
  }
  if (resolved != nullptr && !HasDotDotAfterName(path)) {
    *resolved = std::move(norm);  // immune to a concurrent dup2 on dirfd
  }
  return true;
}

namespace {

bool NormalizedPathAllowed(const std::string& norm) {
  // Reject /proc/<anything>/{mem,maps,pagemap,map_files*} windows into the
  // host address space (paper §3.6 "Filesystem Sandboxing"). Matching runs on
  // the lexically normalized path so `.`/`..`/`//` spellings such as
  // /proc/self/../self/mem or /proc//self/task/7/mem cannot slip through.
  if (norm.rfind("/proc/", 0) != 0) {
    return true;
  }
  // Split the part after /proc/ and inspect every component: this also covers
  // nested windows like /proc/self/task/<tid>/mem.
  std::vector<std::string> segs;
  size_t i = 6;
  while (i < norm.size()) {
    size_t j = norm.find('/', i);
    if (j == std::string::npos) j = norm.size();
    segs.push_back(norm.substr(i, j - i));
    i = j + 1;
  }
  if (segs.size() < 2) {
    return true;  // /proc or /proc/<pid> themselves are fine
  }
  const std::string& leaf = segs.back();
  if (leaf == "mem" || leaf == "maps" || leaf == "pagemap") {
    return false;
  }
  for (const std::string& seg : segs) {
    if (seg.rfind("map_files", 0) == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

WaliRuntime::WaliRuntime(wasm::Linker* linker) : WaliRuntime(linker, Options()) {}

WaliRuntime::WaliRuntime(wasm::Linker* linker, const Options& options)
    : linker_(linker), options_(options) {
  RegisterAll();
  RegisterSupportMethods();
}

wasm::ExecOptions WaliRuntime::exec_options() const {
  wasm::ExecOptions opts;
  opts.scheme = options_.scheme;
  opts.max_frames = options_.max_frames;
  opts.fuel = options_.fuel;
  opts.dispatch = options_.dispatch;
  opts.jit = options_.jit;
  opts.jit_threshold = options_.jit_threshold;
  return opts;
}

int WaliRuntime::SyscallId(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? -1 : it->second;
}

void WaliRuntime::ApplyFdEffect(WaliProcess& proc, size_t id,
                                const uint64_t* args, int64_t ret) const {
  if (fd_effects_[id] == FdEffect::kClosesFd) {
    // Linux frees the fd even when close(2) fails (EINTR/EIO); keeping it
    // tracked would double-close a number the kernel has since reused.
    proc.UntrackFd(static_cast<int>(args[0]));
    // The freed number can come back as a different file type; a stale
    // offloadability entry would then misroute sync-vs-park decisions.
    proc.InvalidateOffloadFd(static_cast<int>(args[0]));
    return;
  }
  if (ret < 0) {
    return;
  }
  switch (fd_effects_[id]) {
    case FdEffect::kNone:
    case FdEffect::kClosesFd:
      break;
    case FdEffect::kMintsFd:
      proc.TrackFd(static_cast<int>(ret));
      // dup2/dup3 replace an OPEN target fd in place (ret == newfd), and
      // open/socket/accept can resurrect any previously classified number.
      proc.InvalidateOffloadFd(static_cast<int>(ret));
      break;
    case FdEffect::kFcntl:
      if (args[1] == F_DUPFD || args[1] == F_DUPFD_CLOEXEC) {
        proc.TrackFd(static_cast<int>(ret));
        proc.InvalidateOffloadFd(static_cast<int>(ret));
      } else if (args[1] == F_SETFL) {
        // O_NONBLOCK may have flipped: the classification depends on it
        // (non-blocking fds must answer -EAGAIN inline, never park).
        proc.InvalidateOffloadFd(static_cast<int>(args[0]));
      }
      break;
    case FdEffect::kIoctl:
      if (args[1] == FIONBIO) {
        // ioctl's alternate spelling of the O_NONBLOCK flip.
        proc.InvalidateOffloadFd(static_cast<int>(args[0]));
      }
      break;
  }
}

void WaliRuntime::RegisterAll() {
  RegisterFsSyscalls(defs_);
  RegisterMemSyscalls(defs_);
  RegisterProcSyscalls(defs_);
  RegisterSignalSyscalls(defs_);
  RegisterNetSyscalls(defs_);
  RegisterTimeSyscalls(defs_);
  RegisterMiscSyscalls(defs_);

  fd_effects_.assign(defs_.size(), FdEffect::kNone);
  auto mark = [this](const char* name, FdEffect effect) {
    for (size_t id = 0; id < defs_.size(); ++id) {
      if (std::strcmp(defs_[id].name, name) == 0) {
        fd_effects_[id] = effect;
      }
    }
  };
  // Every registered syscall whose successful result is a new fd. Keep in
  // lockstep with the registry: an unmatched name here is dead config.
  for (const char* name : {"open", "openat", "dup", "dup2", "dup3", "socket",
                           "accept", "accept4", "epoll_create1", "eventfd2"}) {
    mark(name, FdEffect::kMintsFd);
  }
  mark("close", FdEffect::kClosesFd);
  mark("fcntl", FdEffect::kFcntl);
  mark("ioctl", FdEffect::kIoctl);

  for (size_t id = 0; id < defs_.size(); ++id) {
    const SyscallDef& def = defs_[id];
    ids_[def.name] = static_cast<int>(id);
    wasm::FuncType type;
    type.params.assign(def.nargs, wasm::ValType::kI64);
    type.results = {wasm::ValType::kI64};
    linker_->DefineHostFunc(
        "wali", std::string("SYS_") + def.name, type,
        [this, id](wasm::ExecContext& ctx, const uint64_t* args,
                   uint64_t* results) {
          return Dispatch(ctx, static_cast<uint32_t>(id), args, results);
        });
  }
}

wasm::TrapKind WaliRuntime::Dispatch(wasm::ExecContext& ctx, uint32_t id,
                                     const uint64_t* args, uint64_t* results) {
  auto* proc = static_cast<WaliProcess*>(ctx.current_instance()->user_data());
  if (proc == nullptr) {
    ctx.SetTrap(wasm::TrapKind::kHostError, "WALI call outside a WALI process");
    return ctx.trap;
  }
  const SyscallDef& def = defs_[id];
  // Tenant syscall budget: enforced at the dispatch boundary (the natural
  // "safepoint" for syscalls — nothing kernel-visible has happened yet when
  // it trips, and the tripping dispatch itself never reaches the trace, so
  // it is not billed).
  uint64_t prior_syscalls =
      proc->run_syscalls.fetch_add(1, std::memory_order_acq_rel);
  uint64_t sys_budget = proc->syscall_budget.load(std::memory_order_acquire);
  if (sys_budget != 0 && prior_syscalls >= sys_budget) {
    ctx.SetTrap(wasm::TrapKind::kBudgetExhausted,
                "tenant syscall budget exhausted");
    return ctx.trap;
  }
  if (proc->policy != nullptr) {
    SyscallPolicy::Decision d = proc->policy->Evaluate(def.name);
    if (d.action == SyscallPolicy::Action::kKill) {
      ctx.SetTrap(wasm::TrapKind::kHostError, "syscall killed by policy");
      return ctx.trap;
    }
    if (d.action == SyscallPolicy::Action::kDeny || d.inject_fault) {
      proc->trace.Count(id);
      results[0] = static_cast<uint64_t>(-static_cast<int64_t>(d.err));
      return ctx.trap;
    }
  }
  WaliCtx c{ctx, *proc, *proc->memory, *this};
  const int64_t ret = CallHandler(c, id, args);
  // Counted once, here, whether or not the syscall parks: suspended runs
  // must match blocking runs bit-for-bit in syscall counts, so the
  // resume-time re-dispatch never counts again.
  proc->trace.Count(id);
  PendingIo& pio = proc->pending_io;
  if (!pio.armed) {
    Complete(*proc, id, args, ret);
    if (ctx.trap != wasm::TrapKind::kNone || ctx.opts.suspend_to == nullptr ||
        proc->park_after_syscalls == 0 ||
        ++proc->syscalls_since_park < proc->park_after_syscalls) {
      results[0] = static_cast<uint64_t>(ret);
      return ctx.trap;  // kExit/kHostError propagate; kNone continues
    }
    // Deterministic park hook (snapshot round-trip harness): the handler
    // already completed and its fd effect is applied, so park with its
    // result scripted on a wait any backend ends at once; resuming with
    // scripted_result is bit-identical to never having parked.
    proc->syscalls_since_park = 0;
    pio.armed = true;
    pio.op = IoOp::Sleep(0);
    pio.scripted = true;
    pio.scripted_result = ret;
  }
  // Park at the WALI boundary: the handler filed a PendingIo instead of
  // blocking. Recording which syscall parked, with its arguments, is what
  // lets ResumeMain finish it by re-dispatching the same handler; its
  // result and fd effect are materialized then.
  pio.syscall_id = id;
  std::copy_n(args, def.nargs, pio.args);
  ctx.SetTrap(wasm::TrapKind::kSyscallPending,
              "syscall parked for async completion");
  return ctx.trap;
}

int64_t WaliRuntime::CallHandler(WaliCtx& c, uint32_t id,
                                 const uint64_t* args) const {
  const bool timed = options_.attribute_time;
  int64_t t0 = timed ? common::MonotonicNanos() : 0;
  int64_t ret = defs_[id].fn(c, reinterpret_cast<const int64_t*>(args));
  if (timed) {
    c.proc.trace.AddWaliNanos(common::MonotonicNanos() - t0);
  }
  return ret;
}

void WaliRuntime::Complete(WaliProcess& proc, uint32_t id, const uint64_t* args,
                           int64_t ret) const {
  ApplyFdEffect(proc, id, args, ret);
  if (common::LogEnabled(common::LogLevel::kDebug)) {
    LOG_DEBUG() << "SYS_" << defs_[id].name << " -> " << ret;
  }
}

void WaliRuntime::RegisterSupportMethods() {
  auto get_proc = [](wasm::ExecContext& ctx) -> WaliProcess* {
    return static_cast<WaliProcess*>(ctx.current_instance()->user_data());
  };

  wasm::FuncType t_ret;
  t_ret.results = {wasm::ValType::kI64};
  wasm::FuncType t_arg_ret;
  t_arg_ret.params = {wasm::ValType::kI64};
  t_arg_ret.results = {wasm::ValType::kI64};
  wasm::FuncType t_2arg_ret;
  t_2arg_ret.params = {wasm::ValType::kI64, wasm::ValType::kI64};
  t_2arg_ret.results = {wasm::ValType::kI64};

  // Command-line parameter transfer (paper §3.4): the guest libc allocates
  // and copies inside the sandbox, so parser bugs stay contained.
  linker_->DefineHostFunc("wali", "get_argc", t_ret,
                          [get_proc](wasm::ExecContext& ctx, const uint64_t*,
                                     uint64_t* results) {
                            WaliProcess* p = get_proc(ctx);
                            results[0] = p != nullptr ? p->argv.size() : 0;
                            return wasm::TrapKind::kNone;
                          });
  linker_->DefineHostFunc(
      "wali", "get_argv_len", t_arg_ret,
      [get_proc](wasm::ExecContext& ctx, const uint64_t* args, uint64_t* results) {
        WaliProcess* p = get_proc(ctx);
        uint64_t i = args[0];
        results[0] = (p != nullptr && i < p->argv.size())
                         ? p->argv[i].size() + 1
                         : static_cast<uint64_t>(-EINVAL);
        return wasm::TrapKind::kNone;
      });
  linker_->DefineHostFunc(
      "wali", "copy_argv", t_2arg_ret,
      [get_proc](wasm::ExecContext& ctx, const uint64_t* args, uint64_t* results) {
        WaliProcess* p = get_proc(ctx);
        uint64_t buf = args[0], i = args[1];
        if (p == nullptr || i >= p->argv.size()) {
          results[0] = static_cast<uint64_t>(-EINVAL);
          return wasm::TrapKind::kNone;
        }
        const std::string& s = p->argv[i];
        auto mem = ctx.current_instance()->memory(0);
        if (mem == nullptr || !mem->InBounds(buf, s.size() + 1)) {
          results[0] = static_cast<uint64_t>(-EFAULT);
          return wasm::TrapKind::kNone;
        }
        std::memcpy(mem->At(buf), s.c_str(), s.size() + 1);
        results[0] = s.size() + 1;
        return wasm::TrapKind::kNone;
      });
  // Environment transfer (§3.4): explicitly specified, never inherited.
  linker_->DefineHostFunc("wali", "get_envc", t_ret,
                          [get_proc](wasm::ExecContext& ctx, const uint64_t*,
                                     uint64_t* results) {
                            WaliProcess* p = get_proc(ctx);
                            results[0] = p != nullptr ? p->env.size() : 0;
                            return wasm::TrapKind::kNone;
                          });
  linker_->DefineHostFunc(
      "wali", "get_env_len", t_arg_ret,
      [get_proc](wasm::ExecContext& ctx, const uint64_t* args, uint64_t* results) {
        WaliProcess* p = get_proc(ctx);
        uint64_t i = args[0];
        results[0] = (p != nullptr && i < p->env.size())
                         ? p->env[i].size() + 1
                         : static_cast<uint64_t>(-EINVAL);
        return wasm::TrapKind::kNone;
      });
  linker_->DefineHostFunc(
      "wali", "copy_env", t_2arg_ret,
      [get_proc](wasm::ExecContext& ctx, const uint64_t* args, uint64_t* results) {
        WaliProcess* p = get_proc(ctx);
        uint64_t buf = args[0], i = args[1];
        if (p == nullptr || i >= p->env.size()) {
          results[0] = static_cast<uint64_t>(-EINVAL);
          return wasm::TrapKind::kNone;
        }
        const std::string& s = p->env[i];
        auto mem = ctx.current_instance()->memory(0);
        if (mem == nullptr || !mem->InBounds(buf, s.size() + 1)) {
          results[0] = static_cast<uint64_t>(-EFAULT);
          return wasm::TrapKind::kNone;
        }
        std::memcpy(mem->At(buf), s.c_str(), s.size() + 1);
        results[0] = s.size() + 1;
        return wasm::TrapKind::kNone;
      });
}

common::StatusOr<std::unique_ptr<WaliProcess>> WaliRuntime::CreateProcess(
    std::shared_ptr<const wasm::Module> module, std::vector<std::string> argv,
    std::vector<std::string> env) {
  auto proc = std::make_unique<WaliProcess>(this, std::move(argv), std::move(env));
  proc->module = module;
  wasm::Linker::InstantiateOptions opts;
  opts.user_data = proc.get();
  // Deferred to RunMain so it executes with the process's safepoints,
  // policy, and fuel/frame limits — a tenant's (start) must not escape them.
  opts.run_start = false;
  opts.instance_name = proc->argv.empty() ? "wali-proc" : proc->argv[0];
  ASSIGN_OR_RETURN(std::unique_ptr<wasm::Instance> inst,
                   linker_->Instantiate(module, opts));
  proc->main_instance = std::move(inst);
  proc->memory = proc->main_instance->memory(0);
  if (proc->memory == nullptr) {
    return common::InvalidArgument("WALI modules must declare or import a memory");
  }
  proc->mmap.Bind(proc->memory.get());
  proc->AdoptInstance(proc->main_instance.get());
  return proc;
}

namespace {

// Declared min pages of the module's memory 0, local or imported.
common::StatusOr<uint64_t> ModuleMinMemoryPages(const wasm::Module& module) {
  if (!module.memories.empty()) {
    return module.memories[0].limits.min;
  }
  for (const wasm::Import& imp : module.imports) {
    if (imp.kind == wasm::ExternKind::kMemory) {
      return imp.limits.min;
    }
  }
  return common::InvalidArgument("WALI modules must declare or import a memory");
}

}  // namespace

common::Status WaliRuntime::ResetProcess(WaliProcess& process,
                                         std::shared_ptr<const wasm::Module> module,
                                         std::vector<std::string> argv,
                                         std::vector<std::string> env) {
  if (process.memory == nullptr) {
    return common::FailedPrecondition("process has no memory slab to recycle");
  }
  ASSIGN_OR_RETURN(uint64_t min_pages, ModuleMinMemoryPages(*module));
  std::shared_ptr<wasm::Memory> slab = process.memory;
  if (min_pages > slab->max_pages()) {
    return common::InvalidArgument("module memory exceeds the pooled slab reservation");
  }
  process.ResetForReuse(std::move(argv), std::move(env));
  RETURN_IF_ERROR(slab->ResetToPages(min_pages));
  wasm::Linker::InstantiateOptions opts;
  opts.user_data = &process;
  opts.memory0_override = slab;
  opts.run_start = false;  // deferred to RunMain, as in CreateProcess
  opts.instance_name = process.argv.empty() ? "wali-proc" : process.argv[0];
  ASSIGN_OR_RETURN(std::unique_ptr<wasm::Instance> inst,
                   linker_->Instantiate(std::move(module), opts));
  process.main_instance = std::move(inst);
  process.module = process.main_instance->module_ptr();
  process.memory = slab;
  process.mmap.Bind(slab.get());
  process.AdoptInstance(process.main_instance.get());
  return common::OkStatus();
}

wasm::RunResult WaliRuntime::RunMain(WaliProcess& process) {
  return RunMain(process, exec_options());
}

wasm::RunResult WaliRuntime::RunMain(WaliProcess& process,
                                     const wasm::ExecOptions& opts) {
  return RunMain(process, opts, nullptr);
}

wasm::RunResult WaliRuntime::RunMain(WaliProcess& process,
                                     const wasm::ExecOptions& opts,
                                     MainContinuation* cont) {
  wasm::RunResult r;
  // The (start) function, deferred from instantiation: runs with the same
  // limits and policy as the entry point, and what it burns comes out of the
  // one per-run fuel budget — (start) must not grant a tenant a second one.
  wasm::ExecOptions entry_opts = opts;
  // Main-thread runs recycle the process's interpreter buffers; pooled
  // slots thus stop reallocating stack/frame storage per guest run.
  if (entry_opts.buffers == nullptr) {
    entry_opts.buffers = &process.exec_buffers;
  }
  // (start) always runs synchronously — CanOffload() sees no suspension
  // slot and handlers take the blocking path — so a parked run is always
  // parked in the entry function and resume never has to replay into the
  // start/entry sequencing below.
  entry_opts.suspend_to = nullptr;
  process.pending_io.Reset();
  if (cont != nullptr) {
    cont->Discard();
  }
  uint64_t start_instrs = 0;
  if (process.module->start.has_value()) {
    r = process.main_instance->Call(*process.module->start, {}, entry_opts);
    start_instrs = r.executed_instrs;
    if (r.ok() && opts.fuel != 0 && start_instrs >= opts.fuel) {
      r.trap = wasm::TrapKind::kFuelExhausted;
      r.trap_message = "fuel exhausted by start function";
    }
    if (!r.ok()) {
      process.JoinThreads();
      if (r.trap == wasm::TrapKind::kExit) {
        r.values.clear();
      }
      return r;
    }
    if (opts.fuel != 0) {
      entry_opts.fuel = opts.fuel - start_instrs;
    }
  }
  if (cont != nullptr) {
    entry_opts.suspend_to = &cont->susp;
  }
  bool entry_is_main = false;
  if (process.module->FindExport("_start", wasm::ExternKind::kFunc) != nullptr) {
    r = process.main_instance->CallExport("_start", {}, entry_opts);
  } else {
    entry_is_main = true;
    r = process.main_instance->CallExport("main", {}, entry_opts);
  }
  if (r.trap == wasm::TrapKind::kSyscallPending) {
    cont->start_instrs = start_instrs;
    cont->entry_is_main = entry_is_main;
    // Partial count so far; the final tally is assembled in ResumeMain.
    return r;
  }
  if (entry_is_main && r.ok() && !r.values.empty()) {
    r.exit_code = static_cast<int32_t>(r.values[0].i32());
  }
  r.executed_instrs += start_instrs;
  process.JoinThreads();
  if (r.trap == wasm::TrapKind::kExit) {
    // Clean process exit.
    r.values.clear();
  }
  return r;
}

wasm::RunResult WaliRuntime::ResumeMain(WaliProcess& process,
                                        MainContinuation& cont,
                                        const IoCompletion& completion) {
  const PendingIo pio = std::exchange(process.pending_io, PendingIo());
  int64_t ret;
  if (completion.has_value ||
      completion.status == IoCompletion::Status::kError) {
    ret = completion.value;
  } else if (pio.scripted) {
    ret = pio.scripted_result;
  } else if (pio.armed && cont.armed()) {
    WaliCtx c{*cont.susp.ctx, process, *process.memory, *this,
              /*resumed=*/true};
    ret = CallHandler(c, pio.syscall_id, pio.args);
    Complete(process, pio.syscall_id, pio.args, ret);
  } else {
    ret = -ENOSYS;  // nothing parked: no handler to re-run
  }
  uint64_t bits = static_cast<uint64_t>(ret);
  wasm::RunResult r = wasm::ResumeInvoke(cont.susp, &bits, 1);
  if (r.trap == wasm::TrapKind::kSyscallPending) {
    return r;  // parked again; cont stays armed
  }
  if (cont.entry_is_main && r.ok() && !r.values.empty()) {
    r.exit_code = static_cast<int32_t>(r.values[0].i32());
  }
  r.executed_instrs += cont.start_instrs;
  cont.start_instrs = 0;
  cont.entry_is_main = false;
  process.JoinThreads();
  if (r.trap == wasm::TrapKind::kExit) {
    r.values.clear();
  }
  return r;
}

void WaliProcess::AdoptInstance(wasm::Instance* instance) {
  instance->set_user_data(this);
  instance->set_safepoint_fn(&WaliSafepoint);
}

}  // namespace wali
