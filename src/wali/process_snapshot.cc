#include "src/wali/process_snapshot.h"

#include <unistd.h>

#include <utility>

#include "src/wasm/snapshot.h"

namespace wali {

namespace {

// WALI host-blob layout (carried opaquely inside the wasm snapshot; the
// outer header's version/checksum cover it, so no inner version field):
//   cont      start_instrs u64, entry_is_main u8
//   pending   scripted u8 (0 or 1), scripted_result u64, syscall id u32,
//             6 x arg u64, then the wait as poll(2) takes it: timeout_nanos
//             u64, member count u32 (<= IoOp::kMaxPollFds), then per member
//             fd u32, events u32
//   fds       count u32, then count i32 host fds (each in 3 .. fd limit - 1)
//   signals   virtual_mask u64, entry count u32, per entry: signo u8,
//             handler u32, flags u32, mask u64
//   trace     wali_nanos u64, kernel_nanos u64, nonzero-count u32,
//             then (syscall id u32, count u64) pairs
//   budgets   run_syscalls u64, syscall_budget u64, grow_budget_pages u64,
//             clear_child_tid u64
//   mmap      initialized u8, base u64, limit u64,
//             brk_base u64, brk_cur u64, brk_limit u64,
//             used count u32, then (start u64, len u64) pairs

std::vector<uint8_t> EncodeHostBlob(WaliProcess& proc,
                                    const WaliRuntime::MainContinuation& cont) {
  wasm::SnapshotWriter w;
  w.U64(cont.start_instrs);
  w.U8(cont.entry_is_main ? 1 : 0);

  const PendingIo& pio = proc.pending_io;
  w.U8(pio.scripted ? 1 : 0);
  w.U64(static_cast<uint64_t>(pio.scripted_result));
  w.U32(pio.syscall_id);
  for (uint64_t arg : pio.args) w.U64(arg);
  w.U64(static_cast<uint64_t>(pio.op.timeout_nanos));
  w.U32(static_cast<uint32_t>(pio.op.poll_fds.size()));
  for (const IoOp::PollFd& m : pio.op.poll_fds) {
    w.U32(static_cast<uint32_t>(m.fd));
    w.U32(static_cast<uint16_t>(m.events));
  }

  std::vector<int> fds = proc.fds.Owned();
  w.U32(static_cast<uint32_t>(fds.size()));
  for (int fd : fds) w.U32(static_cast<uint32_t>(fd));

  w.U64(proc.sigtable.virtual_mask());
  std::vector<std::pair<int, SigEntry>> sigs;
  for (int signo = 1; signo <= kNumSignals; ++signo) {
    SigEntry e = proc.sigtable.GetAction(signo);
    if (e.handler != kSigDfl || e.flags != 0 || e.mask != 0) {
      sigs.emplace_back(signo, e);
    }
  }
  w.U32(static_cast<uint32_t>(sigs.size()));
  for (const auto& [signo, e] : sigs) {
    w.U8(static_cast<uint8_t>(signo));
    w.U32(e.handler);
    w.U32(e.flags);
    w.U64(e.mask);
  }

  // Raw handler time is exclusive+kernel; store both parts so restore can
  // rebuild the atomics exactly and finish-time reports stay exact.
  w.U64(static_cast<uint64_t>(proc.trace.wali_nanos()));
  w.U64(static_cast<uint64_t>(proc.trace.kernel_nanos()));
  std::vector<std::pair<uint32_t, uint64_t>> counts;
  for (uint32_t id = 0; id < kMaxTracedSyscalls; ++id) {
    uint64_t n = proc.trace.count(id);
    if (n > 0) counts.emplace_back(id, n);
  }
  w.U32(static_cast<uint32_t>(counts.size()));
  for (const auto& [id, n] : counts) {
    w.U32(id);
    w.U64(n);
  }

  w.U64(proc.run_syscalls.load(std::memory_order_acquire));
  w.U64(proc.syscall_budget.load(std::memory_order_acquire));
  w.U64(proc.memory != nullptr ? proc.memory->grow_budget_pages() : 0);
  w.U64(proc.clear_child_tid.load(std::memory_order_acquire));

  // mmap/brk pool: guest-visible addresses — a restored process must hand
  // out what the original would have, not re-derive the pool lazily from
  // the already-grown restored memory.
  MmapManager::State ms = proc.mmap.ExportState();
  w.U8(ms.initialized ? 1 : 0);
  w.U64(ms.base);
  w.U64(ms.limit);
  w.U64(ms.brk_base);
  w.U64(ms.brk_cur);
  w.U64(ms.brk_limit);
  w.U32(static_cast<uint32_t>(ms.used.size()));
  for (const auto& [start, len] : ms.used) {
    w.U64(start);
    w.U64(len);
  }
  return std::move(w.buf());
}

common::Status DecodeHostBlob(const std::vector<uint8_t>& blob, WaliProcess& proc,
                              WaliRuntime::MainContinuation& cont) {
  wasm::SnapshotReader r(blob.data(), blob.size());
  uint64_t start_instrs = 0;
  uint8_t entry_is_main = 0;
  RETURN_IF_ERROR(r.U64(&start_instrs));
  RETURN_IF_ERROR(r.U8(&entry_is_main));

  PendingIo pending;
  pending.armed = true;
  uint8_t scripted = 0;
  uint64_t scripted_result = 0;
  uint64_t timeout_nanos = 0;
  uint32_t poll_count = 0;
  RETURN_IF_ERROR(r.U8(&scripted));
  RETURN_IF_ERROR(r.U64(&scripted_result));
  RETURN_IF_ERROR(r.U32(&pending.syscall_id));
  for (uint64_t& arg : pending.args) RETURN_IF_ERROR(r.U64(&arg));
  RETURN_IF_ERROR(r.U64(&timeout_nanos));
  RETURN_IF_ERROR(r.U32(&poll_count));
  if (scripted > 1) {
    return common::InvalidArgument("snapshot: bad scripted flag");
  }
  pending.scripted = scripted != 0;
  // Resume re-dispatches the parked handler past the policy and budget
  // checks that already ran at park time, so only a handler that can park
  // may be named; a scripted park is answered from its result, never re-run.
  if (!pending.scripted && !proc.runtime->CanPark(pending.syscall_id)) {
    return common::InvalidArgument("snapshot: pending syscall cannot park");
  }
  if (poll_count > IoOp::kMaxPollFds) {
    return common::InvalidArgument("snapshot: poll set too large");
  }
  pending.scripted_result = static_cast<int64_t>(scripted_result);
  pending.op.timeout_nanos = static_cast<int64_t>(timeout_nanos);
  for (uint32_t i = 0; i < poll_count; ++i) {
    uint32_t member_fd = 0;
    uint32_t events = 0;
    RETURN_IF_ERROR(r.U32(&member_fd));
    RETURN_IF_ERROR(r.U32(&events));
    pending.op.poll_fds.push_back(
        {static_cast<int>(member_fd), static_cast<short>(events)});
  }

  uint32_t fd_count = 0;
  RETURN_IF_ERROR(r.U32(&fd_count));
  if (fd_count > r.remaining() / 4) {
    return common::InvalidArgument("snapshot: fd count overruns input");
  }
  // An owned fd is above stdio and below the fd limit, where the kernel
  // hands fds out; the fd table is an array indexed by fd number, so an
  // unchecked number would size it.
  const uint64_t open_max = static_cast<uint64_t>(::sysconf(_SC_OPEN_MAX));
  std::vector<int> fds(fd_count);
  for (int& f : fds) {
    uint32_t v = 0;
    RETURN_IF_ERROR(r.U32(&v));
    if (v <= 2 || v >= open_max) {
      return common::InvalidArgument("snapshot: fd out of range");
    }
    f = static_cast<int>(v);
  }

  uint64_t virtual_mask = 0;
  uint32_t sig_count = 0;
  RETURN_IF_ERROR(r.U64(&virtual_mask));
  RETURN_IF_ERROR(r.U32(&sig_count));
  if (sig_count > kNumSignals) {
    return common::InvalidArgument("snapshot: signal entry count out of range");
  }
  struct SigRec {
    int signo = 0;
    SigEntry entry;
  };
  std::vector<SigRec> sigs(sig_count);
  for (SigRec& s : sigs) {
    uint8_t signo = 0;
    RETURN_IF_ERROR(r.U8(&signo));
    RETURN_IF_ERROR(r.U32(&s.entry.handler));
    RETURN_IF_ERROR(r.U32(&s.entry.flags));
    RETURN_IF_ERROR(r.U64(&s.entry.mask));
    if (signo < 1 || signo > kNumSignals) {
      return common::InvalidArgument("snapshot: signal number out of range");
    }
    s.signo = signo;
  }

  uint64_t wali_ns = 0;
  uint64_t kernel_ns = 0;
  uint32_t count_n = 0;
  RETURN_IF_ERROR(r.U64(&wali_ns));
  RETURN_IF_ERROR(r.U64(&kernel_ns));
  RETURN_IF_ERROR(r.U32(&count_n));
  if (count_n > kMaxTracedSyscalls) {
    return common::InvalidArgument("snapshot: trace count out of range");
  }
  std::vector<std::pair<uint32_t, uint64_t>> counts(count_n);
  for (auto& [id, n] : counts) {
    RETURN_IF_ERROR(r.U32(&id));
    RETURN_IF_ERROR(r.U64(&n));
    if (id >= kMaxTracedSyscalls) {
      return common::InvalidArgument("snapshot: traced syscall id out of range");
    }
  }

  uint64_t run_syscalls = 0;
  uint64_t syscall_budget = 0;
  uint64_t grow_budget_pages = 0;
  uint64_t clear_child_tid = 0;
  RETURN_IF_ERROR(r.U64(&run_syscalls));
  RETURN_IF_ERROR(r.U64(&syscall_budget));
  RETURN_IF_ERROR(r.U64(&grow_budget_pages));
  RETURN_IF_ERROR(r.U64(&clear_child_tid));

  MmapManager::State ms;
  uint8_t mmap_initialized = 0;
  uint32_t used_count = 0;
  RETURN_IF_ERROR(r.U8(&mmap_initialized));
  RETURN_IF_ERROR(r.U64(&ms.base));
  RETURN_IF_ERROR(r.U64(&ms.limit));
  RETURN_IF_ERROR(r.U64(&ms.brk_base));
  RETURN_IF_ERROR(r.U64(&ms.brk_cur));
  RETURN_IF_ERROR(r.U64(&ms.brk_limit));
  RETURN_IF_ERROR(r.U32(&used_count));
  if (used_count > r.remaining() / 16) {
    return common::InvalidArgument("snapshot: mmap range count overruns input");
  }
  ms.initialized = mmap_initialized != 0;
  ms.used.resize(used_count);
  for (auto& [start, len] : ms.used) {
    RETURN_IF_ERROR(r.U64(&start));
    RETURN_IF_ERROR(r.U64(&len));
  }

  if (r.remaining() != 0) {
    return common::InvalidArgument("snapshot: trailing bytes in host blob");
  }

  // Parsed clean; apply. Signal dispositions first: they are the one step
  // that can still fail, and nothing else has been touched if it does.
  for (const SigRec& s : sigs) {
    if (proc.sigtable.SetAction(s.signo, s.entry, nullptr) != 0) {
      return common::Internal("snapshot: signal disposition restore failed");
    }
  }
  proc.sigtable.set_virtual_mask(virtual_mask);

  cont.start_instrs = start_instrs;
  cont.entry_is_main = entry_is_main != 0;
  proc.pending_io = std::move(pending);
  for (int fd : fds) {
    proc.fds.Mint(fd);
  }

  proc.trace.Reset();
  proc.trace.AddWaliNanos(static_cast<int64_t>(wali_ns) +
                          static_cast<int64_t>(kernel_ns));
  proc.trace.AddKernelNanos(static_cast<int64_t>(kernel_ns));
  for (const auto& [id, n] : counts) {
    proc.trace.Count(id, n);
  }

  proc.run_syscalls.store(run_syscalls, std::memory_order_release);
  proc.syscall_budget.store(syscall_budget, std::memory_order_release);
  if (proc.memory != nullptr) {
    proc.memory->SetGrowBudgetPages(grow_budget_pages);
  }
  proc.clear_child_tid.store(clear_child_tid, std::memory_order_release);
  proc.mmap.ImportState(ms);
  return common::OkStatus();
}

}  // namespace

common::StatusOr<std::vector<uint8_t>> SnapshotProcess(
    WaliProcess& proc, const WaliRuntime::MainContinuation& cont) {
  if (!cont.armed()) {
    return common::FailedPrecondition("snapshot: continuation is not armed");
  }
  if (proc.main_instance == nullptr || proc.module == nullptr) {
    return common::FailedPrecondition("snapshot: process has no instance");
  }
  if (proc.thread_count() != 0) {
    return common::Unimplemented("snapshot: process has live guest threads");
  }
  if (proc.in_signal_handler.load(std::memory_order_acquire)) {
    return common::FailedPrecondition("snapshot: process is inside a signal handler");
  }
  if (proc.sigtable.AnyPending()) {
    return common::FailedPrecondition("snapshot: undelivered virtual signals pending");
  }
  if (!proc.pending_io.armed) {
    return common::FailedPrecondition("snapshot: no parked syscall");
  }
  std::vector<uint8_t> blob = EncodeHostBlob(proc, cont);
  return wasm::SnapshotSuspension(cont.susp, proc.main_instance.get(),
                                  wasm::ModuleStructuralHash(*proc.module), blob);
}

common::Status RestoreProcess(const uint8_t* data, size_t size, WaliProcess& proc,
                              WaliRuntime::MainContinuation& cont) {
  if (proc.main_instance == nullptr || proc.module == nullptr) {
    return common::FailedPrecondition("snapshot: process has no instance");
  }
  cont.Discard();
  // The execution mode is the restoring runtime's, exactly as for a run it
  // starts: a snapshot does not carry it.
  common::StatusOr<std::vector<uint8_t>> blob = wasm::RestoreSuspension(
      data, size, proc.main_instance.get(),
      wasm::ModuleStructuralHash(*proc.module), proc.runtime->exec_options(),
      &proc.exec_buffers, &cont.susp);
  if (!blob.ok()) {
    return blob.status();
  }
  common::Status st = DecodeHostBlob(*blob, proc, cont);
  if (!st.ok()) {
    cont.Discard();  // never leave a half-restored continuation armed
    return st;
  }
  return common::OkStatus();
}

}  // namespace wali
