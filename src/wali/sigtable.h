// Virtual signal table and asynchronous signal plumbing (paper §3.3, Fig. 5).
//
// A SigTable is one process's signal state as plain data: dispositions,
// pending bits, the virtual mask and a delivery count. Lifecycle as in the
// paper: (1) registration — wali_rt_sigaction stores the Wasm funcref index
// in the table; (2) generation — a pending bit is set; (3) delivery — the
// interpreter polls pending bits at safepoints; (4) handler execution — the
// engine re-enters the module to run the registered Wasm handler, or applies
// the signal's default action.
//
// Only the one table a single-run host binds (BindNative) gets its signals
// from the kernel: while bound it mirrors each disposition natively (a
// trampoline that sets the pending bit, SIG_IGN or SIG_DFL), which is the
// paper's 1-to-1 process model. Every other table, such as a pooled
// tenant's, never calls sigaction; its signals are the ones its own guest
// raises (kill, tkill, tgkill, a write that answers -EPIPE).
#ifndef SRC_WALI_SIGTABLE_H_
#define SRC_WALI_SIGTABLE_H_

#include <signal.h>

#include <atomic>
#include <cstdint>
#include <mutex>

namespace wali {

inline constexpr int kNumSignals = 64;  // 1..64 (rt signals included)

// Virtual handler values matching the kernel ABI.
inline constexpr uint32_t kSigDfl = 0;
inline constexpr uint32_t kSigIgn = 1;

// `signo`'s bit in a pending set or mask (the kernel sigset layout).
constexpr uint64_t SigBit(int signo) { return 1ULL << (signo - 1); }

// Signals whose Linux default action is to ignore them: SIGCHLD, SIGCONT,
// SIGURG and SIGWINCH, plus the stop signals SIGSTOP, SIGTSTP, SIGTTIN and
// SIGTTOU, since a tenant has no job control. Every other signal's default
// action ends the run with exit 128 + signo.
inline constexpr uint64_t kDefaultIgnored =
    SigBit(SIGCHLD) | SigBit(SIGCONT) | SigBit(SIGURG) | SigBit(SIGWINCH) |
    SigBit(SIGSTOP) | SigBit(SIGTSTP) | SigBit(SIGTTIN) | SigBit(SIGTTOU);

struct SigEntry {
  uint32_t handler = kSigDfl;  // funcref table index, or kSigDfl/kSigIgn
  uint32_t flags = 0;
  uint64_t mask = 0;
};

class SigTable {
 public:
  SigTable() = default;
  // Unbinds (see UnbindNative).
  ~SigTable();

  // Registers `entry` for `signo` (1-based) and writes the previous entry to
  // `old` if non-null; a bound table also mirrors it natively. Returns 0 or
  // -errno.
  int SetAction(int signo, const SigEntry& entry, SigEntry* old);
  SigEntry GetAction(int signo);

  // Binds this table to the host's native signals: from now on SetAction
  // mirrors each disposition with sigaction, and a caught signal sets this
  // table's pending bit. Bind before the guest runs or a snapshot is
  // restored into the table. One table per host can be bound; returns 0, or
  // -EBUSY when a table is already bound.
  int BindNative();
  // Restores SIG_DFL for every signal this table changed and unbinds it.
  // Does nothing for an unbound table.
  void UnbindNative();
  bool bound() const;

  // Clears every entry, the pending bits, the virtual mask and the delivery
  // counter: the freshly constructed state (pooled slot reuse). It touches
  // only this table, so it is for unbound tables; a bound one is never
  // pooled.
  void Reset();

  // Marks `signo` pending: the guest's own kill, tkill, tgkill or -EPIPE,
  // or a bound table's native trampoline (so it must stay
  // async-signal-safe: single atomic OR).
  void RaiseVirtual(int signo) {
    pending_.fetch_or(SigBit(signo), std::memory_order_acq_rel);
  }

  bool AnyPending() const { return pending() != 0; }
  uint64_t pending() const { return pending_.load(std::memory_order_acquire); }

  // Atomically takes the deliverable (non-masked) pending set.
  uint64_t TakePending(uint64_t masked);

  // Virtual per-process signal mask (paper: per-LWP masks come free with
  // clone-backed models; our instance-per-thread model keeps one virtual
  // mask per process, plus native passthrough while bound).
  uint64_t virtual_mask() const { return sigmask_.load(std::memory_order_acquire); }
  void set_virtual_mask(uint64_t m) { sigmask_.store(m, std::memory_order_release); }

  uint64_t delivered_count() const { return delivered_.load(std::memory_order_relaxed); }
  void count_delivery() { delivered_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  SigEntry entries_[kNumSignals + 1];
  std::atomic<uint64_t> pending_{0};
  std::atomic<uint64_t> sigmask_{0};
  std::atomic<uint64_t> delivered_{0};
};

}  // namespace wali

#endif  // SRC_WALI_SIGTABLE_H_
