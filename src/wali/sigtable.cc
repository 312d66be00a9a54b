#include "src/wali/sigtable.h"

#include <errno.h>

#include <algorithm>
#include <iterator>

namespace wali {

namespace {

// The table bound to the host's native signals, if any (async-signal-safe
// reads by the trampoline).
std::atomic<SigTable*> g_bound{nullptr};

void NativeTrampoline(int signo) {
  SigTable* table = g_bound.load(std::memory_order_acquire);
  if (table != nullptr && signo >= 1 && signo <= kNumSignals) {
    table->RaiseVirtual(signo);
  }
}

// Sets the bound table's native disposition for `signo`: SIG_DFL, SIG_IGN,
// or the trampoline for a caught signal. SA_RESTART keeps passthrough
// syscalls from spuriously failing; delivery latency is bounded by the
// safepoint polling interval anyway.
int SetNative(int signo, uint32_t handler) {
  struct sigaction sa = {};  // empty sa_mask
  sa.sa_handler = handler == kSigDfl   ? SIG_DFL
                  : handler == kSigIgn ? SIG_IGN
                                       : &NativeTrampoline;
  sa.sa_flags = handler > kSigIgn ? SA_RESTART : 0;
  return sigaction(signo, &sa, nullptr) == 0 ? 0 : -errno;
}

}  // namespace

SigTable::~SigTable() { UnbindNative(); }

int SigTable::SetAction(int signo, const SigEntry& entry, SigEntry* old) {
  if (signo < 1 || signo > kNumSignals || signo == SIGKILL || signo == SIGSTOP) {
    return -EINVAL;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (bound()) {
    int rc = SetNative(signo, entry.handler);
    if (rc != 0) {
      return rc;
    }
  }
  if (old != nullptr) {
    *old = entries_[signo];
  }
  entries_[signo] = entry;
  return 0;
}

SigEntry SigTable::GetAction(int signo) {
  std::lock_guard<std::mutex> lock(mu_);
  if (signo < 1 || signo > kNumSignals) {
    return SigEntry{};
  }
  return entries_[signo];
}

int SigTable::BindNative() {
  std::lock_guard<std::mutex> lock(mu_);
  SigTable* none = nullptr;
  return g_bound.compare_exchange_strong(none, this, std::memory_order_acq_rel)
             ? 0
             : -EBUSY;
}

void SigTable::UnbindNative() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!bound()) {
    return;
  }
  // Dispositions first: once unbound, no new signal enters the trampoline.
  for (int s = 1; s <= kNumSignals; ++s) {
    if (entries_[s].handler != kSigDfl) {
      SetNative(s, kSigDfl);
    }
  }
  g_bound.store(nullptr, std::memory_order_release);
}

bool SigTable::bound() const {
  return g_bound.load(std::memory_order_acquire) == this;
}

void SigTable::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(std::begin(entries_), std::end(entries_), SigEntry{});
  pending_.store(0, std::memory_order_release);
  sigmask_.store(0, std::memory_order_release);
  delivered_.store(0, std::memory_order_relaxed);
}

uint64_t SigTable::TakePending(uint64_t masked) {
  return pending_.fetch_and(masked, std::memory_order_acq_rel) & ~masked;
}

}  // namespace wali
