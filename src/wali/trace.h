// Syscall tracing and per-layer time attribution (Fig. 2 profile data,
// Fig. 7 runtime breakdown, WALI_VERBOSE-style diagnostics).
#ifndef SRC_WALI_TRACE_H_
#define SRC_WALI_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace wali {

inline constexpr size_t kMaxTracedSyscalls = 256;

class SyscallTrace {
 public:
  void Count(uint32_t syscall_id, uint64_t n = 1) {
    if (syscall_id < kMaxTracedSyscalls) {
      counts_[syscall_id].fetch_add(n, std::memory_order_relaxed);
    }
  }
  void AddWaliNanos(int64_t ns) { wali_ns_.fetch_add(ns, std::memory_order_relaxed); }
  void AddKernelNanos(int64_t ns) { kernel_ns_.fetch_add(ns, std::memory_order_relaxed); }

  uint64_t count(uint32_t syscall_id) const {
    return syscall_id < kMaxTracedSyscalls
               ? counts_[syscall_id].load(std::memory_order_relaxed)
               : 0;
  }
  uint64_t total_calls() const {
    uint64_t sum = 0;
    for (const auto& c : counts_) sum += c.load(std::memory_order_relaxed);
    return sum;
  }
  // Time spent inside WALI handlers, exclusive of the nested kernel time.
  int64_t wali_nanos() const {
    return wali_ns_.load(std::memory_order_relaxed) -
           kernel_ns_.load(std::memory_order_relaxed);
  }
  int64_t kernel_nanos() const { return kernel_ns_.load(std::memory_order_relaxed); }

  void Reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    wali_ns_.store(0, std::memory_order_relaxed);
    kernel_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> counts_[kMaxTracedSyscalls] = {};
  std::atomic<int64_t> wali_ns_{0};
  std::atomic<int64_t> kernel_ns_{0};
};

}  // namespace wali

#endif  // SRC_WALI_TRACE_H_
