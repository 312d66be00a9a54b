// Linear memory. The full max size is reserved up-front with PROT_NONE and
// committed on grow, so the base address never moves. This is what lets
// WALI share one memory across instance-per-thread clones and serve mmap
// from inside the sandbox (paper §3.2). The reservation is one anonymous,
// private mapping that is never remapped: every committed byte is
// read-write, and WALI keeps guests from locking its pages or flagging it,
// so Zero's one MADV_DONTNEED always makes a range read as zeros.
#ifndef SRC_WASM_MEMORY_H_
#define SRC_WASM_MEMORY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "src/common/status.h"
#include "src/wasm/types.h"

namespace wasm {

class Memory {
 public:
  // Creates a memory of `limits.min` pages, reserving `limits.max` pages
  // (or kDefaultMaxPages when absent). Returns nullptr on reservation failure.
  static common::StatusOr<std::shared_ptr<Memory>> Create(const Limits& limits);
  ~Memory();

  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  uint8_t* base() const { return base_; }
  uint64_t size_bytes() const { return size_bytes_.load(std::memory_order_acquire); }
  uint64_t size_pages() const { return size_bytes() / kWasmPageSize; }
  // Address of the live size word, for code that re-reads it without holding
  // a Memory reference per read (the JIT tier's loop-header REFRESH_MSIZE
  // reload). base() never moves, so (base, size word) fully describes the
  // addressable range for the lifetime of the Memory.
  const std::atomic<uint64_t>* size_bytes_addr() const { return &size_bytes_; }
  uint64_t max_pages() const { return max_pages_; }
  bool shared() const { return shared_; }

  // Largest committed size (in pages) since creation or the last
  // ResetToPages. Memory never shrinks within a run, so this is the run's
  // memory high-water mark — the number the host accounting layer charges
  // per tenant (RunReport.mem_high_water_pages).
  uint64_t high_water_pages() const {
    return high_water_pages_.load(std::memory_order_acquire);
  }

  // Soft cap below max_pages, enforced in Grow (and thus GrowToCover): a
  // grow past it fails like a grow past the declared maximum, so pages
  // beyond the cap are never committed — a single huge memory.grow cannot
  // overshoot it the way a poll-at-safepoint check could. 0 = no cap.
  // Armed per run by the host supervisor from the tenant's memory budget;
  // cleared on ResetToPages (slab recycle).
  void SetGrowBudgetPages(uint64_t pages) {
    grow_budget_pages_.store(pages, std::memory_order_release);
  }
  uint64_t grow_budget_pages() const {
    return grow_budget_pages_.load(std::memory_order_acquire);
  }

  // Grows by delta pages; returns previous size in pages or -1 on failure
  // (Wasm memory.grow semantics).
  int64_t Grow(uint64_t delta_pages);

  // Grows until size_bytes() >= end (page-rounded). Used by WALI mmap.
  bool GrowToCover(uint64_t end);

  // Returns the memory to a pristine `pages`-page state: every committed page
  // reads as zero again and the wasm size shrinks (or grows) to `pages`.
  // The base address is preserved, which is what lets the host layer recycle
  // a reserved slab across guest instantiations instead of re-reserving.
  // Committed pages at or above `pages` are dropped (Zero), then the size
  // difference is mprotected. Below `pages`, one mincore scan finds what the
  // last tenant left resident: up to 16 OS pages are memset and stay
  // resident, so the next tenant does not refault them and no madvise finds
  // a present page (no TLB-shootdown interrupts); a larger footprint, or a
  // range past 4096 OS pages, is dropped whole. The only place that keeps
  // pages: eviction, which exists to give pages back, calls Zero.
  common::Status ResetToPages(uint64_t pages);

  // Makes [offset, offset + len) read as zeros with one madvise(MADV_DONTNEED),
  // which also gives its pages back to the kernel. The part at or above
  // size_bytes() is skipped: those pages have not been writable since Create
  // or the last ResetToPages, so they already read as zeros. Returns errno
  // (0 on success).
  int Zero(uint64_t offset, uint64_t len);

  bool InBounds(uint64_t offset, uint64_t len) const {
    uint64_t size = size_bytes();
    return offset <= size && len <= size - offset;
  }

  // Unchecked translation; callers must bounds-check first.
  uint8_t* At(uint64_t offset) const { return base_ + offset; }

  // --- atomics.wait / atomics.notify support (threads proposal) ---
  // Returns 0 = woken, 1 = not-equal, 2 = timed out.
  int Wait32(uint64_t addr, uint32_t expected, int64_t timeout_ns);
  int Wait64(uint64_t addr, uint64_t expected, int64_t timeout_ns);
  uint32_t Notify(uint64_t addr, uint32_t count);

 private:
  Memory() = default;

  template <typename T>
  int WaitImpl(uint64_t addr, T expected, int64_t timeout_ns);

  uint8_t* base_ = nullptr;
  std::atomic<uint64_t> size_bytes_{0};
  std::atomic<uint64_t> high_water_pages_{0};
  std::atomic<uint64_t> grow_budget_pages_{0};
  uint64_t max_pages_ = 0;
  uint64_t reserved_bytes_ = 0;
  bool shared_ = false;
  std::mutex grow_mu_;

  struct WaitQueue {
    std::condition_variable cv;
    uint64_t waiters = 0;
    uint64_t wake_epoch = 0;
  };
  std::mutex wait_mu_;
  std::map<uint64_t, WaitQueue> wait_queues_;
};

// Default reservation when a memory declares no maximum: 16384 pages = 1 GiB.
inline constexpr uint64_t kDefaultMaxPages = 16384;

}  // namespace wasm

#endif  // SRC_WASM_MEMORY_H_
