#include "src/wasm/memory.h"

#include <errno.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

#include <chrono>

namespace wasm {
namespace {

// ResetToPages keeps what the last tenant left resident in the range the
// next tenant starts with, and memsets it, only while that is cheap. On a
// 4-vCPU x86-64 VM with 3 other busy threads, resetting a 4 MiB slab with
// 3 dirty pages cost 9.2 us for the drop's madvise (its TLB shootdown
// interrupts every worker) plus 6.4 us to refault the pages, and 4.4 us on
// the keep path (mincore 2.7, memset 1.0, madvise of the rest 0.7).
// 16 OS pages cost about 3 us to memset, about what one uncontended madvise
// costs, so a kept reset costs no more than the drop's own syscall even when
// the next tenant touches none of the kept pages. bench/host_throughput's
// pool reset rows time the whole Acquire (BENCH_pool.json).
constexpr uint64_t kMaxKeptOsPages = 16;
// mincore read 5.6 us over 16 MiB, 15 us over 64 MiB and 190 us over 1 GiB,
// while a madvise over a sparse range stays at 2-5 us: a longer range is
// dropped unscanned. One byte per OS page, so this is also the stack buffer.
constexpr uint64_t kMaxScannedOsPages = 4096;

// Makes [0, len) of `mem` read as zeros. When at most kMaxKeptOsPages of its
// OS pages are resident, each is memset and the runs of absent pages between
// them are dropped, so no madvise finds a present page; otherwise the whole
// range is dropped. No page is skipped: a page mincore calls resident is
// overwritten whatever backs it (the shared zero page, a page shared
// copy-on-write after a fork, a swap-cache or migration entry), because the
// write allocates a private page or breaks the sharing; one it calls absent
// (never touched, dropped or swapped out) is dropped.
int ZeroKeepingFewResident(Memory& mem, uint64_t len) {
  const long os_page = sysconf(_SC_PAGESIZE);
  const uint64_t page = os_page > 0 ? static_cast<uint64_t>(os_page) : 0;
  const uint64_t n = page > 0 ? len / page : 0;
  unsigned char resident[kMaxScannedOsPages];
  if (n == 0 || n > kMaxScannedOsPages || mincore(mem.base(), len, resident) != 0) {
    return mem.Zero(0, len);
  }
  uint64_t n_resident = 0;
  for (uint64_t i = 0; i < n; ++i) n_resident += resident[i] & 1;
  if (n_resident > kMaxKeptOsPages) return mem.Zero(0, len);
  uint64_t absent_from = 0;  // first page of the current run of absent pages
  for (uint64_t i = 0; i < n; ++i) {
    if ((resident[i] & 1) == 0) continue;
    if (int err = mem.Zero(absent_from * page, (i - absent_from) * page); err != 0) {
      return err;
    }
    memset(mem.At(i * page), 0, page);
    absent_from = i + 1;
  }
  return mem.Zero(absent_from * page, (n - absent_from) * page);
}

}  // namespace

common::StatusOr<std::shared_ptr<Memory>> Memory::Create(const Limits& limits) {
  uint64_t max_pages = limits.has_max ? limits.max : kDefaultMaxPages;
  if (max_pages > (1ULL << 16)) {
    max_pages = 1ULL << 16;  // wasm32: 4 GiB hard cap
  }
  if (limits.min > max_pages) {
    return common::InvalidArgument("memory min exceeds max");
  }
  uint64_t reserve = max_pages * kWasmPageSize;
  if (reserve == 0) {
    reserve = kWasmPageSize;  // keep a valid base for empty memories
  }
  void* base = mmap(nullptr, reserve, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    return common::ResourceExhausted("mmap reservation failed");
  }
  auto mem = std::shared_ptr<Memory>(new Memory());
  mem->base_ = static_cast<uint8_t*>(base);
  mem->max_pages_ = max_pages;
  mem->reserved_bytes_ = reserve;
  mem->shared_ = limits.shared;
  uint64_t initial = limits.min * kWasmPageSize;
  if (initial > 0) {
    if (mprotect(base, initial, PROT_READ | PROT_WRITE) != 0) {
      return common::ResourceExhausted("mprotect of initial pages failed");
    }
  }
  mem->size_bytes_.store(initial, std::memory_order_release);
  mem->high_water_pages_.store(limits.min, std::memory_order_release);
  return mem;
}

Memory::~Memory() {
  if (base_ != nullptr) {
    munmap(base_, reserved_bytes_);
  }
}

int64_t Memory::Grow(uint64_t delta_pages) {
  std::lock_guard<std::mutex> lock(grow_mu_);
  uint64_t old_bytes = size_bytes_.load(std::memory_order_relaxed);
  uint64_t old_pages = old_bytes / kWasmPageSize;
  if (delta_pages == 0) {
    return static_cast<int64_t>(old_pages);
  }
  if (old_pages + delta_pages > max_pages_) {
    return -1;
  }
  uint64_t grow_budget = grow_budget_pages_.load(std::memory_order_acquire);
  if (grow_budget != 0 && old_pages + delta_pages > grow_budget) {
    return -1;  // tenant memory cap: fails exactly like the declared max
  }
  uint64_t new_bytes = (old_pages + delta_pages) * kWasmPageSize;
  if (mprotect(base_ + old_bytes, new_bytes - old_bytes, PROT_READ | PROT_WRITE) != 0) {
    return -1;
  }
  size_bytes_.store(new_bytes, std::memory_order_release);
  uint64_t new_pages = old_pages + delta_pages;
  if (new_pages > high_water_pages_.load(std::memory_order_relaxed)) {
    high_water_pages_.store(new_pages, std::memory_order_release);
  }
  return static_cast<int64_t>(old_pages);
}

common::Status Memory::ResetToPages(uint64_t pages) {
  std::lock_guard<std::mutex> lock(grow_mu_);
  if (pages > max_pages_) {
    return common::InvalidArgument("reset beyond reserved maximum");
  }
  uint64_t new_bytes = pages * kWasmPageSize;
  uint64_t cur_bytes = size_bytes_.load(std::memory_order_relaxed);
  uint64_t keep = new_bytes < cur_bytes ? new_bytes : cur_bytes;
  if (Zero(keep, cur_bytes - keep) != 0 || ZeroKeepingFewResident(*this, keep) != 0) {
    return common::Internal("madvise during memory reset failed");
  }
  if (new_bytes != cur_bytes) {
    uint64_t lo = new_bytes < cur_bytes ? new_bytes : cur_bytes;
    uint64_t hi = new_bytes < cur_bytes ? cur_bytes : new_bytes;
    int prot = new_bytes > cur_bytes ? PROT_READ | PROT_WRITE : PROT_NONE;
    if (mprotect(base_ + lo, hi - lo, prot) != 0) {
      return common::ResourceExhausted("mprotect of reset pages failed");
    }
  }
  size_bytes_.store(new_bytes, std::memory_order_release);
  high_water_pages_.store(pages, std::memory_order_release);
  grow_budget_pages_.store(0, std::memory_order_release);
  return common::OkStatus();
}

bool Memory::GrowToCover(uint64_t end) {
  uint64_t cur = size_bytes();
  if (end <= cur) {
    return true;
  }
  uint64_t need_pages = (end + kWasmPageSize - 1) / kWasmPageSize;
  uint64_t cur_pages = cur / kWasmPageSize;
  if (need_pages <= cur_pages) {
    return true;
  }
  return Grow(need_pages - cur_pages) >= 0;
}

int Memory::Zero(uint64_t offset, uint64_t len) {
  uint64_t size = size_bytes();
  if (offset >= size || len == 0) {
    return 0;
  }
  if (len > size - offset) {
    len = size - offset;
  }
  return madvise(base_ + offset, len, MADV_DONTNEED) == 0 ? 0 : errno;
}

template <typename T>
int Memory::WaitImpl(uint64_t addr, T expected, int64_t timeout_ns) {
  std::unique_lock<std::mutex> lock(wait_mu_);
  T current;
  __atomic_load(reinterpret_cast<T*>(base_ + addr), &current, __ATOMIC_SEQ_CST);
  if (current != expected) {
    return 1;  // not-equal
  }
  WaitQueue& q = wait_queues_[addr];
  uint64_t epoch = q.wake_epoch;
  ++q.waiters;
  int result;
  if (timeout_ns < 0) {
    q.cv.wait(lock, [&] { return q.wake_epoch != epoch; });
    result = 0;
  } else {
    bool woken = q.cv.wait_for(lock, std::chrono::nanoseconds(timeout_ns),
                               [&] { return q.wake_epoch != epoch; });
    result = woken ? 0 : 2;
  }
  --q.waiters;
  if (q.waiters == 0) {
    wait_queues_.erase(addr);
  }
  return result;
}

int Memory::Wait32(uint64_t addr, uint32_t expected, int64_t timeout_ns) {
  return WaitImpl<uint32_t>(addr, expected, timeout_ns);
}

int Memory::Wait64(uint64_t addr, uint64_t expected, int64_t timeout_ns) {
  return WaitImpl<uint64_t>(addr, expected, timeout_ns);
}

uint32_t Memory::Notify(uint64_t addr, uint32_t count) {
  std::lock_guard<std::mutex> lock(wait_mu_);
  auto it = wait_queues_.find(addr);
  if (it == wait_queues_.end() || it->second.waiters == 0) {
    return 0;
  }
  uint32_t woken = static_cast<uint32_t>(
      count < it->second.waiters ? count : it->second.waiters);
  // Simplification: notify_all and let non-target waiters re-sleep via epoch
  // check; with the small waiter counts in our workloads this is sufficient
  // and keeps the queue structure simple.
  it->second.wake_epoch++;
  it->second.cv.notify_all();
  return woken;
}

}  // namespace wasm
