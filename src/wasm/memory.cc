#include "src/wasm/memory.h"

#include <errno.h>
#include <string.h>
#include <sys/mman.h>

#include <chrono>

namespace wasm {

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
  if (Zero(0, cur_bytes) != 0) {
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
