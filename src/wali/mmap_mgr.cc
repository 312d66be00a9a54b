#include "src/wali/mmap_mgr.h"

#include <algorithm>
#include <cstring>

namespace wali {

namespace {

uint64_t PageUp(uint64_t v) { return (v + kMmapPageSize - 1) & ~(kMmapPageSize - 1); }

}  // namespace

void MmapManager::InitLocked() {
  if (initialized_) {
    return;
  }
  initialized_ = true;
  // Pool begins above everything the module declared/used at bind time,
  // rounded to a wasm page so file mappings stay page-aligned, and ends at
  // the reservation cap.
  base_ = PageUp(memory_->size_bytes());
  if (base_ < memory_->size_bytes()) {
    base_ = memory_->size_bytes();
  }
  base_ = (base_ + wasm::kWasmPageSize - 1) & ~(wasm::kWasmPageSize - 1);
  limit_ = memory_->max_pages() * wasm::kWasmPageSize;
}

uint64_t MmapManager::pool_base() {
  std::lock_guard<std::mutex> lock(mu_);
  InitLocked();
  return base_;
}

void MmapManager::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  initialized_ = false;
  base_ = 0;
  limit_ = 0;
  used_.clear();
  brk_base_ = 0;
  brk_cur_ = 0;
  brk_limit_ = 0;
}

MmapManager::State MmapManager::ExportState() {
  std::lock_guard<std::mutex> lock(mu_);
  State s;
  s.initialized = initialized_;
  s.base = base_;
  s.limit = limit_;
  s.brk_base = brk_base_;
  s.brk_cur = brk_cur_;
  s.brk_limit = brk_limit_;
  s.used.assign(used_.begin(), used_.end());
  return s;
}

void MmapManager::ImportState(const State& s) {
  std::lock_guard<std::mutex> lock(mu_);
  initialized_ = s.initialized;
  base_ = s.base;
  limit_ = s.limit;
  brk_base_ = s.brk_base;
  brk_cur_ = s.brk_cur;
  brk_limit_ = s.brk_limit;
  used_.clear();
  used_.insert(s.used.begin(), s.used.end());
}

uint64_t MmapManager::bytes_in_use() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [start, len] : used_) {
    total += len;
  }
  return total;
}

uint64_t MmapManager::Allocate(uint64_t len, uint64_t hint_addr, bool fixed) {
  std::lock_guard<std::mutex> lock(mu_);
  InitLocked();
  return AllocateLocked(len, hint_addr, fixed);
}

bool MmapManager::HandOutLocked(uint64_t addr, uint64_t len) {
  return memory_->Zero(addr, len) == 0 && memory_->GrowToCover(addr + len);
}

uint64_t MmapManager::AllocateLocked(uint64_t len, uint64_t hint_addr, bool fixed) {
  len = PageUp(len);
  if (len == 0 || len > limit_ || base_ >= limit_) {
    return 0;
  }
  if (fixed && hint_addr != 0) {
    if (hint_addr % kMmapPageSize != 0 || hint_addr < base_ || hint_addr > limit_ ||
        hint_addr + len > limit_) {
      return 0;
    }
    // Kernel MAP_FIXED semantics replace existing mappings.
    ForgetLocked(hint_addr, len);
    if (!HandOutLocked(hint_addr, len)) {
      return 0;
    }
    used_[hint_addr] = len;
    return hint_addr;
  }
  // First-fit scan over gaps between used ranges.
  uint64_t cursor = base_;
  for (const auto& [start, used_len] : used_) {
    if (start >= cursor && start - cursor >= len) {
      break;
    }
    if (start + used_len > cursor) {
      cursor = start + used_len;
    }
  }
  if (cursor + len > limit_ || !HandOutLocked(cursor, len)) {
    return 0;
  }
  used_[cursor] = len;
  return cursor;
}

bool MmapManager::Release(uint64_t addr, uint64_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  InitLocked();
  return ReleaseLocked(addr, len);
}

bool MmapManager::ReleaseLocked(uint64_t addr, uint64_t len) {
  bool any = ForgetLocked(addr, len);
  (void)memory_->Zero(addr, PageUp(len));
  return any;
}

bool MmapManager::ForgetLocked(uint64_t addr, uint64_t len) {
  len = PageUp(len);
  if (len == 0) {
    return false;
  }
  uint64_t end = addr + len;
  bool any = false;
  // Start at the first range that could overlap (the predecessor may spill
  // into [addr, end)).
  auto it = used_.lower_bound(addr);
  if (it != used_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second > addr) {
      it = prev;
    }
  }
  while (it != used_.end() && it->first < end) {
    uint64_t s = it->first;
    uint64_t e = s + it->second;
    if (e <= addr) {
      ++it;
      continue;
    }
    any = true;
    it = used_.erase(it);
    // Keep the non-overlapping tails mapped.
    if (s < addr) {
      used_[s] = addr - s;
    }
    if (e > end) {
      used_[end] = e - end;
    }
  }
  return any;
}

uint64_t MmapManager::Reallocate(uint64_t old_addr, uint64_t old_len,
                                 uint64_t new_len, bool may_move) {
  std::lock_guard<std::mutex> lock(mu_);
  InitLocked();
  if (old_len > limit_ || new_len > limit_) {
    return 0;
  }
  old_len = PageUp(old_len);
  new_len = PageUp(new_len);
  auto it = used_.find(old_addr);
  if (it == used_.end() || it->second < old_len) {
    return 0;
  }
  if (new_len <= old_len) {
    ReleaseLocked(old_addr + new_len, old_len - new_len);
    return old_addr;
  }
  auto next = std::next(it);
  uint64_t room = (next == used_.end() ? limit_ : next->first) - old_addr;
  if (it->second == old_len && room >= new_len &&
      HandOutLocked(old_addr + old_len, new_len - old_len)) {
    it->second = new_len;
    return old_addr;
  }
  if (!may_move) {
    return 0;
  }
  uint64_t fresh = AllocateLocked(new_len, 0, false);
  if (fresh == 0) {
    return 0;
  }
  std::memmove(memory_->At(fresh), memory_->At(old_addr), old_len);
  ReleaseLocked(old_addr, old_len);
  return fresh;
}

bool MmapManager::IsMapped(uint64_t addr, uint64_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t end = addr + PageUp(len);
  uint64_t cursor = addr;
  for (const auto& [s, l] : used_) {
    if (s > cursor) {
      if (cursor < end) return false;
      break;
    }
    if (s + l > cursor) {
      cursor = s + l;
    }
    if (cursor >= end) return true;
  }
  return cursor >= end;
}

uint64_t MmapManager::Brk(uint64_t new_break) {
  std::lock_guard<std::mutex> lock(mu_);
  InitLocked();
  if (brk_base_ == 0) {
    // Heap emulation region: a quarter of the remaining pool, capped at
    // 16 MiB, at least one wasm page.
    uint64_t room = limit_ > base_ ? limit_ - base_ : 0;
    uint64_t want = std::min<uint64_t>(16ULL << 20, room / 4);
    if (want < wasm::kWasmPageSize) {
      want = wasm::kWasmPageSize;
    }
    uint64_t region = AllocateLocked(want, 0, false);
    if (region == 0) {
      return 0;
    }
    brk_base_ = region;
    brk_cur_ = region;
    brk_limit_ = region + want;
  }
  if (new_break == 0) {
    return brk_cur_;
  }
  if (new_break < brk_base_ || new_break > brk_limit_) {
    return brk_cur_;  // kernel brk returns the old break on failure
  }
  // Linux gives fresh pages above the old break.
  uint64_t from = PageUp(brk_cur_);
  uint64_t to = PageUp(new_break);
  if (to > from && !HandOutLocked(from, to - from)) {
    return brk_cur_;
  }
  brk_cur_ = new_break;
  return brk_cur_;
}

}  // namespace wali
