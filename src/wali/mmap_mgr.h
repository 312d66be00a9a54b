// WALI memory-mapping manager (paper §3.2 "Memory Management").
//
// Carves page-aligned ranges out of the top of a module's linear memory to
// back guest mmap/munmap/mremap. All mappings live inside the Wasm sandbox
// and are just committed wasm pages: an anonymous map reads as zeros, and a
// private file map holds a copy of the file (src/wali/syscalls_mem.cc). A
// simple ordered free-list tracks the pool; the paper's minimal
// implementation uses a single bump pointer — we keep a free list so
// unmapped ranges can be reused (listed as the paper's "more elaborate
// allocator" extension).
//
// This is the one module that holds Linux's zero rule for mmap, mremap and
// brk. Every page the pool hands out reads as zeros: a new map, the grown
// part of an mremap, the target of an mremap move, and brk growth. Every
// page it takes back is dropped: munmap, an mremap shrink and the source of
// an mremap move (the overlap a MAP_FIXED map replaces is zeroed by that
// map's hand-out). Both are one wasm::Memory::Zero, which skips the pages
// at or above the committed size; so a hand-out zeroes before it grows the
// memory to cover its range.
#ifndef SRC_WALI_MMAP_MGR_H_
#define SRC_WALI_MMAP_MGR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "src/wasm/memory.h"

namespace wali {

inline constexpr uint64_t kMmapPageSize = 4096;

class MmapManager {
 public:
  // Lazily initialized from the memory's current size at first use.
  void Bind(wasm::Memory* memory) { memory_ = memory; }

  // Allocates `len` bytes (page-rounded) that read as zeros. hint_addr != 0
  // with `fixed` asks for a specific in-sandbox address, replacing the
  // mappings it overlaps. Returns wasm address or 0 on failure (no room, or
  // the range could not be zeroed).
  uint64_t Allocate(uint64_t len, uint64_t hint_addr, bool fixed);

  // Releases [addr, addr+len) and drops its pages; the drop only frees
  // memory, so it is best-effort. Returns false if no part of the range was
  // mapped by this manager (kernel-style: munmap of unmapped ranges still
  // succeeds, so callers may ignore the result; it exists for tests).
  bool Release(uint64_t addr, uint64_t len);

  // mremap of [old_addr, old_addr + old_len), which must start a mapping.
  // Shrinks release the tail. Grows stay in place only when the range is
  // the whole mapping and the room after it is free; otherwise they move
  // when `may_move`. Returns the new address or 0.
  uint64_t Reallocate(uint64_t old_addr, uint64_t old_len, uint64_t new_len,
                      bool may_move);

  bool IsMapped(uint64_t addr, uint64_t len);

  uint64_t pool_base();       // lazy-init
  uint64_t bytes_in_use();    // mapped bytes (tests/metrics)

  // Forgets all mappings and the program break, returning to the
  // never-initialized state; the pool geometry is re-derived lazily from the
  // bound memory's (post-reset) size at next use. Used when a pooled process
  // slot is recycled for a fresh guest.
  void Reset();

  // Program-break emulation for SYS_brk: a dedicated region carved from the
  // pool on first use.
  uint64_t Brk(uint64_t new_break);

  // Snapshot support (src/wali/process_snapshot.cc): the pool geometry and
  // the live mappings are guest-visible process state — a restored process
  // must hand out the same addresses the original would have, and must not
  // re-derive the pool base from the (already grown) restored memory size.
  struct State {
    bool initialized = false;
    uint64_t base = 0;
    uint64_t limit = 0;
    uint64_t brk_base = 0;
    uint64_t brk_cur = 0;
    uint64_t brk_limit = 0;
    std::vector<std::pair<uint64_t, uint64_t>> used;  // start -> length
  };
  State ExportState();
  void ImportState(const State& s);

 private:
  void InitLocked();
  uint64_t AllocateLocked(uint64_t len, uint64_t hint_addr, bool fixed);
  // Zeroes [addr, addr+len), then commits it; false if either fails.
  bool HandOutLocked(uint64_t addr, uint64_t len);
  // Forgets the records in [addr, addr+len), keeping the tails outside it.
  bool ForgetLocked(uint64_t addr, uint64_t len);
  bool ReleaseLocked(uint64_t addr, uint64_t len);

  wasm::Memory* memory_ = nullptr;
  std::mutex mu_;
  bool initialized_ = false;
  uint64_t base_ = 0;   // pool start (wasm address)
  uint64_t limit_ = 0;  // pool end (reservation top)
  // Allocated ranges: start -> length. Gaps are free.
  std::map<uint64_t, uint64_t> used_;

  uint64_t brk_base_ = 0;
  uint64_t brk_cur_ = 0;
  uint64_t brk_limit_ = 0;
};

}  // namespace wali

#endif  // SRC_WALI_MMAP_MGR_H_
