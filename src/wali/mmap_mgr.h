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

  // Allocates `len` bytes (page-rounded). hint_addr != 0 with `fixed` asks
  // for a specific in-sandbox address. Returns wasm address or 0 on failure.
  // `virgin` (optional) reports whether the range has never been handed out
  // before (freshly committed pages are already zero; callers skip zeroing).
  uint64_t Allocate(uint64_t len, uint64_t hint_addr, bool fixed,
                    bool* virgin = nullptr);

  // Releases [addr, addr+len). Returns false if the range was not mapped by
  // this manager (kernel-style: munmap of unmapped ranges still succeeds, so
  // callers may ignore the result; it exists for tests).
  bool Release(uint64_t addr, uint64_t len);

  // Grows/moves an existing allocation; returns new address or 0.
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
    uint64_t virgin_base = 0;
    uint64_t brk_base = 0;
    uint64_t brk_cur = 0;
    uint64_t brk_limit = 0;
    std::vector<std::pair<uint64_t, uint64_t>> used;  // start -> length
  };
  State ExportState();
  void ImportState(const State& s);

 private:
  void InitLocked();
  uint64_t AllocateLocked(uint64_t len, uint64_t hint_addr, bool fixed,
                          bool* virgin = nullptr);
  bool ReleaseLocked(uint64_t addr, uint64_t len);

  wasm::Memory* memory_ = nullptr;
  std::mutex mu_;
  bool initialized_ = false;
  uint64_t base_ = 0;   // pool start (wasm address)
  uint64_t limit_ = 0;  // pool end (reservation top)
  // Allocated ranges: start -> length. Gaps are free.
  std::map<uint64_t, uint64_t> used_;
  // Highest address ever handed out; ranges above it are untouched zeros.
  uint64_t virgin_base_ = 0;

  uint64_t brk_base_ = 0;
  uint64_t brk_cur_ = 0;
  uint64_t brk_limit_ = 0;
};

}  // namespace wali

#endif  // SRC_WALI_MMAP_MGR_H_
