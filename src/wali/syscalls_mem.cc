// Memory-management syscalls (paper §3.2): mmap/munmap/mremap fully inside
// the Wasm sandbox via the MmapManager pool, brk emulated over the pool.
// The pool holds Linux's rule that memory it hands out reads as zeros
// (src/wali/mmap_mgr.h); the handlers here only translate arguments and
// answers.
//
// Every committed byte of linear memory is anonymous, private and
// read-write, unlocked, with no guest-set flags on its mapping: the
// interpreter, the JIT and every handler that reads guest memory rely on
// the first three, and the pool's one-madvise zeroing on the last two.
// mmap, madvise, mlock and munlock are the only calls that could break it,
// so they hold it (§3.6): a private file map is a copy of the file, a
// shared one is refused, madvise passes through only advice about the
// pages' contents, and mlock/munlock are no-ops.
#include <errno.h>
#include <sys/mman.h>
#include <sys/syscall.h>

#include "src/wali/runtime.h"

namespace wali {

namespace {

constexpr uint64_t kPageMask = kMmapPageSize - 1;

// Copies the file's bytes from `offset` into the freshly zeroed range;
// bytes past the file's end stay zero. A file that cannot be read at an
// offset (a pipe, socket or directory) answers -ENODEV, as Linux's mmap
// does for it.
int64_t CopyFile(WaliCtx& c, int fd, uint64_t addr, uint64_t len, int64_t offset) {
  for (uint64_t done = 0; done < len;) {
    int64_t n = c.Raw(SYS_pread64, fd, reinterpret_cast<long>(c.mem.At(addr + done)),
                      static_cast<long>(len - done), static_cast<long>(offset + done));
    if (n == -ESPIPE || n == -EISDIR) return -ENODEV;
    if (n <= 0) return n;  // an error, or the file's end
    done += static_cast<uint64_t>(n);
  }
  return 0;
}

int64_t SysMmap(WaliCtx& c, const int64_t* a) {
  uint64_t addr = static_cast<uint64_t>(a[0]);
  uint64_t len = static_cast<uint64_t>(a[1]);
  int flags = static_cast<int>(a[3]);
  int fd = static_cast<int>(a[4]);
  int64_t offset = a[5];
  if (len == 0 || (addr & kPageMask) != 0 || (offset & kPageMask) != 0) {
    return -EINVAL;
  }
  if ((a[2] & PROT_EXEC) != 0) {
    return -EPERM;  // code injection impossible by construction (§3.6)
  }
  const bool file = (flags & MAP_ANONYMOUS) == 0 && fd >= 0;
  if (file && (flags & MAP_SHARED) != 0) {
    return -ENODEV;  // MAP_SHARED and MAP_SHARED_VALIDATE: a copy cannot share
  }
  uint64_t got = c.proc.mmap.Allocate(len, addr, (flags & MAP_FIXED) != 0);
  if (got == 0) {
    return -ENOMEM;
  }
  if (file) {
    int64_t rc = CopyFile(c, fd, got, (len + kPageMask) & ~kPageMask, offset);
    if (rc != 0) {
      c.proc.mmap.Release(got, len);
      return rc;
    }
  }
  return static_cast<int64_t>(got);
}

int64_t SysMunmap(WaliCtx& c, const int64_t* a) {
  uint64_t addr = static_cast<uint64_t>(a[0]);
  uint64_t len = static_cast<uint64_t>(a[1]);
  // Never unmap module data/stack below the pool, nor past the memory.
  if ((addr & kPageMask) != 0 || len == 0 || addr < c.proc.mmap.pool_base() ||
      !c.mem.InBounds(addr, len)) {
    return -EINVAL;
  }
  c.proc.mmap.Release(addr, len);
  return 0;
}

int64_t SysMremap(WaliCtx& c, const int64_t* a) {
  uint64_t old_addr = static_cast<uint64_t>(a[0]);
  uint64_t old_len = static_cast<uint64_t>(a[1]);
  uint64_t new_len = static_cast<uint64_t>(a[2]);
  int flags = static_cast<int>(a[3]);
  if ((old_addr & kPageMask) != 0 || new_len == 0) {
    return -EINVAL;
  }
  uint64_t got =
      c.proc.mmap.Reallocate(old_addr, old_len, new_len, (flags & MREMAP_MAYMOVE) != 0);
  if (got == 0) {
    return -ENOMEM;
  }
  return static_cast<int64_t>(got);
}

int64_t SysMprotect(WaliCtx& c, const int64_t* a) {
  uint64_t addr = static_cast<uint64_t>(a[0]);
  uint64_t len = static_cast<uint64_t>(a[1]);
  if ((addr & kPageMask) != 0) {
    return -EINVAL;
  }
  if ((a[2] & PROT_EXEC) != 0) {
    return -EPERM;
  }
  if (!c.mem.InBounds(addr, len)) {
    return -ENOMEM;
  }
  // Linear memory stays readable+writable so no guest access can fault the
  // engine: a restriction is recorded as a no-op (documented deviation; a
  // fault-to-trap engine would pass it through).
  return 0;
}

// Advice about the pages' contents passes through: it leaves them
// anonymous, private and read-write. Advice about the mapping answers 0
// without reaching the kernel: its flag would outlive the tenant, since the
// pool's reset keeps the mapping, so the next tenant in the slot would
// inherit a MADV_HUGEPAGE. Any other advice answers -EINVAL, Linux's answer
// for advice it does not know: guard pages (a load from one kills the
// host), page poisoning and offlining, MADV_REMOVE, and the fork, KSM and
// dump advice.
constexpr uint64_t kContentAdvice =
    1ULL << MADV_WILLNEED | 1ULL << MADV_DONTNEED | 1ULL << MADV_FREE |
    1ULL << MADV_COLD | 1ULL << MADV_PAGEOUT | 1ULL << MADV_POPULATE_READ |
    1ULL << MADV_POPULATE_WRITE;
constexpr uint64_t kIgnoredAdvice =
    1ULL << MADV_NORMAL | 1ULL << MADV_RANDOM | 1ULL << MADV_SEQUENTIAL |
    1ULL << MADV_HUGEPAGE | 1ULL << MADV_NOHUGEPAGE;

int64_t SysMadvise(WaliCtx& c, const int64_t* a) {
  uint64_t addr = static_cast<uint64_t>(a[0]);
  uint64_t len = static_cast<uint64_t>(a[1]);
  int advice = static_cast<int>(a[2]);
  uint64_t bit = static_cast<unsigned>(advice) < 64 ? 1ULL << advice : 0;
  if ((bit & (kContentAdvice | kIgnoredAdvice)) == 0) {
    return -EINVAL;
  }
  if (!c.mem.InBounds(addr, len)) {
    return -ENOMEM;
  }
  if ((bit & kIgnoredAdvice) != 0) {
    return 0;
  }
  return c.Raw(SYS_madvise, reinterpret_cast<long>(c.mem.At(addr)), len, advice);
}

int64_t SysBrk(WaliCtx& c, const int64_t* a) {
  uint64_t r = c.proc.mmap.Brk(static_cast<uint64_t>(a[0]));
  return r != 0 ? static_cast<int64_t>(r) : -ENOMEM;
}

int64_t SysMsync(WaliCtx& c, const int64_t* a) {
  uint64_t addr = static_cast<uint64_t>(a[0]);
  uint64_t len = static_cast<uint64_t>(a[1]);
  if (!c.mem.InBounds(addr, len)) {
    return -ENOMEM;
  }
  return c.Raw(SYS_msync, reinterpret_cast<long>(c.mem.At(addr)), len, a[2]);
}

// mlock and munlock are no-ops, like an mprotect restriction: the pool's
// zeroing madvise fails on locked pages, and a guest's lock would spend the
// host's RLIMIT_MEMLOCK, which every tenant shares.
int64_t SysMlockMunlock(WaliCtx& c, const int64_t* a) {
  return c.mem.InBounds(static_cast<uint64_t>(a[0]), static_cast<uint64_t>(a[1]))
             ? 0
             : -ENOMEM;
}

int64_t SysMincore(WaliCtx& c, const int64_t* a) {
  uint64_t addr = static_cast<uint64_t>(a[0]);
  uint64_t len = static_cast<uint64_t>(a[1]);
  uint64_t pages = (len + kPageMask) / kMmapPageSize;
  if (!c.mem.InBounds(addr, len)) {
    return -ENOMEM;
  }
  void* vec = c.Ptr(a[2], pages);
  if (vec == nullptr) {
    return -EFAULT;
  }
  return c.Raw(SYS_mincore, reinterpret_cast<long>(c.mem.At(addr)), len,
               reinterpret_cast<long>(vec));
}

// process_vm_{read,write}v: §3.6 — mappings are sandboxed, so cross-process
// address-space access is refused outright.
int64_t SysProcessVmReadv(WaliCtx& c, const int64_t* a) { return -EPERM; }
int64_t SysProcessVmWritev(WaliCtx& c, const int64_t* a) { return -EPERM; }

}  // namespace

void RegisterMemSyscalls(std::vector<SyscallDef>& defs) {
  defs.insert(defs.end(), {
      {"mmap", 6, SysMmap, true, 39},
      {"munmap", 2, SysMunmap, true, 10},
      {"mremap", 5, SysMremap, true, 15},
      {"mprotect", 3, SysMprotect, false, 13},
      {"madvise", 3, SysMadvise, false, 23},
      {"brk", 1, SysBrk, true, 8},
      {"msync", 3, SysMsync, false, 4},
      {"mlock", 2, SysMlockMunlock, false, 5},
      {"munlock", 2, SysMlockMunlock, false, 5},
      {"mincore", 3, SysMincore, false, 8},
      {"process_vm_readv", 6, SysProcessVmReadv, false, 1},
      {"process_vm_writev", 6, SysProcessVmWritev, false, 1},
  });
}

}  // namespace wali
