// Memory-management syscalls (paper §3.2): mmap/munmap/mremap fully inside
// the Wasm sandbox via the MmapManager pool, brk emulated over the pool.
//
// Every committed byte of linear memory is anonymous, private and
// read-write: the interpreter, the JIT and every handler that reads guest
// memory rely on it. mmap and madvise are the only calls that could break
// it, so they hold it (§3.6): a private file map is a copy of the file, a
// shared one is refused, and madvise passes through only advice that keeps
// pages plain.
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
  bool fixed = (flags & MAP_FIXED) != 0;
  bool virgin = false;
  uint64_t got = c.proc.mmap.Allocate(len, addr, fixed, &virgin);
  if (got == 0) {
    return -ENOMEM;
  }
  const uint64_t span = (len + kPageMask) & ~kPageMask;
  // Reused pool ranges may hold stale bytes; freshly committed ranges are
  // already zero and skip the re-mapping.
  int64_t rc = virgin ? 0 : -c.mem.UnmapFixed(got, span);
  if (rc == 0 && file) {
    rc = CopyFile(c, fd, got, span, offset);
  }
  if (rc != 0) {
    c.proc.mmap.Release(got, len);
    return rc;
  }
  return static_cast<int64_t>(got);
}

int64_t SysMunmap(WaliCtx& c, const int64_t* a) {
  uint64_t addr = static_cast<uint64_t>(a[0]);
  uint64_t len = static_cast<uint64_t>(a[1]);
  if ((addr & kPageMask) != 0 || len == 0) {
    return -EINVAL;
  }
  if (addr < c.proc.mmap.pool_base()) {
    return -EINVAL;  // never unmap module data/stack below the pool
  }
  c.proc.mmap.Release(addr, len);
  // Replace with zero pages so stale sandboxed reads see zeros, not the old
  // mapping (passthrough munmap would leave a fault-on-touch hole).
  int rc = c.mem.UnmapFixed(addr, (len + kPageMask) & ~kPageMask);
  return rc == 0 ? 0 : -rc;
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

// Advice that leaves pages anonymous, private and read-write. Any other
// answers -EINVAL, Linux's answer for advice it does not know: guard pages
// (a load from one kills the host), page poisoning and offlining,
// MADV_REMOVE, and the fork, KSM and dump advice.
constexpr uint64_t kPlainAdvice =
    1ULL << MADV_NORMAL | 1ULL << MADV_RANDOM | 1ULL << MADV_SEQUENTIAL |
    1ULL << MADV_WILLNEED | 1ULL << MADV_DONTNEED | 1ULL << MADV_FREE |
    1ULL << MADV_HUGEPAGE | 1ULL << MADV_NOHUGEPAGE | 1ULL << MADV_COLD |
    1ULL << MADV_PAGEOUT | 1ULL << MADV_POPULATE_READ | 1ULL << MADV_POPULATE_WRITE;

int64_t SysMadvise(WaliCtx& c, const int64_t* a) {
  uint64_t addr = static_cast<uint64_t>(a[0]);
  uint64_t len = static_cast<uint64_t>(a[1]);
  int advice = static_cast<int>(a[2]);
  if (static_cast<unsigned>(advice) >= 64 || ((kPlainAdvice >> advice) & 1) == 0) {
    return -EINVAL;
  }
  if (!c.mem.InBounds(addr, len)) {
    return -ENOMEM;
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

int64_t SysMlock(WaliCtx& c, const int64_t* a) {
  uint64_t addr = static_cast<uint64_t>(a[0]);
  uint64_t len = static_cast<uint64_t>(a[1]);
  if (!c.mem.InBounds(addr, len)) {
    return -ENOMEM;
  }
  return c.Raw(SYS_mlock, reinterpret_cast<long>(c.mem.At(addr)), len);
}

int64_t SysMunlock(WaliCtx& c, const int64_t* a) {
  uint64_t addr = static_cast<uint64_t>(a[0]);
  uint64_t len = static_cast<uint64_t>(a[1]);
  if (!c.mem.InBounds(addr, len)) {
    return -ENOMEM;
  }
  return c.Raw(SYS_munlock, reinterpret_cast<long>(c.mem.At(addr)), len);
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
      {"mmap", 6, SysMmap, true, 41},
      {"munmap", 2, SysMunmap, true, 12},
      {"mremap", 5, SysMremap, true, 14},
      {"mprotect", 3, SysMprotect, false, 13},
      {"madvise", 3, SysMadvise, false, 16},
      {"brk", 1, SysBrk, true, 8},
      {"msync", 3, SysMsync, false, 4},
      {"mlock", 2, SysMlock, false, 3},
      {"munlock", 2, SysMunlock, false, 3},
      {"mincore", 3, SysMincore, false, 8},
      {"process_vm_readv", 6, SysProcessVmReadv, false, 1},
      {"process_vm_writev", 6, SysProcessVmWritev, false, 1},
  });
}

}  // namespace wali
