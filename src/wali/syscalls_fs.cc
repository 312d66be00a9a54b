// Filesystem + fd syscalls. Nearly all are zero-copy passthrough after
// address-space translation (paper §3.2); the stat family additionally does
// the ISA layout conversion of §3.5 via src/abi.
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "src/abi/layout.h"
#include "src/wali/runtime.h"

namespace wali {

namespace {

constexpr int kMaxIov = 64;

// Builds a host iovec array from a guest wasm32 iovec array.
int TranslateIovecs(wasm::Memory& mem, uint64_t iov_addr, uint64_t iovcnt,
                    struct iovec* out) {
  if (iovcnt > kMaxIov) {
    return -EINVAL;
  }
  if (!mem.InBounds(iov_addr, iovcnt * sizeof(wabi::WaliIovec))) {
    return -EFAULT;
  }
  const auto* guest = reinterpret_cast<const wabi::WaliIovec*>(mem.At(iov_addr));
  for (uint64_t i = 0; i < iovcnt; ++i) {
    void* base = mem.InBounds(guest[i].base, guest[i].len)
                     ? mem.At(guest[i].base)
                     : nullptr;
    if (base == nullptr && guest[i].len != 0) {
      return -EFAULT;
    }
    out[i].iov_base = base;
    out[i].iov_len = guest[i].len;
  }
  return 0;
}

// Shared body of the stat family: runs the raw syscall into a native buffer
// and marshals to the portable WaliKStat in guest memory.
int64_t StatCommon(WaliCtx& c, int64_t raw_result, const struct stat& native,
                   uint64_t out_addr) {
  if (raw_result < 0) {
    return raw_result;
  }
  auto* out = c.TypedPtr<wabi::WaliKStat>(out_addr);
  if (out == nullptr) {
    return -EFAULT;
  }
  wabi::NativeStatToWali(&native, wabi::HostIsa(), out);
  return 0;
}

// read/write/readv/writev on a blocking pipe, socket or tty park only when
// the kernel would block (WaliCtx::WouldBlock: the fd can block in that
// direction and a poll probe finds it not ready); a ready fd takes the
// synchronous path at once. Arguments are validated first, so faults answer
// inline exactly as on the blocking path. At resume the same call is
// re-dispatched with offload off: the fd is ready, so the synchronous path
// below returns promptly with the kernel's answer.
int64_t SysRead(WaliCtx& c, const int64_t* a) {
  void* buf = c.Ptr(a[1], a[2]);
  if (buf == nullptr && a[2] != 0) return -EFAULT;
  int fd = static_cast<int>(a[0]);
  if (c.CanOffload() && c.WouldBlock(fd, POLLIN)) {
    c.Park(IoOp::Fd(fd, POLLIN));
    return 0;
  }
  return c.Raw(SYS_read, a[0], reinterpret_cast<long>(buf), a[2]);
}

int64_t SysWrite(WaliCtx& c, const int64_t* a) {
  void* buf = c.Ptr(a[1], a[2]);
  if (buf == nullptr && a[2] != 0) return -EFAULT;
  int fd = static_cast<int>(a[0]);
  if (c.CanOffload() && c.WouldBlock(fd, POLLOUT)) {
    c.Park(IoOp::Fd(fd, POLLOUT));
    return 0;
  }
  return c.SigpipeOnEpipe(c.Raw(SYS_write, a[0], reinterpret_cast<long>(buf), a[2]));
}

int64_t SysReadv(WaliCtx& c, const int64_t* a) {
  struct iovec iov[kMaxIov];
  int rc = TranslateIovecs(c.mem, a[1], a[2], iov);
  if (rc != 0) return rc;
  int fd = static_cast<int>(a[0]);
  if (c.CanOffload() && c.WouldBlock(fd, POLLIN)) {
    c.Park(IoOp::Fd(fd, POLLIN));
    return 0;
  }
  return c.Raw(SYS_readv, a[0], reinterpret_cast<long>(iov), a[2]);
}

int64_t SysWritev(WaliCtx& c, const int64_t* a) {
  struct iovec iov[kMaxIov];
  int rc = TranslateIovecs(c.mem, a[1], a[2], iov);
  if (rc != 0) return rc;
  int fd = static_cast<int>(a[0]);
  if (c.CanOffload() && c.WouldBlock(fd, POLLOUT)) {
    c.Park(IoOp::Fd(fd, POLLOUT));
    return 0;
  }
  return c.SigpipeOnEpipe(c.Raw(SYS_writev, a[0], reinterpret_cast<long>(iov), a[2]));
}

int64_t SysPread64(WaliCtx& c, const int64_t* a) {
  void* buf = c.Ptr(a[1], a[2]);
  if (buf == nullptr && a[2] != 0) return -EFAULT;
  return c.Raw(SYS_pread64, a[0], reinterpret_cast<long>(buf), a[2], a[3]);
}

int64_t SysPwrite64(WaliCtx& c, const int64_t* a) {
  void* buf = c.Ptr(a[1], a[2]);
  if (buf == nullptr && a[2] != 0) return -EFAULT;
  return c.SigpipeOnEpipe(
      c.Raw(SYS_pwrite64, a[0], reinterpret_cast<long>(buf), a[2], a[3]));
}

int64_t SysOpen(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  std::string resolved;
  if (!PathAllowed(path, &resolved)) return -EACCES;
  // A relative path is opened via its check-time absolute form so a sibling
  // thread's chdir cannot re-point it between check and use.
  if (!resolved.empty()) path = std::move(resolved);
  uint32_t flags = wabi::OpenFlagsToNative(static_cast<uint32_t>(a[1]), wabi::HostIsa());
  return c.Raw(SYS_openat, AT_FDCWD, reinterpret_cast<long>(path.c_str()), flags, a[2]);
}

int64_t SysOpenat(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[1], &path)) return -EFAULT;
  // dirfd-aware: anchors relative paths at the fd's directory, so an opened
  // /proc/self handle cannot be used to reach "mem" in a second step.
  std::string resolved;
  if (!PathAllowedAt(a[0], path, &resolved)) return -EACCES;
  uint32_t flags = wabi::OpenFlagsToNative(static_cast<uint32_t>(a[2]), wabi::HostIsa());
  if (!resolved.empty()) {
    // Open the snapshot that was checked (also immune to a concurrent dup2
    // swapping the dirfd).
    return c.Raw(SYS_openat, AT_FDCWD, reinterpret_cast<long>(resolved.c_str()),
                 flags, a[3]);
  }
  return c.Raw(SYS_openat, a[0], reinterpret_cast<long>(path.c_str()), flags, a[3]);
}

int64_t SysClose(WaliCtx& c, const int64_t* a) { return c.Raw(SYS_close, a[0]); }

int64_t SysLseek(WaliCtx& c, const int64_t* a) {
  return c.Raw(SYS_lseek, a[0], a[1], a[2]);
}

int64_t SysAccess(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  if (!PathAllowed(path)) return -EACCES;
  // Legacy syscall emulated with the modern *at variant (paper §2).
  return c.Raw(SYS_faccessat, AT_FDCWD, reinterpret_cast<long>(path.c_str()), a[1]);
}

int64_t SysFaccessat(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[1], &path)) return -EFAULT;
  if (!PathAllowedAt(a[0], path)) return -EACCES;
  return c.Raw(SYS_faccessat, a[0], reinterpret_cast<long>(path.c_str()), a[2]);
}

int64_t SysStat(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  struct stat st;
  int64_t r = c.Raw(SYS_newfstatat, AT_FDCWD, reinterpret_cast<long>(path.c_str()),
                    reinterpret_cast<long>(&st), 0);
  return StatCommon(c, r, st, a[1]);
}

int64_t SysLstat(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  struct stat st;
  int64_t r = c.Raw(SYS_newfstatat, AT_FDCWD, reinterpret_cast<long>(path.c_str()),
                    reinterpret_cast<long>(&st), AT_SYMLINK_NOFOLLOW);
  return StatCommon(c, r, st, a[1]);
}

int64_t SysFstat(WaliCtx& c, const int64_t* a) {
  struct stat st;
  int64_t r = c.Raw(SYS_fstat, a[0], reinterpret_cast<long>(&st));
  return StatCommon(c, r, st, a[1]);
}

int64_t SysNewfstatat(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[1], &path)) return -EFAULT;
  struct stat st;
  int64_t r = c.Raw(SYS_newfstatat, a[0], reinterpret_cast<long>(path.c_str()),
                    reinterpret_cast<long>(&st), a[3]);
  return StatCommon(c, r, st, a[2]);
}

int64_t SysGetdents64(WaliCtx& c, const int64_t* a) {
  void* buf = c.Ptr(a[1], a[2]);
  if (buf == nullptr) return -EFAULT;
  // linux_dirent64 is ISA-independent: zero-copy into the sandbox.
  return c.Raw(SYS_getdents64, a[0], reinterpret_cast<long>(buf), a[2]);
}

int64_t SysFcntl(WaliCtx& c, const int64_t* a) {
  switch (a[1]) {
    case F_DUPFD:
    case F_DUPFD_CLOEXEC:
    case F_GETFD:
    case F_SETFD:
    case F_GETFL:
    case F_SETFL:
      return c.Raw(SYS_fcntl, a[0], a[1], a[2]);
    default:
      return -EINVAL;  // lock/owner commands carry pointers we do not model
  }
}

int64_t SysIoctl(WaliCtx& c, const int64_t* a) {
  unsigned long cmd = static_cast<unsigned long>(a[1]);
  // Known small-struct ioctls get pointer translation; _IOC-encoded commands
  // use the size encoded in the command word; anything else passes the raw
  // integer argument.
  size_t size = 0;
  switch (cmd) {
    case TCGETS: case TCSETS: case TCSETSW: case TCSETSF: size = 60; break;
    case TIOCGWINSZ: size = 8; break;
    case FIONREAD: case FIONBIO: size = 4; break;
    default:
      size = (cmd >> 16) & 0x3FFF;  // _IOC_SIZE
      if (((cmd >> 30) & 0x3) == 0) size = 0;  // _IOC_NONE
      break;
  }
  if (size > 0) {
    void* p = c.Ptr(a[2], size);
    if (p == nullptr) return -EFAULT;
    return c.Raw(SYS_ioctl, a[0], a[1], reinterpret_cast<long>(p));
  }
  return c.Raw(SYS_ioctl, a[0], a[1], a[2]);
}

int64_t SysDup(WaliCtx& c, const int64_t* a) { return c.Raw(SYS_dup, a[0]); }

int64_t SysDup2(WaliCtx& c, const int64_t* a) {
  if (a[0] == a[1]) {
    // dup3 rejects equal fds; dup2 returns the fd if it is valid.
    int64_t r = c.Raw(SYS_fcntl, a[0], F_GETFD);
    return r < 0 ? r : a[1];
  }
  return c.Raw(SYS_dup3, a[0], a[1], 0);
}

int64_t SysDup3(WaliCtx& c, const int64_t* a) {
  return c.Raw(SYS_dup3, a[0], a[1], a[2]);
}

// pipe/pipe2 go through a host-side buffer: the kernel's fd pair must be
// tracked from memory the guest cannot race on (a sibling thread scribbling
// over the guest words before tracking would poison the fd set with
// attacker-chosen numbers).
int64_t PipeCommon(WaliCtx& c, uint64_t fds_addr, uint64_t flags) {
  void* guest_fds = c.Ptr(fds_addr, 8);
  if (guest_fds == nullptr) return -EFAULT;
  int host_fds[2] = {-1, -1};
  int64_t r = c.Raw(SYS_pipe2, reinterpret_cast<long>(host_fds), flags);
  if (r >= 0) {
    c.proc.TrackFd(host_fds[0]);
    c.proc.TrackFd(host_fds[1]);
    std::memcpy(guest_fds, host_fds, sizeof(host_fds));
  }
  return r;
}

int64_t SysPipe(WaliCtx& c, const int64_t* a) { return PipeCommon(c, a[0], 0); }

int64_t SysPipe2(WaliCtx& c, const int64_t* a) {
  return PipeCommon(c, a[0], a[1]);
}

int64_t SysMkdir(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  return c.Raw(SYS_mkdirat, AT_FDCWD, reinterpret_cast<long>(path.c_str()), a[1]);
}

int64_t SysMkdirat(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[1], &path)) return -EFAULT;
  return c.Raw(SYS_mkdirat, a[0], reinterpret_cast<long>(path.c_str()), a[2]);
}

int64_t SysRmdir(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  return c.Raw(SYS_unlinkat, AT_FDCWD, reinterpret_cast<long>(path.c_str()),
               AT_REMOVEDIR);
}

int64_t SysUnlink(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  return c.Raw(SYS_unlinkat, AT_FDCWD, reinterpret_cast<long>(path.c_str()), 0);
}

int64_t SysUnlinkat(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[1], &path)) return -EFAULT;
  return c.Raw(SYS_unlinkat, a[0], reinterpret_cast<long>(path.c_str()), a[2]);
}

int64_t SysRename(WaliCtx& c, const int64_t* a) {
  std::string from, to;
  if (!c.GetStr(a[0], &from) || !c.GetStr(a[1], &to)) return -EFAULT;
  return c.Raw(SYS_renameat2, AT_FDCWD, reinterpret_cast<long>(from.c_str()),
               AT_FDCWD, reinterpret_cast<long>(to.c_str()), 0);
}

int64_t SysRenameat(WaliCtx& c, const int64_t* a) {
  std::string from, to;
  if (!c.GetStr(a[1], &from) || !c.GetStr(a[3], &to)) return -EFAULT;
  return c.Raw(SYS_renameat2, a[0], reinterpret_cast<long>(from.c_str()), a[2],
               reinterpret_cast<long>(to.c_str()), 0);
}

int64_t SysLink(WaliCtx& c, const int64_t* a) {
  std::string from, to;
  if (!c.GetStr(a[0], &from) || !c.GetStr(a[1], &to)) return -EFAULT;
  return c.Raw(SYS_linkat, AT_FDCWD, reinterpret_cast<long>(from.c_str()), AT_FDCWD,
               reinterpret_cast<long>(to.c_str()), 0);
}

int64_t SysSymlink(WaliCtx& c, const int64_t* a) {
  std::string target, linkpath;
  if (!c.GetStr(a[0], &target) || !c.GetStr(a[1], &linkpath)) return -EFAULT;
  // A guest must not mint a symlink aimed at a blocked /proc window and
  // then open it through the innocent-looking link path.
  if (!PathAllowed(target)) return -EACCES;
  return c.Raw(SYS_symlinkat, reinterpret_cast<long>(target.c_str()), AT_FDCWD,
               reinterpret_cast<long>(linkpath.c_str()));
}

int64_t SysReadlink(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  if (!PathAllowed(path)) return -EACCES;
  void* buf = c.Ptr(a[1], a[2]);
  if (buf == nullptr) return -EFAULT;
  return c.Raw(SYS_readlinkat, AT_FDCWD, reinterpret_cast<long>(path.c_str()),
               reinterpret_cast<long>(buf), a[2]);
}

int64_t SysReadlinkat(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[1], &path)) return -EFAULT;
  if (!PathAllowedAt(a[0], path)) return -EACCES;
  void* buf = c.Ptr(a[2], a[3]);
  if (buf == nullptr) return -EFAULT;
  return c.Raw(SYS_readlinkat, a[0], reinterpret_cast<long>(path.c_str()),
               reinterpret_cast<long>(buf), a[3]);
}

int64_t SysChmod(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  return c.Raw(SYS_fchmodat, AT_FDCWD, reinterpret_cast<long>(path.c_str()), a[1]);
}

int64_t SysFchmod(WaliCtx& c, const int64_t* a) {
  return c.Raw(SYS_fchmod, a[0], a[1]);
}

int64_t SysChown(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  return c.Raw(SYS_fchownat, AT_FDCWD, reinterpret_cast<long>(path.c_str()), a[1],
               a[2], 0);
}

int64_t SysFchown(WaliCtx& c, const int64_t* a) {
  return c.Raw(SYS_fchown, a[0], a[1], a[2]);
}

int64_t SysTruncate(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  return c.Raw(SYS_truncate, reinterpret_cast<long>(path.c_str()), a[1]);
}

int64_t SysFtruncate(WaliCtx& c, const int64_t* a) {
  return c.Raw(SYS_ftruncate, a[0], a[1]);
}

int64_t SysFsync(WaliCtx& c, const int64_t* a) { return c.Raw(SYS_fsync, a[0]); }
int64_t SysFdatasync(WaliCtx& c, const int64_t* a) { return c.Raw(SYS_fdatasync, a[0]); }
int64_t SysSync(WaliCtx& c, const int64_t* a) { return c.Raw(SYS_sync); }

int64_t SysStatfs(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  void* buf = c.Ptr(a[1], 120);  // struct statfs (64-bit) fits in 120 bytes
  if (buf == nullptr) return -EFAULT;
  return c.Raw(SYS_statfs, reinterpret_cast<long>(path.c_str()),
               reinterpret_cast<long>(buf));
}

int64_t SysFstatfs(WaliCtx& c, const int64_t* a) {
  void* buf = c.Ptr(a[1], 120);
  if (buf == nullptr) return -EFAULT;
  return c.Raw(SYS_fstatfs, a[0], reinterpret_cast<long>(buf));
}

int64_t SysGetcwd(WaliCtx& c, const int64_t* a) {
  void* buf = c.Ptr(a[0], a[1]);
  if (buf == nullptr) return -EFAULT;
  return c.Raw(SYS_getcwd, reinterpret_cast<long>(buf), a[1]);
}

int64_t SysChdir(WaliCtx& c, const int64_t* a) {
  std::string path;
  if (!c.GetStr(a[0], &path)) return -EFAULT;
  return c.Raw(SYS_chdir, reinterpret_cast<long>(path.c_str()));
}

int64_t SysFchdir(WaliCtx& c, const int64_t* a) { return c.Raw(SYS_fchdir, a[0]); }

int64_t SysUmask(WaliCtx& c, const int64_t* a) { return c.Raw(SYS_umask, a[0]); }

int64_t SysUtimensat(WaliCtx& c, const int64_t* a) {
  std::string path;
  const char* path_ptr = nullptr;
  if (a[1] != 0) {
    if (!c.GetStr(a[1], &path)) return -EFAULT;
    path_ptr = path.c_str();
  }
  void* times = nullptr;
  if (a[2] != 0) {
    times = c.Ptr(a[2], 2 * sizeof(wabi::WaliTimespec));  // zero-copy: 64-bit fields
    if (times == nullptr) return -EFAULT;
  }
  return c.Raw(SYS_utimensat, a[0], reinterpret_cast<long>(path_ptr),
               reinterpret_cast<long>(times), a[3]);
}

int64_t SysFlock(WaliCtx& c, const int64_t* a) { return c.Raw(SYS_flock, a[0], a[1]); }

int64_t SysSendfile(WaliCtx& c, const int64_t* a) {
  long off_ptr = 0;
  if (a[2] != 0) {
    void* p = c.Ptr(a[2], 8);
    if (p == nullptr) return -EFAULT;
    off_ptr = reinterpret_cast<long>(p);
  }
  return c.SigpipeOnEpipe(c.Raw(SYS_sendfile, a[0], a[1], off_ptr, a[3]));
}

int64_t SysCopyFileRange(WaliCtx& c, const int64_t* a) {
  long off_in = 0, off_out = 0;
  if (a[1] != 0) {
    void* p = c.Ptr(a[1], 8);
    if (p == nullptr) return -EFAULT;
    off_in = reinterpret_cast<long>(p);
  }
  if (a[3] != 0) {
    void* p = c.Ptr(a[3], 8);
    if (p == nullptr) return -EFAULT;
    off_out = reinterpret_cast<long>(p);
  }
  return c.Raw(SYS_copy_file_range, a[0], off_in, a[2], off_out, a[4], a[5]);
}

}  // namespace

void RegisterFsSyscalls(std::vector<SyscallDef>& defs) {
  defs.insert(defs.end(), {
      {"read", 3, SysRead, false, 4, /*can_park=*/true},
      {"write", 3, SysWrite, false, 8, /*can_park=*/true},
      {"readv", 3, SysReadv, false, 10, /*can_park=*/true},
      {"writev", 3, SysWritev, false, 9, /*can_park=*/true},
      {"pread64", 4, SysPread64, false, 4},
      {"pwrite64", 4, SysPwrite64, false, 4},
      {"open", 3, SysOpen, false, 4},
      {"openat", 4, SysOpenat, false, 4},
      {"close", 1, SysClose, false, 3},
      {"lseek", 3, SysLseek, false, 3},
      {"access", 2, SysAccess, false, 8},
      {"faccessat", 3, SysFaccessat, false, 8},
      {"stat", 2, SysStat, false, 8},
      {"lstat", 2, SysLstat, false, 6},
      {"fstat", 2, SysFstat, false, 4},
      {"newfstatat", 4, SysNewfstatat, false, 8},
      {"getdents64", 3, SysGetdents64, false, 4},
      {"fcntl", 3, SysFcntl, false, 10},
      {"ioctl", 3, SysIoctl, false, 4},
      {"dup", 1, SysDup, false, 3},
      {"dup2", 2, SysDup2, false, 6},
      {"dup3", 3, SysDup3, false, 3},
      {"pipe", 1, SysPipe, false, 5},
      {"pipe2", 2, SysPipe2, false, 5},
      {"mkdir", 2, SysMkdir, false, 4},
      {"mkdirat", 3, SysMkdirat, false, 4},
      {"rmdir", 1, SysRmdir, false, 4},
      {"unlink", 1, SysUnlink, false, 4},
      {"unlinkat", 3, SysUnlinkat, false, 4},
      {"rename", 2, SysRename, false, 5},
      {"renameat", 4, SysRenameat, false, 5},
      {"link", 2, SysLink, false, 5},
      {"symlink", 2, SysSymlink, false, 5},
      {"readlink", 3, SysReadlink, false, 7},
      {"readlinkat", 4, SysReadlinkat, false, 7},
      {"chmod", 2, SysChmod, false, 4},
      {"fchmod", 2, SysFchmod, false, 3},
      {"chown", 3, SysChown, false, 4},
      {"fchown", 3, SysFchown, false, 3},
      {"truncate", 2, SysTruncate, false, 4},
      {"ftruncate", 2, SysFtruncate, false, 3},
      {"fsync", 1, SysFsync, false, 3},
      {"fdatasync", 1, SysFdatasync, false, 3},
      {"sync", 0, SysSync, false, 3},
      {"statfs", 2, SysStatfs, false, 6},
      {"fstatfs", 2, SysFstatfs, false, 4},
      {"getcwd", 2, SysGetcwd, false, 4},
      {"chdir", 1, SysChdir, false, 4},
      {"fchdir", 1, SysFchdir, false, 3},
      {"umask", 1, SysUmask, false, 3},
      {"utimensat", 4, SysUtimensat, false, 12},
      {"flock", 2, SysFlock, false, 3},
      {"sendfile", 4, SysSendfile, false, 7},
      {"copy_file_range", 6, SysCopyFileRange, false, 12},
  });
}

}  // namespace wali
