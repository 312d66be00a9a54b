// Socket syscalls: sockaddr buffers are opaque byte blobs with identical
// layout on all Linux ISAs, so everything here is zero-copy passthrough
// after translation. msghdr is rebuilt from the guest's wasm32 layout.
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/syscall.h>

#include <cstring>

#include "src/wali/runtime.h"

namespace wali {

namespace {

int64_t SysSocket(WaliCtx& c, const int64_t* a) {
  return c.Raw(SYS_socket, a[0], a[1], a[2]);
}

int64_t SysSocketpair(WaliCtx& c, const int64_t* a) {
  void* sv = c.Ptr(a[3], 8);
  if (sv == nullptr) return -EFAULT;
  // Host-side buffer so the mint cannot be raced by a sibling guest thread
  // rewriting the pair in linear memory (see PipeCommon).
  int host_sv[2] = {-1, -1};
  int64_t r = c.Raw(SYS_socketpair, a[0], a[1], a[2],
                    reinterpret_cast<long>(host_sv));
  if (r >= 0) {
    c.proc.fds.Mint(host_sv[0]);
    c.proc.fds.Mint(host_sv[1]);
    std::memcpy(sv, host_sv, sizeof(host_sv));
  }
  return r;
}

int64_t SysBind(WaliCtx& c, const int64_t* a) {
  const void* addr = c.Ptr(a[1], a[2]);
  if (addr == nullptr) return -EFAULT;
  return c.Raw(SYS_bind, a[0], reinterpret_cast<long>(addr), a[2]);
}

int64_t SysListen(WaliCtx& c, const int64_t* a) {
  return c.Raw(SYS_listen, a[0], a[1]);
}

// accept/getsockname-style calls take a value-result u32 length pointer.
int64_t AddrLenCall(WaliCtx& c, long nr, int64_t fd, int64_t addr, int64_t lenp,
                    int64_t flags = 0, bool has_flags = false) {
  long addr_ptr = 0, len_ptr = 0;
  if (addr != 0) {
    auto* len = c.TypedPtr<uint32_t>(lenp);
    if (len == nullptr) return -EFAULT;
    void* p = c.Ptr(addr, *len);
    if (p == nullptr) return -EFAULT;
    addr_ptr = reinterpret_cast<long>(p);
    len_ptr = reinterpret_cast<long>(len);
  }
  if (has_flags) {
    return c.Raw(nr, fd, addr_ptr, len_ptr, flags);
  }
  return c.Raw(nr, fd, addr_ptr, len_ptr);
}

// Offloaded accept: park until the listening socket is readable (a pending
// connection) — only when none is pending yet (WaliCtx::WouldBlock); with one
// queued, accept answers inline. At resume the call is re-dispatched with
// offload off and takes the synchronous path, so the addr/len translation
// happens once, against live memory, and the dispatch wrapper mints the
// accepted fd like every other fd a syscall mints.
int64_t SysAccept(WaliCtx& c, const int64_t* a) {
  int fd = static_cast<int>(a[0]);
  if (c.CanOffload() && c.WouldBlock(fd, POLLIN)) {
    c.Park(IoOp::Fd(fd, POLLIN));
    return 0;
  }
  return AddrLenCall(c, SYS_accept, a[0], a[1], a[2]);
}

int64_t SysAccept4(WaliCtx& c, const int64_t* a) {
  int fd = static_cast<int>(a[0]);
  if (c.CanOffload() && c.WouldBlock(fd, POLLIN)) {
    c.Park(IoOp::Fd(fd, POLLIN));
    return 0;
  }
  return AddrLenCall(c, SYS_accept4, a[0], a[1], a[2], a[3], /*has_flags=*/true);
}

int64_t SysConnect(WaliCtx& c, const int64_t* a) {
  const void* addr = c.Ptr(a[1], a[2]);
  if (addr == nullptr) return -EFAULT;
  int fd = static_cast<int>(a[0]);
  if (c.resumed) {
    // Re-dispatched after an -EINPROGRESS park: the socket turned writable,
    // so the handshake has finished and SO_ERROR holds its outcome.
    int err = 0;
    uint32_t len = sizeof(err);
    int64_t gr = c.Raw(SYS_getsockopt, fd, SOL_SOCKET, SO_ERROR,
                       reinterpret_cast<long>(&err),
                       reinterpret_cast<long>(&len));
    if (gr < 0) return gr;
    return err == 0 ? 0 : -err;
  }
  // Offloaded connect: start the handshake non-blocking and park until the
  // socket is writable (connect(2)'s completion signal). No readiness probe
  // first: the attempt itself is the probe — a handshake that finishes (or
  // fails) inline answers without a park. The O_NONBLOCK flip is reverted
  // immediately — the guest never observes the flag, and the blocking class
  // keys on the guest-visible state. Sockets the guest itself made
  // non-blocking answer inline by definition (their class is 0), so
  // -EINPROGRESS never leaks to a guest that didn't ask for it.
  if (c.CanOffload() && (c.proc.fds.BlockingClass(fd) & POLLOUT) != 0) {
    const int64_t flags = c.Raw(SYS_fcntl, fd, F_GETFL, 0);
    if (flags >= 0 &&
        c.Raw(SYS_fcntl, fd, F_SETFL, flags | O_NONBLOCK) == 0) {
      int64_t r = c.Raw(SYS_connect, fd, reinterpret_cast<long>(addr), a[2]);
      (void)c.Raw(SYS_fcntl, fd, F_SETFL, flags);
      if (r == -EINPROGRESS) {
        c.Park(IoOp::Fd(fd, POLLOUT));
        return 0;
      }
      if (r != -EAGAIN) {
        return r;  // connected (or failed) inline
      }
      // -EAGAIN (e.g. a full unix-socket backlog): only the blocking path
      // can wait for it, so fall through.
    }
  }
  return c.Raw(SYS_connect, a[0], reinterpret_cast<long>(addr), a[2]);
}

int64_t SysGetsockname(WaliCtx& c, const int64_t* a) {
  return AddrLenCall(c, SYS_getsockname, a[0], a[1], a[2]);
}

int64_t SysGetpeername(WaliCtx& c, const int64_t* a) {
  return AddrLenCall(c, SYS_getpeername, a[0], a[1], a[2]);
}

int64_t SysSendto(WaliCtx& c, const int64_t* a) {
  const void* buf = c.Ptr(a[1], a[2]);
  if (buf == nullptr && a[2] != 0) return -EFAULT;
  long addr_ptr = 0;
  if (a[4] != 0) {
    const void* addr = c.Ptr(a[4], a[5]);
    if (addr == nullptr) return -EFAULT;
    addr_ptr = reinterpret_cast<long>(addr);
  }
  int64_t r = c.Raw(SYS_sendto, a[0], reinterpret_cast<long>(buf), a[2], a[3],
                    addr_ptr, a[5]);
  return (a[3] & MSG_NOSIGNAL) != 0 ? r : c.SigpipeOnEpipe(r);
}

int64_t SysRecvfrom(WaliCtx& c, const int64_t* a) {
  void* buf = c.Ptr(a[1], a[2]);
  if (buf == nullptr && a[2] != 0) return -EFAULT;
  long addr_ptr = 0, len_ptr = 0;
  if (a[4] != 0) {
    auto* len = c.TypedPtr<uint32_t>(a[5]);
    if (len == nullptr) return -EFAULT;
    void* addr = c.Ptr(a[4], *len);
    if (addr == nullptr) return -EFAULT;
    addr_ptr = reinterpret_cast<long>(addr);
    len_ptr = reinterpret_cast<long>(len);
  }
  return c.Raw(SYS_recvfrom, a[0], reinterpret_cast<long>(buf), a[2], a[3], addr_ptr,
               len_ptr);
}

int64_t SysSetsockopt(WaliCtx& c, const int64_t* a) {
  const void* optval = c.Ptr(a[3], a[4]);
  if (optval == nullptr && a[4] != 0) return -EFAULT;
  return c.Raw(SYS_setsockopt, a[0], a[1], a[2], reinterpret_cast<long>(optval), a[4]);
}

int64_t SysGetsockopt(WaliCtx& c, const int64_t* a) {
  auto* optlen = c.TypedPtr<uint32_t>(a[4]);
  if (optlen == nullptr) return -EFAULT;
  void* optval = c.Ptr(a[3], *optlen);
  if (optval == nullptr && *optlen != 0) return -EFAULT;
  return c.Raw(SYS_getsockopt, a[0], a[1], a[2], reinterpret_cast<long>(optval),
               reinterpret_cast<long>(optlen));
}

int64_t SysShutdown(WaliCtx& c, const int64_t* a) {
  return c.Raw(SYS_shutdown, a[0], a[1]);
}

// Guest (wasm32) msghdr layout emitted by a 32-bit libc.
struct GuestMsghdr {
  uint32_t name;
  uint32_t namelen;
  uint32_t iov;
  uint32_t iovlen;
  uint32_t control;
  uint32_t controllen;
  int32_t flags;
};

int64_t MsgCall(WaliCtx& c, long nr, const int64_t* a, bool writable) {
  auto* gm = c.TypedPtr<GuestMsghdr>(a[1]);
  if (gm == nullptr) return -EFAULT;
  constexpr int kMaxIov = 64;
  if (gm->iovlen > kMaxIov) return -EINVAL;
  struct iovec iov[kMaxIov];
  struct msghdr mh = {};
  const auto* guest_iov = static_cast<const uint32_t*>(
      c.Ptr(gm->iov, static_cast<uint64_t>(gm->iovlen) * 8));
  if (guest_iov == nullptr && gm->iovlen != 0) return -EFAULT;
  for (uint32_t i = 0; i < gm->iovlen; ++i) {
    uint32_t base = guest_iov[2 * i];
    uint32_t len = guest_iov[2 * i + 1];
    void* p = c.Ptr(base, len);
    if (p == nullptr && len != 0) return -EFAULT;
    iov[i].iov_base = p;
    iov[i].iov_len = len;
  }
  mh.msg_iov = iov;
  mh.msg_iovlen = gm->iovlen;
  if (gm->name != 0) {
    mh.msg_name = c.Ptr(gm->name, gm->namelen);
    if (mh.msg_name == nullptr) return -EFAULT;
    mh.msg_namelen = gm->namelen;
  }
  if (gm->control != 0) {
    mh.msg_control = c.Ptr(gm->control, gm->controllen);
    if (mh.msg_control == nullptr) return -EFAULT;
    mh.msg_controllen = gm->controllen;
  }
  mh.msg_flags = gm->flags;
  int64_t r = c.Raw(nr, a[0], reinterpret_cast<long>(&mh), a[2]);
  if (writable && r >= 0) {
    gm->namelen = mh.msg_namelen;
    gm->controllen = static_cast<uint32_t>(mh.msg_controllen);
    gm->flags = mh.msg_flags;
  }
  return r;
}

int64_t SysSendmsg(WaliCtx& c, const int64_t* a) {
  int64_t r = MsgCall(c, SYS_sendmsg, a, /*writable=*/false);
  return (a[2] & MSG_NOSIGNAL) != 0 ? r : c.SigpipeOnEpipe(r);
}

int64_t SysRecvmsg(WaliCtx& c, const int64_t* a) {
  return MsgCall(c, SYS_recvmsg, a, /*writable=*/true);
}

}  // namespace

void RegisterNetSyscalls(std::vector<SyscallDef>& defs) {
  defs.insert(defs.end(), {
      {"socket", 3, SysSocket, false, 3, false, FdEffect::kMints},
      {"socketpair", 4, SysSocketpair, false, 5, false, FdEffect::kMintsPair},
      {"bind", 3, SysBind, false, 5},
      {"listen", 2, SysListen, false, 3},
      {"accept", 3, SysAccept, false, 8, /*can_park=*/true, FdEffect::kMints},
      {"accept4", 4, SysAccept4, false, 8, /*can_park=*/true, FdEffect::kMints},
      {"connect", 3, SysConnect, false, 5, /*can_park=*/true},
      {"getsockname", 3, SysGetsockname, false, 8},
      {"getpeername", 3, SysGetpeername, false, 8},
      {"sendto", 6, SysSendto, false, 11},
      {"recvfrom", 6, SysRecvfrom, false, 8},
      {"setsockopt", 5, SysSetsockopt, false, 5},
      {"getsockopt", 5, SysGetsockopt, false, 8},
      {"shutdown", 2, SysShutdown, false, 3},
      {"sendmsg", 3, SysSendmsg, false, 39},
      {"recvmsg", 3, SysRecvmsg, false, 30},
  });
}

}  // namespace wali
