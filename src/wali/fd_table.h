// FdTable: the one record of a WALI process's host fds.
//
// WALI's 1-to-1 process model makes a guest's fds host fds (paper §3.1), and
// tenants share one host process, so the engine keeps, per fd number, the
// two facts its user-space interposition (§3.6) needs: whether this guest
// minted the fd, and in which poll(2) directions a gate on it can block (its
// blocking class). Both live in one flat array indexed by fd number under
// one mutex. The syscall dispatch wrapper (Apply) and the pipe and
// socketpair handlers (Mint) record what the guest does; restore re-mints,
// eviction releases and recycling closes the owned set; the fd gates read
// the class. Ownership is recorded, not yet enforced.
#ifndef SRC_WALI_FD_TABLE_H_
#define SRC_WALI_FD_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace wali {

// How a syscall changes its process's fd table. Each registry row names its
// own (SyscallDef::fd_effect); the dispatch wrapper hands it to
// FdTable::Apply once the handler has answered.
enum class FdEffect : uint8_t {
  kNone = 0,
  kMints,      // a successful result is a new fd (open, dup, socket, ...)
  kMintsPair,  // pipe, pipe2, socketpair: the handler mints both fds itself
  kCloses,     // arg0 is freed, even when close(2) fails
  kFcntl,      // F_DUPFD(_CLOEXEC) mints; F_SETFL may flip arg0's O_NONBLOCK
  kIoctl,      // FIONBIO flips arg0's O_NONBLOCK
};

class FdTable {
 public:
  // Closes every fd the guest owns. The mutex makes the table neither
  // copyable nor movable, so no two tables close one fd.
  ~FdTable();

  // Applies a dispatched syscall's effect: `args` are its guest arguments and
  // `ret` its answer.
  void Apply(FdEffect effect, const uint64_t* args, int64_t ret);

  // Records `fd` as minted by the guest and drops its cached class: the
  // number may have meant another file. Stdio (fd <= 2) is shared by design
  // and never owned. pipe and socketpair handlers mint from a host-side
  // buffer, which a sibling guest thread cannot rewrite before this call.
  void Mint(int fd);

  // The poll(2) directions in which a read, write or accept gate on `fd` can
  // block: POLLIN and/or POLLOUT, as the access mode allows, for pipes,
  // FIFOs, sockets and character devices. 0 for regular files and
  // directories (page-cache I/O always polls ready), O_NONBLOCK fds (the
  // kernel answers -EAGAIN inline) and bad fds (the real syscall surfaces the
  // errno). Cached per fd; a bad fd's answer is never stored, so the table
  // grows only to the highest fd that was open.
  short BlockingClass(int fd);

  // Closes every owned fd and drops every class (slot recycling).
  void CloseAll();
  // Forgets every owned fd WITHOUT closing it and returns them sorted:
  // eviction hands the open fds to the evicted run.
  std::vector<int> Release() { return Collect(/*release=*/true); }
  // The owned fds, sorted (the snapshot's fd list).
  std::vector<int> Owned() { return Collect(/*release=*/false); }
  // Entries allocated: one past the highest fd recorded since the last
  // CloseAll.
  size_t size();

 private:
  // Clears `fd`'s entry except `bits`: 0 forgets it, kOwned drops its class.
  void Keep(int fd, uint8_t bits);
  // The owned fds, sorted; `release` forgets them.
  std::vector<int> Collect(bool release);

  std::mutex mu_;
  // Per fd number: kOwned, kClassified, and the class's POLLIN/POLLOUT bits.
  std::vector<uint8_t> entries_;
};

}  // namespace wali

#endif  // SRC_WALI_FD_TABLE_H_
