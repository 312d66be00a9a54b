#include "src/wali/fd_table.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace wali {

namespace {

constexpr uint8_t kOwned = 0x80;
constexpr uint8_t kClassified = 0x40;
constexpr uint8_t kClassBits = POLLIN | POLLOUT;
static_assert((kClassBits & (kOwned | kClassified)) == 0,
              "the class bits must not overlap the flags");

// The uncached blocking class (one fstat + one fcntl), or -1 for a bad fd.
int Classify(int fd) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return -1;
  }
  if (!(S_ISFIFO(st.st_mode) || S_ISSOCK(st.st_mode) || S_ISCHR(st.st_mode))) {
    return 0;
  }
  // O_NONBLOCK fds never block — the kernel answers -EAGAIN instantly, and
  // event-loop guests depend on exactly that. Parking one would turn a
  // readiness probe into an indefinite suspension, diverging from the
  // blocking path this offload must match bit-for-bit.
  int fl = ::fcntl(fd, F_GETFL);
  if (fl < 0) {
    return -1;
  }
  if ((fl & O_NONBLOCK) != 0) {
    return 0;
  }
  // The access mode decides which direction can wait: the wrong one answers
  // -EBADF at once, and its probe would report "not ready" forever (a read
  // end never polls POLLOUT), parking the guest for good.
  switch (fl & O_ACCMODE) {
    case O_RDONLY:
      return POLLIN;
    case O_WRONLY:
      return POLLOUT;
    case O_RDWR:
      return POLLIN | POLLOUT;
    default:
      return 0;
  }
}

}  // namespace

FdTable::~FdTable() { CloseAll(); }

void FdTable::Apply(FdEffect effect, const uint64_t* args, int64_t ret) {
  // `args` is read only for an effect whose syscall takes the argument: a
  // syscall without arguments has effect kNone.
  const bool fcntl_cmd = effect == FdEffect::kFcntl;
  if (effect == FdEffect::kCloses) {
    // Linux frees the fd even when close(2) fails (EINTR/EIO); still owning
    // it would double-close a number the kernel has since reused.
    Keep(static_cast<int>(args[0]), 0);
  } else if (ret >= 0 && (effect == FdEffect::kMints ||
                          (fcntl_cmd && (args[1] == F_DUPFD || args[1] == F_DUPFD_CLOEXEC)))) {
    // Also dup2/dup3, which replace an open target in place (ret == newfd).
    Mint(static_cast<int>(ret));
  } else if (ret >= 0 && ((fcntl_cmd && args[1] == F_SETFL) ||
                          (effect == FdEffect::kIoctl && args[1] == FIONBIO))) {
    // O_NONBLOCK may have flipped; the access mode cannot change.
    Keep(static_cast<int>(args[0]), kOwned);
  }
}

void FdTable::Mint(int fd) {
  if (fd <= 2) {
    Keep(fd, 0);  // stdio is shared by design, never owned
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<size_t>(fd) >= entries_.size()) {
    entries_.resize(static_cast<size_t>(fd) + 1);
  }
  entries_[fd] = kOwned;
}

void FdTable::Keep(int fd, uint8_t bits) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd >= 0 && static_cast<size_t>(fd) < entries_.size()) {
    entries_[fd] &= bits;
  }
}

short FdTable::BlockingClass(int fd) {
  // Classify under the lock: a concurrent Apply or Mint (another guest
  // thread's dispatch) must serialize either before the
  // fstat+fcntl here (we classify the new state) or after the store (it
  // drops our entry) — never between them, which would pin a stale answer.
  // Misses are once per fd and the syscalls are cheap.
  std::lock_guard<std::mutex> lock(mu_);
  const bool in_range = fd >= 0 && static_cast<size_t>(fd) < entries_.size();
  if (in_range && (entries_[fd] & kClassified) != 0) {
    return entries_[fd] & kClassBits;
  }
  const int events = Classify(fd);
  if (events < 0) {
    return 0;
  }
  if (!in_range) {
    entries_.resize(static_cast<size_t>(fd) + 1);
  }
  entries_[fd] = static_cast<uint8_t>((entries_[fd] & kOwned) | kClassified | events);
  return static_cast<short>(events);
}

void FdTable::CloseAll() {
  for (int fd : Collect(/*release=*/true)) {
    ::close(fd);
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

std::vector<int> FdTable::Collect(bool release) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> fds;
  for (size_t fd = 0; fd < entries_.size(); ++fd) {
    if ((entries_[fd] & kOwned) != 0) {
      fds.push_back(static_cast<int>(fd));
      if (release) {
        entries_[fd] = 0;
      }
    }
  }
  return fds;
}

size_t FdTable::size() {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace wali
