#include "src/host/io_reactor.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/time_util.h"
#include "src/host/telemetry.h"

namespace host {

void IoBackendMetrics::Wire(Telemetry* tel) {
  // Labels are embedded in the series name, matching the registry's idiom
  // (cf. supervisor_jobs_total{outcome="completed"}).
  const std::string label = std::string("{io_backend=\"") + backend_ + "\"}";
  registry_ = &SeriesRegistry(tel, own_);
  submits_ = registry_->GetCounter("io_submits_total" + label);
  completes_ = registry_->GetCounter("io_completions_total" + label);
  cancels_ = registry_->GetCounter("io_cancels_total" + label);
  in_flight_ = registry_->GetGauge("io_in_flight" + label);
}

namespace {

// Completions collected under the backend lock, delivered after unlock.
struct Due {
  uint64_t cookie;
  IoCompletion completion;
};

}  // namespace

// ------------------------------------------------------------- IoReactor ---

IoReactor::IoReactor() {
  if (::pipe2(wake_fds_, O_CLOEXEC | O_NONBLOCK) != 0) {
    LOG_ERROR() << "IoReactor: pipe2 failed, reactor disabled";
    wake_fds_[0] = wake_fds_[1] = -1;
    return;
  }
  loop_ = std::thread([this] { Loop(); });
}

IoReactor::~IoReactor() {
  stopping_.store(true, std::memory_order_release);
  Wake();
  if (loop_.joinable()) {
    loop_.join();
  }
  // Anything still pending is dropped silently: the owning supervisor has
  // already failed or resumed its parked jobs by the time it lets go of
  // the backend (Supervisor::Shutdown cancels before returning).
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

void IoReactor::SetCompletionHandler(CompletionFn fn) {
  std::lock_guard<std::mutex> lock(deliver_mu_);
  complete_ = std::move(fn);
}

void IoReactor::Deliver(uint64_t cookie, const IoCompletion& completion) {
  std::lock_guard<std::mutex> lock(deliver_mu_);
  if (complete_) {
    complete_(cookie, completion);
  }
}

int64_t IoReactor::NowNanos() const { return common::MonotonicNanos(); }

size_t IoReactor::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_.size();
}

void IoReactor::Wake() {
  if (wake_fds_[1] >= 0) {
    char b = 0;
    // The pipe is non-blocking; a full pipe already guarantees a pending
    // wake, so a short/failed write is fine.
    (void)!::write(wake_fds_[1], &b, 1);
  }
}

void IoReactor::Submit(uint64_t cookie, const wali::IoOp& op) {
  Op rec;
  rec.op = op;
  const int64_t now = NowNanos();
  if (op.kind == wali::IoOp::Kind::kSleep) {
    rec.deadline_nanos = now + std::max<int64_t>(op.sleep_nanos, 0);
  } else if (op.timeout_nanos >= 0) {
    rec.deadline_nanos = now + op.timeout_nanos;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ops_[cookie] = rec;
  }
  tm_.OnSubmit();
  Wake();
}

bool IoReactor::Cancel(uint64_t cookie) {
  bool erased;
  {
    std::lock_guard<std::mutex> lock(mu_);
    erased = ops_.erase(cookie) != 0;
  }
  if (erased) {
    tm_.OnCancel();
    Wake();
  }
  return erased;
}

void IoReactor::Loop() {
  std::vector<struct pollfd> pfds;
  std::vector<uint64_t> pfd_cookies;  // parallel to pfds[1..]
  while (!stopping_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfd_cookies.clear();
    struct pollfd wake = {wake_fds_[0], POLLIN, 0};
    pfds.push_back(wake);
    int64_t next_deadline = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [cookie, rec] : ops_) {
        if (rec.op.kind == wali::IoOp::Kind::kReadable ||
            rec.op.kind == wali::IoOp::Kind::kWritable) {
          struct pollfd p;
          p.fd = rec.op.fd;
          p.events =
              rec.op.kind == wali::IoOp::Kind::kReadable ? POLLIN : POLLOUT;
          p.revents = 0;
          pfds.push_back(p);
          pfd_cookies.push_back(cookie);
        } else if (rec.op.kind == wali::IoOp::Kind::kPollSet) {
          // One table entry per interest-set member, all mapped back to the
          // same cookie: the first member with revents completes the op and
          // erases it, so later members of the same set miss the find below.
          for (const wali::IoOp::PollFd& m : rec.op.poll_fds) {
            if (m.fd < 0) {
              continue;  // poll(2): negative fds are ignored
            }
            struct pollfd p;
            p.fd = m.fd;
            p.events = m.events;
            p.revents = 0;
            pfds.push_back(p);
            pfd_cookies.push_back(cookie);
          }
        }
        if (rec.deadline_nanos >= 0 &&
            (next_deadline < 0 || rec.deadline_nanos < next_deadline)) {
          next_deadline = rec.deadline_nanos;
        }
      }
    }
    int timeout_ms = -1;
    if (next_deadline >= 0) {
      int64_t wait = next_deadline - NowNanos();
      // Round up so we never spin a whole extra wakeup below 1ms.
      timeout_ms = wait <= 0 ? 0 : static_cast<int>((wait + 999999) / 1000000);
    }
    int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      LOG_ERROR() << "IoReactor: poll failed errno=" << errno;
    }
    if (pfds[0].revents != 0) {
      char buf[256];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    std::vector<Due> due;
    const int64_t now = NowNanos();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 1; i < pfds.size(); ++i) {
        if (pfds[i].revents == 0) {
          continue;
        }
        // POLLERR/POLLHUP/POLLNVAL also complete: the retry re-issues the
        // syscall and the kernel reports the truth (EOF, EPIPE, EBADF).
        auto it = ops_.find(pfd_cookies[i - 1]);
        if (it != ops_.end()) {
          due.push_back({it->first, IoCompletion::Ready()});
          ops_.erase(it);
        }
      }
      for (auto it = ops_.begin(); it != ops_.end();) {
        if (it->second.deadline_nanos >= 0 && now >= it->second.deadline_nanos) {
          due.push_back({it->first, IoCompletion::TimedOut()});
          it = ops_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const Due& d : due) {
      tm_.OnComplete();
      Deliver(d.cookie, d.completion);
    }
  }
}

// --------------------------------------------------------- FakeIoBackend ---

void FakeIoBackend::SetCompletionHandler(CompletionFn fn) {
  std::lock_guard<std::mutex> lock(deliver_mu_);
  complete_ = std::move(fn);
}

void FakeIoBackend::Deliver(uint64_t cookie, const IoCompletion& completion) {
  std::lock_guard<std::mutex> lock(deliver_mu_);
  if (complete_) {
    complete_(cookie, completion);
  }
}

int64_t FakeIoBackend::NowNanos() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_nanos_;
}

size_t FakeIoBackend::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_.size();
}

void FakeIoBackend::Submit(uint64_t cookie, const wali::IoOp& op) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Op rec;
    rec.op = op;
    rec.seq = seq_++;
    if (op.kind == wali::IoOp::Kind::kSleep) {
      rec.deadline_nanos = now_nanos_ + std::max<int64_t>(op.sleep_nanos, 0);
    } else if (op.timeout_nanos >= 0) {
      rec.deadline_nanos = now_nanos_ + op.timeout_nanos;
    }
    ops_[cookie] = rec;
  }
  tm_.OnSubmit();
}

bool FakeIoBackend::Cancel(uint64_t cookie) {
  bool erased;
  {
    std::lock_guard<std::mutex> lock(mu_);
    erased = ops_.erase(cookie) != 0;
  }
  if (erased) {
    tm_.OnCancel();
  }
  return erased;
}

void FakeIoBackend::AdvanceTo(int64_t now_nanos) {
  struct Expired {
    int64_t deadline;
    uint64_t seq;
    uint64_t cookie;
  };
  std::vector<Expired> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (now_nanos > now_nanos_) {
      now_nanos_ = now_nanos;
    }
    for (auto it = ops_.begin(); it != ops_.end();) {
      if (it->second.deadline_nanos >= 0 &&
          now_nanos_ >= it->second.deadline_nanos) {
        due.push_back({it->second.deadline_nanos, it->second.seq, it->first});
        it = ops_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Deterministic delivery: everything that became due fires in
  // (deadline, submission) order, synchronously, on this thread.
  std::sort(due.begin(), due.end(), [](const Expired& a, const Expired& b) {
    return a.deadline != b.deadline ? a.deadline < b.deadline : a.seq < b.seq;
  });
  for (const Expired& d : due) {
    tm_.OnComplete();
    Deliver(d.cookie, IoCompletion::TimedOut());
  }
}

bool FakeIoBackend::Complete(uint64_t cookie, const IoCompletion& completion) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ops_.erase(cookie) == 0) {
      return false;
    }
  }
  tm_.OnComplete();
  Deliver(cookie, completion);
  return true;
}

void FakeIoBackend::ForceComplete(uint64_t cookie, const IoCompletion& completion) {
  bool erased;
  {
    std::lock_guard<std::mutex> lock(mu_);
    erased = ops_.erase(cookie) != 0;
  }
  if (erased) {
    // An untracked cookie (the usual fault-injection case) must not skew
    // the in-flight gauge below zero.
    tm_.OnComplete();
  }
  Deliver(cookie, completion);
}

std::vector<uint64_t> FakeIoBackend::PendingCookies() const {
  std::vector<std::pair<uint64_t, uint64_t>> order;  // (seq, cookie)
  {
    std::lock_guard<std::mutex> lock(mu_);
    order.reserve(ops_.size());
    for (const auto& [cookie, rec] : ops_) {
      order.emplace_back(rec.seq, cookie);
    }
  }
  std::sort(order.begin(), order.end());
  std::vector<uint64_t> out;
  out.reserve(order.size());
  for (const auto& [seq, cookie] : order) {
    out.push_back(cookie);
  }
  return out;
}

bool FakeIoBackend::LookupOp(uint64_t cookie, wali::IoOp* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ops_.find(cookie);
  if (it == ops_.end()) {
    return false;
  }
  *out = it->second.op;
  return true;
}

}  // namespace host
