#include "src/host/io_uring_backend.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/time_util.h"
#include "src/host/telemetry.h"

#if defined(HOST_IO_URING)
#include <linux/io_uring.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/syscall.h>

#ifndef __NR_io_uring_setup
#define __NR_io_uring_setup 425
#endif
#ifndef __NR_io_uring_enter
#define __NR_io_uring_enter 426
#endif
#endif  // HOST_IO_URING

namespace host {

namespace {

// user_data values below kFirstOpTag are control tags, never op tags.
constexpr uint64_t kCancelTag = 0;  // CQE of an ASYNC_CANCEL/TIMEOUT_REMOVE
constexpr uint64_t kWakeTag = 1;    // CQE of the eventfd wake POLL_ADD
constexpr uint64_t kFirstOpTag = 2;

// Completions collected under the backend lock, delivered after unlock.
struct Due {
  uint64_t cookie;
  IoCompletion completion;
};

#if defined(HOST_IO_URING)
int SysIoUringSetup(unsigned entries, struct io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int SysIoUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

struct __kernel_timespec ToKernelTs(int64_t nanos) {
  struct __kernel_timespec ts;
  ts.tv_sec = nanos / 1000000000;
  ts.tv_nsec = nanos % 1000000000;
  return ts;
}
#endif  // HOST_IO_URING

}  // namespace

bool IoUringAvailable() {
#if defined(HOST_IO_URING)
  static const bool ok = [] {
    struct io_uring_params p;
    memset(&p, 0, sizeof(p));
    int fd = SysIoUringSetup(4, &p);
    if (fd < 0) {
      return false;
    }
    ::close(fd);
    return true;
  }();
  return ok;
#else
  return false;
#endif
}

// All mutable backend state. Completions are delivered through sink_,
// outside mu_, as in IoReactor.
struct IoUringBackend::Impl {
  // One parked op. `tags` are the ring user_data values registered for it
  // (one POLL_ADD per member plus a TIMEOUT when the op has a timeout); the
  // first CQE wins and every remaining tag is cancelled + ignored. `ts`
  // must stay address-stable until the kernel consumes the SQE pointing at
  // it, so records are heap-allocated (unique_ptr in ops_) — retiring one
  // moves only the pointer, never the record — and `retired_` keeps them
  // alive until the loop thread has submitted every pushed SQE.
  struct OpRec {
    wali::IoOp op;
    std::vector<std::pair<uint64_t, bool>> tags;  // (tag, is_timer)
    bool submitted = false;  // SQEs pushed into the ring yet?
#if defined(HOST_IO_URING)
    struct __kernel_timespec ts {};
#endif
  };
  struct TagInfo {
    uint64_t cookie = 0;
    bool is_timer = false;
  };
  struct CancelReq {
    uint64_t tag = 0;
    bool is_timer = false;
  };

  CompletionSink sink_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // fallback mode's wakeup
  bool stopping_ = false;
  bool ring_ok_ = false;
  // True once io_uring_enter fails in a way that can never make progress;
  // the loop thread fails everything parked and drops to the -ENOSYS
  // fallback. Atomic so Wake() can route wakeups without taking mu_.
  std::atomic<bool> ring_dead_{false};
  bool need_arm_wake_ = true;  // eventfd POLL_ADD wants re-arming (mu_)
  std::map<uint64_t, std::unique_ptr<OpRec>> ops_;
  std::deque<uint64_t> submit_queue_;   // cookies awaiting SQE build
  std::deque<CancelReq> cancel_queue_;  // kernel-side cancels to issue
  std::map<uint64_t, TagInfo> tag_map_;
  uint64_t next_tag_ = kFirstOpTag;
  // Records detached by Cancel whose `ts` may still be read by the next
  // io_uring_enter; the loop thread frees them once it is safe.
  std::vector<std::unique_ptr<OpRec>> retired_;

  IoBackendMetrics tm_{"io_uring"};
  // Submission batching: io_uring_enter calls that submitted SQEs, and the
  // SQEs they submitted. Updated and re-pointed under mu_, because the loop
  // thread runs from construction on, before SetTelemetry.
  metrics::Counter* c_enters_ = nullptr;
  metrics::Counter* c_sqes_ = nullptr;
  std::thread loop_;

#if defined(HOST_IO_URING)
  int ring_fd_ = -1;
  int event_fd_ = -1;
  void* sq_ptr_ = nullptr;
  size_t sq_len_ = 0;
  void* cq_ptr_ = nullptr;
  size_t cq_len_ = 0;
  void* sqe_ptr_ = nullptr;
  size_t sqe_len_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned sq_entries_ = 0;
  unsigned* sq_array_ = nullptr;
  struct io_uring_sqe* sqes_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  struct io_uring_cqe* cqes_ = nullptr;
#endif

  ~Impl() { TeardownRing(); }

  void Wire(Telemetry* tel) {
    std::lock_guard<std::mutex> lock(mu_);
    tm_.Wire(tel);
    c_enters_ = tm_.registry().GetCounter("io_uring_enters_total");
    c_sqes_ = tm_.registry().GetCounter("io_uring_sqes_total");
  }

  // One io_uring_enter that submitted `sqes` SQEs. mu_ held.
  void CountEnterLocked(int sqes) {
    c_enters_->Inc();
    c_sqes_->Add(static_cast<uint64_t>(sqes));
  }

  void Wake() {
#if defined(HOST_IO_URING)
    if (event_fd_ >= 0 && !ring_dead_.load(std::memory_order_acquire)) {
      uint64_t one = 1;
      (void)!::write(event_fd_, &one, sizeof(one));
    }
#endif
    // Always notify the cv too: a ring death racing this Wake may already
    // have moved the loop thread into FallbackLoop's cv wait, where an
    // eventfd write alone would be a lost wakeup.
    cv_.notify_all();
  }

  uint64_t NewTag(uint64_t cookie, bool is_timer, OpRec* rec) {
    const uint64_t tag = next_tag_++;
    tag_map_[tag] = {cookie, is_timer};
    rec->tags.emplace_back(tag, is_timer);
    return tag;
  }

  // The fallback loop: no ring. Every submit completes asynchronously with
  // kError(-ENOSYS) so the supervisor resumes the guest with a truthful
  // errno instead of wedging it parked.
  void FallbackLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stopping_ || !submit_queue_.empty(); });
      if (stopping_) {
        return;
      }
      const uint64_t cookie = submit_queue_.front();
      submit_queue_.pop_front();
      auto it = ops_.find(cookie);
      if (it == ops_.end()) {
        continue;  // cancelled before we got here
      }
      ops_.erase(it);
      lock.unlock();
      tm_.OnComplete();
      sink_.Deliver(cookie, IoCompletion::Error(-ENOSYS));
      lock.lock();
    }
  }

#if defined(HOST_IO_URING)
  bool SetupRing() {
    struct io_uring_params p;
    memset(&p, 0, sizeof(p));
    p.flags = IORING_SETUP_CQSIZE;
    p.cq_entries = 4096;
    int fd = SysIoUringSetup(256, &p);
    if (fd < 0 && errno == EINVAL) {
      // Very old kernels without IORING_SETUP_CQSIZE: take the default CQ.
      memset(&p, 0, sizeof(p));
      fd = SysIoUringSetup(256, &p);
    }
    if (fd < 0) {
      return false;
    }
    sq_len_ = p.sq_off.array + p.sq_entries * sizeof(unsigned);
    cq_len_ = p.cq_off.cqes + p.cq_entries * sizeof(struct io_uring_cqe);
    const bool single_mmap = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap) {
      sq_len_ = cq_len_ = std::max(sq_len_, cq_len_);
    }
    sq_ptr_ = ::mmap(nullptr, sq_len_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
    if (sq_ptr_ == MAP_FAILED) {
      sq_ptr_ = nullptr;
      ::close(fd);
      return false;
    }
    if (single_mmap) {
      cq_ptr_ = sq_ptr_;
    } else {
      cq_ptr_ = ::mmap(nullptr, cq_len_, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_CQ_RING);
      if (cq_ptr_ == MAP_FAILED) {
        cq_ptr_ = nullptr;
        ::munmap(sq_ptr_, sq_len_);
        sq_ptr_ = nullptr;
        ::close(fd);
        return false;
      }
    }
    sqe_len_ = p.sq_entries * sizeof(struct io_uring_sqe);
    sqe_ptr_ = ::mmap(nullptr, sqe_len_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES);
    if (sqe_ptr_ == MAP_FAILED) {
      sqe_ptr_ = nullptr;
      if (cq_ptr_ != sq_ptr_) ::munmap(cq_ptr_, cq_len_);
      ::munmap(sq_ptr_, sq_len_);
      sq_ptr_ = cq_ptr_ = nullptr;
      ::close(fd);
      return false;
    }
    char* sq = static_cast<char*>(sq_ptr_);
    char* cq = static_cast<char*>(cq_ptr_);
    sq_head_ = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
    sq_mask_ = *reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
    sq_entries_ = p.sq_entries;
    sq_array_ = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
    sqes_ = static_cast<struct io_uring_sqe*>(sqe_ptr_);
    cq_head_ = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
    cq_mask_ = *reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
    cqes_ = reinterpret_cast<struct io_uring_cqe*>(cq + p.cq_off.cqes);

    event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (event_fd_ < 0) {
      ring_fd_ = fd;  // TeardownRing unmaps/closes everything
      TeardownRing();
      return false;
    }
    ring_fd_ = fd;
    return true;
  }

  void TeardownRing() {
#if defined(HOST_IO_URING)
    if (sqe_ptr_ != nullptr) ::munmap(sqe_ptr_, sqe_len_);
    if (cq_ptr_ != nullptr && cq_ptr_ != sq_ptr_) ::munmap(cq_ptr_, cq_len_);
    if (sq_ptr_ != nullptr) ::munmap(sq_ptr_, sq_len_);
    sq_ptr_ = cq_ptr_ = sqe_ptr_ = nullptr;
    if (event_fd_ >= 0) ::close(event_fd_);
    if (ring_fd_ >= 0) ::close(ring_fd_);
    event_fd_ = ring_fd_ = -1;
#endif
  }

  // Marks the ring unable to ever make progress again. mu_ held. The loop
  // thread notices at its next iteration, fails everything parked with
  // -ENOSYS and drops to FallbackLoop; *to_submit is zeroed because the
  // pushed SQEs will never reach the kernel.
  void KillRing(unsigned* to_submit) {
    ring_dead_.store(true, std::memory_order_release);
    *to_submit = 0;
  }

  // Flushes already-pushed SQEs without waiting. Called with mu_ held (the
  // ring tail is only ever written by the loop thread, but SQE payloads
  // reference OpRec memory guarded by mu_). A full CQ (-EBUSY) is drained
  // in place to make room; any other persistent error kills the ring
  // instead of retrying without progress.
  void FlushSubmissions(unsigned* to_submit, std::vector<Due>* due) {
    while (*to_submit > 0) {
      int rc = SysIoUringEnter(ring_fd_, *to_submit, 0, 0);
      if (rc < 0) {
        if (errno == EINTR || errno == EAGAIN) {
          continue;
        }
        if (errno == EBUSY) {
          DrainCqes(due);  // CQ overflow: consume completions, then retry
          continue;
        }
        LOG_ERROR() << "io_uring_enter(submit) failed errno=" << errno
                    << "; disabling ring";
        KillRing(to_submit);
        return;
      }
      CountEnterLocked(rc);
      *to_submit -= static_cast<unsigned>(rc);
      if (rc == 0 && *to_submit > 0) {
        // The kernel accepted nothing and gave no errno; there is no way
        // to make progress, so don't spin — PushSqe would otherwise loop
        // on a full SQ forever.
        LOG_ERROR() << "io_uring_enter(submit) made no progress; disabling "
                       "ring";
        KillRing(to_submit);
        return;
      }
    }
  }

  // Pushes one SQE, flushing mid-batch if the SQ is full. mu_ held. On a
  // dead ring the SQE is dropped: the loop thread fails its op.
  void PushSqe(const struct io_uring_sqe& sqe, unsigned* to_submit,
               std::vector<Due>* due) {
    while (!ring_dead_.load(std::memory_order_relaxed)) {
      const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
      const unsigned tail = *sq_tail_;  // loop thread is the sole writer
      if (tail - head < sq_entries_) {
        const unsigned idx = tail & sq_mask_;
        sqes_[idx] = sqe;
        sq_array_[idx] = idx;
        __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
        ++*to_submit;
        return;
      }
      FlushSubmissions(to_submit, due);
    }
  }

  void PushCancelSqe(const CancelReq& req, unsigned* to_submit,
                     std::vector<Due>* due) {
    struct io_uring_sqe s;
    memset(&s, 0, sizeof(s));
    s.opcode = req.is_timer ? IORING_OP_TIMEOUT_REMOVE : IORING_OP_ASYNC_CANCEL;
    s.fd = -1;
    s.addr = req.tag;  // both opcodes key the target by its user_data
    s.user_data = kCancelTag;
    PushSqe(s, to_submit, due);
  }

  void PushWakeArm(unsigned* to_submit, std::vector<Due>* due) {
    struct io_uring_sqe s;
    memset(&s, 0, sizeof(s));
    s.opcode = IORING_OP_POLL_ADD;  // one-shot: re-armed after every fire
    s.fd = event_fd_;
    s.poll_events = POLLIN;
    s.user_data = kWakeTag;
    PushSqe(s, to_submit, due);
  }

  // Registers one op's SQEs: a POLL_ADD per member (negative fds are
  // skipped, as poll(2) does) plus a standalone TIMEOUT when the op has a
  // timeout. The first CQE completes the op and RetireOp cancels the rest.
  // mu_ held.
  void BuildSqes(uint64_t cookie, OpRec* rec, unsigned* to_submit,
                 std::vector<Due>* due) {
    rec->submitted = true;
    const wali::IoOp& op = rec->op;
    for (const wali::IoOp::PollFd& m : op.poll_fds) {
      if (m.fd < 0) {
        continue;
      }
      struct io_uring_sqe s;
      memset(&s, 0, sizeof(s));
      s.opcode = IORING_OP_POLL_ADD;
      s.fd = m.fd;
      s.poll_events = static_cast<unsigned short>(m.events);
      s.user_data = NewTag(cookie, /*is_timer=*/false, rec);
      PushSqe(s, to_submit, due);
    }
    if (op.timeout_nanos >= 0) {
      rec->ts = ToKernelTs(op.timeout_nanos);
      struct io_uring_sqe s;
      memset(&s, 0, sizeof(s));
      s.opcode = IORING_OP_TIMEOUT;  // off = 0: a pure timer
      s.fd = -1;
      s.addr = reinterpret_cast<uintptr_t>(&rec->ts);
      s.len = 1;
      s.user_data = NewTag(cookie, /*is_timer=*/true, rec);
      PushSqe(s, to_submit, due);
    }
  }

  // Erases every remaining ring registration of a completed op and queues
  // kernel-side cancels for them, so loser CQEs miss tag_map_ and are
  // dropped. mu_ held.
  void RetireOp(std::map<uint64_t, std::unique_ptr<OpRec>>::iterator it,
                uint64_t fired_tag) {
    for (const auto& [tag, is_timer] : it->second->tags) {
      tag_map_.erase(tag);
      if (tag != fired_tag) {
        cancel_queue_.push_back({tag, is_timer});
      }
    }
    retired_.push_back(std::move(it->second));
    ops_.erase(it);
  }

  // Processes one op CQE. Returns true (and fills *out) when the op
  // completed; false for a stale CQE (its op already completed or was
  // cancelled, which drops every tag first). mu_ held.
  bool OnOpCqe(uint64_t tag, int32_t res, Due* out) {
    auto tit = tag_map_.find(tag);
    if (tit == tag_map_.end()) {
      return false;
    }
    const TagInfo info = tit->second;
    auto oit = ops_.find(info.cookie);
    if (oit == ops_.end()) {
      tag_map_.erase(tit);  // defensive: should not happen
      return false;
    }
    out->cookie = info.cookie;
    if (res == -ECANCELED) {
      // The kernel dropped a live registration: the op can no longer become
      // ready, and kReady would re-dispatch a syscall that blocks its
      // worker.
      out->completion = IoCompletion::Error(-ECANCELED);
    } else if (info.is_timer) {
      out->completion = IoCompletion::TimedOut();  // -ETIME: it expired
    } else {
      // res >= 0: revents mask — readiness. res < 0 (e.g. -EBADF on a
      // closed fd, the POLLNVAL analogue): also kReady, so the retry
      // re-issues the syscall and the kernel reports the truth.
      out->completion = IoCompletion::Ready();
    }
    RetireOp(oit, tag);
    return true;
  }

  void DrainCqes(std::vector<Due>* due) {
    unsigned head = *cq_head_;  // loop thread is the sole consumer
    const unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    while (head != tail) {
      const struct io_uring_cqe& cqe = cqes_[head & cq_mask_];
      ++head;
      if (cqe.user_data == kWakeTag) {
        uint64_t buf;
        while (::read(event_fd_, &buf, sizeof(buf)) > 0) {
        }
        need_arm_wake_ = true;
        continue;
      }
      if (cqe.user_data == kCancelTag) {
        continue;  // result of our own cancel SQE; nothing to do
      }
      Due d;
      if (OnOpCqe(cqe.user_data, cqe.res, &d)) {
        due->push_back(d);
      }
    }
    __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
  }

  void RingLoop() {
    unsigned to_submit = 0;
    std::vector<Due> due;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
          return;
        }
        if (to_submit == 0) {
          // Safe only once every pushed SQE (which may reference a retired
          // record's timespec) has been consumed by the kernel.
          retired_.clear();
        }
        if (need_arm_wake_) {
          PushWakeArm(&to_submit, &due);
          need_arm_wake_ = false;
        }
        while (!cancel_queue_.empty()) {
          const CancelReq req = cancel_queue_.front();
          cancel_queue_.pop_front();
          PushCancelSqe(req, &to_submit, &due);
        }
        while (!submit_queue_.empty()) {
          const uint64_t cookie = submit_queue_.front();
          submit_queue_.pop_front();
          auto it = ops_.find(cookie);
          if (it == ops_.end()) {
            continue;  // cancelled before its SQEs were built
          }
          BuildSqes(cookie, it->second.get(), &to_submit, &due);
        }
        if (!due.empty() && to_submit > 0) {
          // Completions were reaped while a full SQ flushed mid-batch:
          // submit the rest without blocking so they are delivered now; the
          // next iteration blocks as usual.
          FlushSubmissions(&to_submit, &due);
        }
        if (ring_dead_.load(std::memory_order_relaxed)) {
          // The ring can never make progress again: fail everything parked
          // so no guest stays wedged. SQEs pushed but not submitted will
          // never reach the kernel, so dropping retired_ here is safe.
          for (auto& [cookie, rec] : ops_) {
            due.push_back({cookie, IoCompletion::Error(-ENOSYS)});
          }
          ops_.clear();
          tag_map_.clear();
          submit_queue_.clear();
          cancel_queue_.clear();
          retired_.clear();
        }
      }
      if (ring_dead_.load(std::memory_order_relaxed)) {
        for (const Due& d : due) {
          tm_.OnComplete();
          sink_.Deliver(d.cookie, d.completion);
        }
        due.clear();
        // Serve the rest of this backend's life as if io_uring were absent:
        // every later submit completes with -ENOSYS (Wake notifies cv_).
        FallbackLoop();
        return;
      }
      if (due.empty()) {
        // The one enter per wakeup: submit everything coalesced above and
        // wait for at least one CQE (a real completion or the eventfd
        // wake).
        const unsigned submitting = to_submit;
        int rc = SysIoUringEnter(ring_fd_, submitting, 1,
                                 IORING_ENTER_GETEVENTS);
        if (rc < 0) {
          // EINTR/EAGAIN: plain retry. EBUSY: CQ overflow — fall through
          // to DrainCqes, which makes room. Anything else is permanent:
          // kill the ring instead of spinning on a failing enter.
          if (errno != EINTR && errno != EAGAIN && errno != EBUSY) {
            LOG_ERROR() << "io_uring_enter(wait) failed errno=" << errno
                        << "; disabling ring";
            ring_dead_.store(true, std::memory_order_release);
            to_submit = 0;
            continue;  // next iteration sweeps parked ops and falls back
          }
        } else {
          to_submit -= static_cast<unsigned>(rc);
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (submitting > 0 && rc >= 0) {
            CountEnterLocked(rc);
          }
          DrainCqes(&due);
        }
      }
      for (const Due& d : due) {
        tm_.OnComplete();
        sink_.Deliver(d.cookie, d.completion);
      }
      due.clear();
    }
  }
#else   // !HOST_IO_URING
  void TeardownRing() {}
#endif  // HOST_IO_URING
};

IoUringBackend::IoUringBackend() : impl_(new Impl) {
  impl_->Wire(nullptr);
#if defined(HOST_IO_URING)
  if (impl_->SetupRing()) {
    impl_->ring_ok_ = true;
    impl_->loop_ = std::thread([impl = impl_.get()] { impl->RingLoop(); });
    return;
  }
  LOG_INFO() << "io_uring unavailable at runtime; IoUringBackend answering "
                "-ENOSYS (callers should probe IoUringAvailable())";
#endif
  impl_->loop_ = std::thread([impl = impl_.get()] { impl->FallbackLoop(); });
}

IoUringBackend::~IoUringBackend() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu_);
    impl_->stopping_ = true;
  }
  impl_->Wake();
  if (impl_->loop_.joinable()) {
    impl_->loop_.join();
  }
  // Anything still pending is dropped silently, as in IoReactor: the owner
  // cancels or resumes parked jobs before releasing the backend.
}

void IoUringBackend::SetCompletionHandler(CompletionFn fn) {
  impl_->sink_.Set(std::move(fn));
}

void IoUringBackend::Submit(uint64_t cookie, const wali::IoOp& op) {
  auto rec = std::make_unique<Impl::OpRec>();
  rec->op = op;  // allocates: outside mu_, which the loop thread contends
  {
    std::lock_guard<std::mutex> lock(impl_->mu_);
    impl_->ops_[cookie] = std::move(rec);
    impl_->submit_queue_.push_back(cookie);
  }
  impl_->tm_.OnSubmit();
  impl_->Wake();
}

bool IoUringBackend::Cancel(uint64_t cookie) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu_);
    auto it = impl_->ops_.find(cookie);
    if (it == impl_->ops_.end()) {
      return false;  // already delivered (or never submitted)
    }
    for (const auto& [tag, is_timer] : it->second->tags) {
      impl_->tag_map_.erase(tag);
      if (it->second->submitted) {
        impl_->cancel_queue_.push_back({tag, is_timer});
      }
    }
    // The record moves to retired_ as a unique_ptr: its heap address (and
    // the &ts embedded in any not-yet-submitted TIMEOUT SQE) is unchanged,
    // and the loop thread frees it only after the kernel has consumed
    // every pushed SQE.
    impl_->retired_.push_back(std::move(it->second));
    impl_->ops_.erase(it);
  }
  impl_->tm_.OnCancel();
  impl_->Wake();
  return true;
}

int64_t IoUringBackend::NowNanos() const { return common::MonotonicNanos(); }

size_t IoUringBackend::pending() const {
  std::lock_guard<std::mutex> lock(impl_->mu_);
  return impl_->ops_.size();
}

void IoUringBackend::SetTelemetry(Telemetry* tel) { impl_->Wire(tel); }

bool IoUringBackend::ring_ok() const { return impl_->ring_ok_; }

IoUringBackend::Stats IoUringBackend::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu_);
  Stats s;
  s.enters = impl_->c_enters_->value();
  s.sqes = impl_->c_sqes_->value();
  return s;
}

}  // namespace host
