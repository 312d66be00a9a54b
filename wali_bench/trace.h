// Bench-side tracing for wali_bench's traced run: an in-memory span log and
// an IoBackend decorator that times the offload layer from outside.
#ifndef WALI_BENCH_TRACE_H_
#define WALI_BENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/time_util.h"
#include "src/host/io_reactor.h"

namespace wali_bench {

// One timed interval at a layer boundary. `id` names what the span is about
// (an op id, a backend cookie, a sweep or probe iteration) and `parent` the
// op that caused it (0 for none). Times are common::MonotonicNanos, the
// supervisor's clock, so bench spans line up with telemetry spans.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start = 0;
  int64_t end = 0;
};

// Bounded, thread-safe span ring: the newest `capacity` spans are kept in
// memory and written out once, when the run ends.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  void Add(const char* name, uint64_t id, uint64_t parent, int64_t start,
           int64_t end) {
    std::lock_guard<std::mutex> lock(mu_);
    Span s{name, id, parent, start, end};
    if (spans_.size() < capacity_) {
      spans_.push_back(s);
    } else {
      spans_[next_] = s;
      next_ = (next_ + 1) % capacity_;
    }
  }

  // chrome://tracing "X" slices. Ops and their child spans share one lane
  // (tid) per op in process 1; io, evict and probe spans, which have no
  // parent op, get processes 2, 3 and 4 with one lane per id.
  std::string ChromeTraceJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[(next_ + i) % spans_.size()];
      int pid = 4;
      if (s.parent != 0 || std::strcmp(s.name, "op") == 0) {
        pid = 1;
      } else if (std::strncmp(s.name, "io.", 3) == 0) {
        pid = 2;
      } else if (std::strncmp(s.name, "evict.", 6) == 0) {
        pid = 3;
      }
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%llu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu}}",
                    i == 0 ? "" : ",", s.name, pid,
                    static_cast<unsigned long long>(s.parent != 0 ? s.parent : s.id),
                    s.start / 1e3, (s.end - s.start) / 1e3,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent));
      out += buf;
    }
    out += "]}";
    return out;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  size_t next_ = 0;  // oldest span once the ring is full
};

// Forwards every call to the real backend and times two things around it:
// io.wait (Submit -> the backend's completion) and io.deliver (time inside
// the supervisor's completion handler). Samples are kept while `recording`
// is set. The seam carries no run identity, so io spans are keyed by the
// backend cookie.
class TimedIoBackend : public host::IoBackend {
 public:
  TimedIoBackend(host::IoBackend* inner, SpanLog* spans,
                 const std::atomic<bool>* recording)
      : inner_(inner), spans_(spans), recording_(recording) {}

  TimedIoBackend(const TimedIoBackend&) = delete;
  TimedIoBackend& operator=(const TimedIoBackend&) = delete;

  void SetCompletionHandler(CompletionFn fn) override {
    if (fn == nullptr) {
      inner_->SetCompletionHandler(nullptr);
      return;
    }
    inner_->SetCompletionHandler(
        [this, fn = std::move(fn)](uint64_t cookie, const host::IoCompletion& c) {
          const int64_t t0 = common::MonotonicNanos();
          int64_t submitted = t0;
          {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = submitted_.find(cookie);
            if (it != submitted_.end()) {
              submitted = it->second;
              submitted_.erase(it);
            }
          }
          fn(cookie, c);
          const int64_t t1 = common::MonotonicNanos();
          spans_->Add("io.wait", cookie, 0, submitted, t0);
          spans_->Add("io.deliver", cookie, 0, t0, t1);
          if (recording_->load(std::memory_order_relaxed)) {
            std::lock_guard<std::mutex> lock(mu_);
            wait_ns_.push_back(t0 - submitted);
            deliver_ns_.push_back(t1 - t0);
          }
        });
  }

  void Submit(uint64_t cookie, const wali::IoOp& op) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      submitted_[cookie] = common::MonotonicNanos();
    }
    inner_->Submit(cookie, op);
  }

  bool Cancel(uint64_t cookie) override {
    bool cancelled = inner_->Cancel(cookie);
    if (cancelled) {
      std::lock_guard<std::mutex> lock(mu_);
      submitted_.erase(cookie);
    }
    return cancelled;
  }

  int64_t NowNanos() const override { return inner_->NowNanos(); }
  size_t pending() const override { return inner_->pending(); }

  // Copies of the samples taken so far (ns).
  std::pair<std::vector<int64_t>, std::vector<int64_t>> Samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {wait_ns_, deliver_ns_};
  }

 private:
  host::IoBackend* inner_;
  SpanLog* spans_;
  const std::atomic<bool>* recording_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, int64_t> submitted_;
  std::vector<int64_t> wait_ns_;
  std::vector<int64_t> deliver_ns_;
};

}  // namespace wali_bench

#endif  // WALI_BENCH_TRACE_H_
