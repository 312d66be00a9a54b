// Process-wide metrics primitives: relaxed-atomic counters and gauges, and
// fixed-bucket histograms, behind a name-keyed registry.
//
// The registry exists so instrumented code pays nothing for naming: a call
// site resolves its series ONCE at setup time (Registry::GetCounter and
// friends return pointers that stay valid for the registry's lifetime — the
// "static handle") and the hot path is a single relaxed atomic add on that
// handle. Totals are exact under any thread interleaving; only cross-metric
// ordering is unspecified, which is fine for monitoring data.
//
// Prometheus-style labels are embedded in the series name itself
// (`supervisor_jobs_total{outcome="shed"}`): the registry stays a flat
// string -> series map and the text exporter only has to split the base
// name at '{' to group a metric family under one # TYPE line.
#ifndef SRC_COMMON_METRICS_H_
#define SRC_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace metrics {

class Counter {
 public:
  void Add(uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Inc() { Add(1); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  // Returns the value this add produced, which is what a paired high-water
  // gauge must be fed: SetMax(level.Add(1)) stays exact under races, where
  // re-reading the level could miss a concurrent peak.
  int64_t Add(int64_t d) {
    return v_.fetch_add(d, std::memory_order_relaxed) + d;
  }
  void Sub(int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  // Raises the gauge to `v` when it is below it (a high-water mark).
  void SetMax(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed-bucket histogram: bucket upper bounds are chosen at registration
// and immutable afterwards, so Observe is lock-free (one linear scan over a
// handful of bounds plus three relaxed adds). bucket(i) counts observations
// v <= bounds[i]; the final bucket (index bounds.size()) is +inf.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds)
      : bounds_(std::move(bounds)),
        buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]()) {}

  void Observe(int64_t v) {
    size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) {
      ++i;
    }
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  const std::vector<int64_t>& bounds() const { return bounds_; }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<int64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

// Default bounds for nanosecond latencies: decade steps from 1us to 10s.
inline std::vector<int64_t> LatencyBoundsNanos() {
  return {1000,       10000,      100000,      1000000,
          10000000,   100000000,  1000000000,  10000000000LL};
}

// Name-keyed series store. Get* registers on first use; the returned
// pointer is stable for the registry's lifetime and series are never
// removed (bounded-cardinality series only — anything keyed by an open
// namespace, like tenant ids, belongs in host::Telemetry's per-tenant
// table, which CAN forget).
class Registry {
 public:
  Counter* GetCounter(std::string_view name) { return Get(counters_, name); }
  Gauge* GetGauge(std::string_view name) { return Get(gauges_, name); }
  Histogram* GetHistogram(std::string_view name,
                          std::vector<int64_t> bounds = LatencyBoundsNanos()) {
    return Get(histograms_, name, std::move(bounds));
  }

  struct HistogramSnapshot {
    std::string name;
    std::vector<int64_t> bounds;
    std::vector<uint64_t> buckets;  // bounds.size() + 1 entries (+inf last)
    uint64_t count = 0;
    int64_t sum = 0;
  };

  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<HistogramSnapshot> histograms;
  };

  // Point-in-time copy, sorted by name (std::map order). Each value is read
  // atomically; the set of values is not a cross-series atomic cut.
  Snapshot TakeSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot s;
    s.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
      s.counters.emplace_back(name, c.value());
    }
    s.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) {
      s.gauges.emplace_back(name, g.value());
    }
    s.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      HistogramSnapshot hs;
      hs.name = name;
      hs.bounds = h.bounds();
      hs.buckets.reserve(hs.bounds.size() + 1);
      for (size_t i = 0; i <= hs.bounds.size(); ++i) {
        hs.buckets.push_back(h.bucket(i));
      }
      hs.count = h.count();
      hs.sum = h.sum();
      s.histograms.push_back(std::move(hs));
    }
    return s;
  }

 private:
  // Series live in their map nodes, whose addresses never change. The
  // transparent comparator looks names up without building a std::string,
  // so registering a series costs one node and its key.
  template <typename Series>
  using SeriesMap = std::map<std::string, Series, std::less<>>;

  template <typename Series, typename... Args>
  Series* Get(SeriesMap<Series>& series, std::string_view name,
              Args&&... args) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = series.find(name);
    if (it == series.end()) {
      it = series.try_emplace(std::string(name), std::forward<Args>(args)...)
               .first;
    }
    return &it->second;
  }

  mutable std::mutex mu_;
  SeriesMap<Counter> counters_;
  SeriesMap<Gauge> gauges_;
  SeriesMap<Histogram> histograms_;
};

}  // namespace metrics

#endif  // SRC_COMMON_METRICS_H_
