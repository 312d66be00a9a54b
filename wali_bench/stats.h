// Percentile helpers, plus the host fingerprint every wali_bench result
// carries.
#ifndef WALI_BENCH_STATS_H_
#define WALI_BENCH_STATS_H_

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/host/io_uring_backend.h"
#include "src/wasm/instance.h"

namespace wali_bench {

// Nearest-rank percentile, p in [0, 100]; sorts `v` in place. 0 when empty.
template <typename T>
double Percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

// The middle value, or the mean of the two middle ones. 0 when empty.
template <typename T>
double Median(std::vector<T> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : (static_cast<double>(v[n / 2 - 1]) + static_cast<double>(v[n / 2])) / 2;
}

// Nanosecond latencies counted in fixed log-linear buckets: exact below
// 64 ns, then 64 buckets per power of two, so a percentile reads within
// 1/64 of the true value. Recording never allocates: the untraced run's RSS
// is a gated metric and must not grow with the number of ops measured.
class LatencyHistogram {
 public:
  void Add(int64_t ns) {
    ++counts_[Bucket(ns < 0 ? 0 : static_cast<uint64_t>(ns))];
    ++count_;
  }

  uint64_t count() const { return count_; }

  // Nearest-rank percentile, p in [0, 100], as the middle of its bucket.
  // 0 when empty.
  double Percentile(double p) const {
    if (count_ == 0) return 0;
    const double rank = std::ceil(p / 100.0 * static_cast<double>(count_));
    const uint64_t want = rank < 1 ? 1 : static_cast<uint64_t>(rank);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= want) return Middle(i);
    }
    return Middle(kBuckets - 1);
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = kSub + (63 - kSubBits + 1) * kSub;

  static size_t Bucket(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int exp = 63 - __builtin_clzll(v);  // >= kSubBits
    const uint64_t mantissa = (v >> (exp - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(kSub + (exp - kSubBits) * kSub + mantissa);
  }

  static double Middle(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const int shift = static_cast<int>((i - kSub) / kSub);
    const double low = std::ldexp(static_cast<double>(kSub + (i - kSub) % kSub), shift);
    return low + std::ldexp(0.5, shift);
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

// The highest of p50, p90, p99, p99.9 and p99.99 that has at least ten of
// `n` samples beyond it — the deepest tail the sample count supports. 0
// when even p50 is unsupported (n < 20).
inline double SupportedTailPercentile(size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(n) * (1 - p / 100.0) >= 10.0 - 1e-9) best = p;
  }
  return best;
}

// Host and build identity: CPU, core count, kernel, compiler, the engine's
// compiled-in tiers, and the io backend the run chose.
inline std::vector<std::pair<std::string, std::string>> HostFingerprint(
    const std::string& io_backend) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  utsname u{};
  std::string kernel = uname(&u) == 0 ? u.release : "unknown";
  auto yes_no = [](bool b) { return std::string(b ? "yes" : "no"); };
  return {
      {"cpu", cpu},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"kernel", kernel},
      {"compiler", __VERSION__},
#ifdef WALI_BENCH_BUILD_TYPE
      {"build_type", WALI_BENCH_BUILD_TYPE},
#endif
      {"jit_available", yes_no(wasm::JitAvailable())},
      {"threaded_dispatch_available", yes_no(wasm::ThreadedDispatchAvailable())},
      {"io_uring_available", yes_no(host::IoUringAvailable())},
#if defined(HOST_TELEMETRY)
      {"host_telemetry", "on"},
#else
      {"host_telemetry", "off"},
#endif
      {"io_backend", io_backend},
  };
}

}  // namespace wali_bench

#endif  // WALI_BENCH_STATS_H_
