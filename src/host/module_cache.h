// ModuleCache: decode/validate/prepare a guest module once, instantiate
// many times.
//
// The hosting layer's cold path (decode + validate + the interpreter's
// prepare pass, which Validate runs: superinstruction fusion and block
// fuel metadata in Function::prepared) dominates per-request startup cost
// once linear memory is pooled, so the cache keys fully validated modules
// by content hash and hands out shared_ptr<const Module> — prepared
// execution code included — for repeated instantiation across tenants. Both
// binary .wasm and textual .wat inputs are accepted (auto-detected). Entries
// are evicted LRU beyond the configured capacity.
#ifndef SRC_HOST_MODULE_CACHE_H_
#define SRC_HOST_MODULE_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/wasm/module.h"

namespace host {

class Telemetry;

class ModuleCache {
 public:
  // A view over the cache's module_cache_* series, plus the entry count.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };

  explicit ModuleCache(size_t capacity = 64);

  // Returns the validated module for `bytes` (binary .wasm if it carries the
  // \0asm magic, otherwise parsed as WAT), decoding at most once per distinct
  // content. Thread-safe.
  common::StatusOr<std::shared_ptr<const wasm::Module>> Load(
      const std::string& bytes);

  // Convenience: reads `path` and calls Load.
  common::StatusOr<std::shared_ptr<const wasm::Module>> LoadFile(
      const std::string& path);

  // 64-bit FNV-1a over the module bytes (the cache key).
  static uint64_t ContentHash(const void* data, size_t len);

  Stats stats() const;

  // Re-points the cache's hit/miss/eviction series at `tel`'s registry
  // (null: back at the cache's own). With `tel` wired, every module decoded
  // from then on also folds its PrepareStats into the per-superinstruction
  // emission counters (wasm_superinstructions_emitted_total{op=...}) and is
  // registered (weakly) for per-function hot-profile export. Call before
  // the first Load, so nothing counted in the private registry is carried
  // over.
  void SetTelemetry(Telemetry* tel);

 private:
  // FNV-1a is fast but not collision-resistant, so a hit must be confirmed
  // against the original bytes: a tenant must never be served another
  // tenant's module off a crafted collision. Colliding contents coexist in
  // the same bucket.
  struct Entry {
    std::string bytes;
    std::shared_ptr<const wasm::Module> module;
    uint64_t last_used = 0;
  };

  void EvictIfNeededLocked();

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t tick_ = 0;
  size_t count_ = 0;
  std::unordered_map<uint64_t, std::vector<Entry>> buckets_;

  Telemetry* tel_ = nullptr;  // fusion export and hot-profile registration
  metrics::Registry own_metrics_;
  metrics::Counter* c_hits_ = nullptr;
  metrics::Counter* c_misses_ = nullptr;
  metrics::Counter* c_evictions_ = nullptr;
};

}  // namespace host

#endif  // SRC_HOST_MODULE_CACHE_H_
