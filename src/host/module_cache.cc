#include "src/host/module_cache.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/host/telemetry.h"
#include "src/wasm/decode.h"
#include "src/wasm/validate.h"
#include "src/wasm/wat_parser.h"

namespace host {

namespace {

bool LooksLikeBinary(const std::string& bytes) {
  return bytes.size() >= 4 && bytes[0] == '\0' && bytes[1] == 'a' &&
         bytes[2] == 's' && bytes[3] == 'm';
}

}  // namespace

ModuleCache::ModuleCache(size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {
  SetTelemetry(nullptr);
}

void ModuleCache::SetTelemetry(Telemetry* tel) {
  tel_ = tel;
  metrics::Registry& reg = SeriesRegistry(tel, own_metrics_);
  c_hits_ = reg.GetCounter("module_cache_hits_total");
  c_misses_ = reg.GetCounter("module_cache_misses_total");
  c_evictions_ = reg.GetCounter("module_cache_evictions_total");
}

uint64_t ModuleCache::ContentHash(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;  // FNV prime
  }
  // Fold the length in so a truncation colliding on the rolling hash still
  // produces a distinct key.
  h ^= static_cast<uint64_t>(len) * 1099511628211ULL;
  return h;
}

common::StatusOr<std::shared_ptr<const wasm::Module>> ModuleCache::Load(
    const std::string& bytes) {
  const uint64_t key = ContentHash(bytes.data(), bytes.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = buckets_.find(key);
    if (it != buckets_.end()) {
      for (Entry& e : it->second) {
        if (e.bytes == bytes) {
          c_hits_->Inc();
          e.last_used = ++tick_;
          return e.module;
        }
      }
    }
  }
  // Decode + validate outside the lock: concurrent misses on distinct
  // modules must not serialize on a single decode.
  common::StatusOr<std::shared_ptr<wasm::Module>> parsed =
      LooksLikeBinary(bytes)
          ? wasm::DecodeModule(reinterpret_cast<const uint8_t*>(bytes.data()),
                               bytes.size())
          : wasm::ParseWat(bytes);
  if (!parsed.ok()) {
    return parsed.status();
  }
  RETURN_IF_ERROR(wasm::Validate(**parsed));
  std::shared_ptr<const wasm::Module> module = std::move(parsed).value();

  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Entry>& bucket = buckets_[key];
    for (Entry& e : bucket) {
      if (e.bytes == bytes) {
        // Another thread decoded the same content while we did; keep its copy
        // so the pool's per-module slot keying stays stable.
        c_hits_->Inc();
        e.last_used = ++tick_;
        return e.module;
      }
    }
    c_misses_->Inc();
    bucket.push_back(Entry{bytes, module, ++tick_});
    ++count_;
    EvictIfNeededLocked();
  }
  if (tel_ != nullptr) {
    // Export the prepare pass's fusion statistics (Module::prepare_stats is
    // their store) as process-wide counters, one fold per decode so
    // repeated Loads of a cached module do not double-count, and register
    // the module for hot-function export. Only a wired Telemetry exports
    // them, and registering the per-op series by name is most of a fold's
    // cost, so an unwired cache skips both.
    metrics::Registry& reg = tel_->registry();
    const wasm::PrepareStats& ps = module->prepare_stats;
    for (uint32_t i = 0; i < wasm::kNumInternalOps; ++i) {
      if (ps.per_op[i] == 0) {
        continue;
      }
      wasm::Op op = static_cast<wasm::Op>(wasm::kFirstInternalOp + i);
      reg.GetCounter(std::string("wasm_superinstructions_emitted_total{op=\"") +
                     wasm::OpName(op) + "\"}")
          ->Add(ps.per_op[i]);
    }
    reg.GetCounter("wasm_direct_call_rewrites_total")->Add(ps.direct_calls);
    char hash_name[32];
    std::snprintf(hash_name, sizeof(hash_name), "mod-%016llx",
                  static_cast<unsigned long long>(key));
    tel_->RegisterModule(!module->name.empty() ? module->name : hash_name,
                         std::weak_ptr<const wasm::Module>(module));
  }
  return module;
}

common::StatusOr<std::shared_ptr<const wasm::Module>> ModuleCache::LoadFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return common::NotFound("cannot read module file: " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return Load(ss.str());
}

void ModuleCache::EvictIfNeededLocked() {
  while (count_ > capacity_) {
    auto victim_bucket = buckets_.end();
    size_t victim_index = 0;
    uint64_t oldest = ~0ULL;
    for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
      for (size_t i = 0; i < it->second.size(); ++i) {
        if (it->second[i].last_used < oldest) {
          oldest = it->second[i].last_used;
          victim_bucket = it;
          victim_index = i;
        }
      }
    }
    if (victim_bucket == buckets_.end()) {
      return;
    }
    victim_bucket->second.erase(victim_bucket->second.begin() + victim_index);
    if (victim_bucket->second.empty()) {
      buckets_.erase(victim_bucket);
    }
    --count_;
    c_evictions_->Inc();
  }
}

ModuleCache::Stats ModuleCache::stats() const {
  Stats s;
  s.hits = c_hits_->value();
  s.misses = c_misses_->value();
  s.evictions = c_evictions_->value();
  std::lock_guard<std::mutex> lock(mu_);
  s.entries = count_;
  return s;
}

}  // namespace host
