#include "src/host/instance_pool.h"

#include <utility>

#include "src/host/telemetry.h"

namespace host {

InstancePool::Lease& InstancePool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    proc_ = std::move(other.proc_);
    recycled_ = other.recycled_;
    other.pool_ = nullptr;
    other.recycled_ = false;
  }
  return *this;
}

void InstancePool::Lease::Release() {
  if (pool_ != nullptr && proc_ != nullptr) {
    pool_->Return(std::move(proc_));
  }
  pool_ = nullptr;
  proc_.reset();
}

InstancePool::InstancePool(wali::WaliRuntime* runtime)
    : InstancePool(runtime, Options()) {}

InstancePool::InstancePool(wali::WaliRuntime* runtime, const Options& options)
    : runtime_(runtime), options_(options) {
  SetTelemetry(nullptr);
}

void InstancePool::SetTelemetry(Telemetry* tel) {
  metrics::Registry& reg = SeriesRegistry(tel, own_metrics_);
  c_hits_ = reg.GetCounter("instance_pool_hits_total");
  c_misses_ = reg.GetCounter("instance_pool_misses_total");
  c_drops_ = reg.GetCounter("instance_pool_drops_total");
  g_leased_ = reg.GetGauge("instance_pool_leased");
  g_leased_peak_ = reg.GetGauge("instance_pool_leased_peak");
  g_mem_high_water_ = reg.GetGauge("instance_pool_mem_high_water_pages");
}

common::StatusOr<InstancePool::Lease> InstancePool::Acquire(
    std::shared_ptr<const wasm::Module> module, std::vector<std::string> argv,
    std::vector<std::string> env) {
  std::unique_ptr<wali::WaliProcess> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = idle_.find(module.get());
    if (it != idle_.end() && !it->second.empty()) {
      slot = std::move(it->second.back().proc);
      it->second.pop_back();
      --idle_count_;
      if (it->second.empty()) {
        idle_.erase(it);
      }
    }
  }

  bool recycled = false;
  if (slot != nullptr) {
    // Pass copies: a failed reset must not consume the caller's argv/env,
    // which the cold-build fallback below still needs.
    common::Status reset = runtime_->ResetProcess(*slot, module, argv, env);
    if (reset.ok()) {
      recycled = true;
    } else {
      // A slot that cannot be recycled is destroyed; fall back to a cold
      // build rather than failing the acquire.
      slot.reset();
    }
  }
  if (slot == nullptr) {
    ASSIGN_OR_RETURN(slot, runtime_->CreateProcess(module, std::move(argv),
                                                   std::move(env)));
  }

  (recycled ? c_hits_ : c_misses_)->Inc();
  g_leased_peak_->SetMax(g_leased_->Add(1));
  return Lease(this, std::move(slot), recycled);
}

void InstancePool::Return(std::unique_ptr<wali::WaliProcess> proc) {
  // Guests may have spawned instance-per-thread clones; the slab cannot be
  // recycled while any of them still runs.
  proc->JoinThreads();
  // Release the finished tenant's fds now, not at the next recycle: an idle
  // slot must not hold files locked or sockets half-open indefinitely.
  proc->fds.CloseAll();
  const wasm::Module* key = proc->module.get();
  if (proc->memory != nullptr) {
    g_mem_high_water_->SetMax(
        static_cast<int64_t>(proc->memory->high_water_pages()));
  }
  g_leased_->Sub(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (key == nullptr) {
    c_drops_->Inc();
    return;  // mid-reset corpse; nothing worth keeping
  }
  std::vector<IdleSlot>& list = idle_[key];
  if (list.size() >= options_.max_idle_per_module) {
    c_drops_->Inc();
    return;  // unique_ptr destroys the slot
  }
  list.push_back(IdleSlot{std::move(proc), ++idle_stamp_});
  ++idle_count_;
  TrimIdleLocked();
}

void InstancePool::TrimIdleLocked() {
  while (idle_count_ > options_.max_idle_total) {
    auto victim_key = idle_.end();
    size_t victim_index = 0;
    uint64_t oldest = ~0ULL;
    for (auto it = idle_.begin(); it != idle_.end(); ++it) {
      for (size_t i = 0; i < it->second.size(); ++i) {
        if (it->second[i].stamp < oldest) {
          oldest = it->second[i].stamp;
          victim_key = it;
          victim_index = i;
        }
      }
    }
    if (victim_key == idle_.end()) {
      return;
    }
    victim_key->second.erase(victim_key->second.begin() + victim_index);
    if (victim_key->second.empty()) {
      idle_.erase(victim_key);
    }
    --idle_count_;
    c_drops_->Inc();
  }
}

InstancePool::Stats InstancePool::stats() const {
  Stats s;
  s.hits = c_hits_->value();
  s.misses = c_misses_->value();
  s.drops = c_drops_->value();
  s.high_water = static_cast<uint64_t>(g_leased_peak_->value());
  s.mem_high_water_pages = static_cast<uint64_t>(g_mem_high_water_->value());
  std::lock_guard<std::mutex> lock(mu_);
  s.idle = idle_count_;
  return s;
}

}  // namespace host
