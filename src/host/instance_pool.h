// InstancePool: recycles WaliProcess slots across guest runs.
//
// A "slot" is a WaliProcess whose linear-memory slab (reserved up-front by
// wasm::Memory, base address fixed) survives the guest that ran in it. On
// acquire, an idle slot for the same module is reset — memory zeroed and
// truncated back to the module's declared min pages, signal table / mmap /
// trace / exit state cleared — and re-instantiated, which skips the
// reservation and decode work of a cold start. Slots are keyed by module
// identity; the pool keeps at most `max_idle_per_module` idle slots per
// module and destroys the rest on release.
#ifndef SRC_HOST_INSTANCE_POOL_H_
#define SRC_HOST_INSTANCE_POOL_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/wali/process.h"
#include "src/wali/runtime.h"

namespace host {

class Telemetry;

class InstancePool {
 public:
  struct Options {
    size_t max_idle_per_module = 8;
    // Cap on idle slots across ALL modules. Idle slots pin their module
    // (and its reserved memory slab) even after a ModuleCache eviction makes
    // the key unreachable, so the total must be bounded: beyond it the
    // least-recently-returned idle slot anywhere is destroyed.
    size_t max_idle_total = 64;
  };

  // A view over the pool's instance_pool_* series, plus the idle count.
  struct Stats {
    uint64_t hits = 0;       // acquires served by recycling an idle slot
    uint64_t misses = 0;     // acquires that built a cold process
    uint64_t drops = 0;      // slots destroyed because the idle list was full
    uint64_t high_water = 0; // max simultaneously leased slots
    // Max linear-memory pages any returned slot had committed during its
    // lease (wasm::Memory::high_water_pages at Return). Sizes the slab a
    // recycled reservation must absorb; also the pool-level view of the
    // per-run mem_high_water_pages the supervisor charges per tenant.
    uint64_t mem_high_water_pages = 0;
    size_t idle = 0;         // currently idle slots across all modules
  };

  // RAII lease on a pooled process; returns the slot to the pool on
  // destruction (after joining any guest threads). Movable, not copyable.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { Release(); }

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    wali::WaliProcess* process() const { return proc_.get(); }
    wali::WaliProcess* operator->() const { return proc_.get(); }
    wali::WaliProcess& operator*() const { return *proc_; }
    explicit operator bool() const { return proc_ != nullptr; }
    // True when this acquire recycled an idle slot instead of a cold build.
    bool recycled() const { return recycled_; }

    // Returns the slot to the pool immediately.
    void Release();

   private:
    friend class InstancePool;
    Lease(InstancePool* pool, std::unique_ptr<wali::WaliProcess> proc,
          bool recycled)
        : pool_(pool), proc_(std::move(proc)), recycled_(recycled) {}

    InstancePool* pool_ = nullptr;
    std::unique_ptr<wali::WaliProcess> proc_;
    bool recycled_ = false;
  };

  explicit InstancePool(wali::WaliRuntime* runtime);
  InstancePool(wali::WaliRuntime* runtime, const Options& options);

  // Leases a ready-to-run process for `module`: a reset idle slot when one
  // exists, a freshly created process otherwise. Thread-safe.
  common::StatusOr<Lease> Acquire(std::shared_ptr<const wasm::Module> module,
                                  std::vector<std::string> argv,
                                  std::vector<std::string> env);

  wali::WaliRuntime* runtime() const { return runtime_; }
  Stats stats() const;

  // Re-points the pool's series at `tel`'s registry (null: back at the
  // pool's own). Call before the first Acquire — the supervisor wires it at
  // startup — so nothing counted in the private registry is carried over.
  void SetTelemetry(Telemetry* tel);

 private:
  void Return(std::unique_ptr<wali::WaliProcess> proc);

  struct IdleSlot {
    std::unique_ptr<wali::WaliProcess> proc;
    uint64_t stamp = 0;  // return order, for global LRU trimming
  };

  void TrimIdleLocked();

  wali::WaliRuntime* runtime_;
  Options options_;
  mutable std::mutex mu_;
  // Idle slots keyed by the module they last ran (slab geometry matches).
  std::map<const wasm::Module*, std::vector<IdleSlot>> idle_;
  uint64_t idle_count_ = 0;
  uint64_t idle_stamp_ = 0;

  metrics::Registry own_metrics_;
  metrics::Counter* c_hits_ = nullptr;
  metrics::Counter* c_misses_ = nullptr;
  metrics::Counter* c_drops_ = nullptr;
  metrics::Gauge* g_leased_ = nullptr;
  metrics::Gauge* g_leased_peak_ = nullptr;
  metrics::Gauge* g_mem_high_water_ = nullptr;
};

}  // namespace host

#endif  // SRC_HOST_INSTANCE_POOL_H_
