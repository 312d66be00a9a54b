// TenantLedger: cgroup-style cumulative resource accounting per tenant.
//
// A RunReport describes one run and is forgotten when the caller drops it;
// the ledger is what survives — every run the supervisor executes for a
// tenant is charged here (fuel consumed, thread-CPU time, syscalls, memory
// high-water pages), across pool recycles and module changes. Each tenant
// can carry a TenantBudget; Admit() is consulted before a run starts, and
// the remaining fuel / CPU slices are what the supervisor arms on the
// WaliProcess so the budget also stops a run midway, at the same safepoints
// as fuel (ROADMAP: "enforced at safepoints like fuel").
#ifndef SRC_HOST_TENANT_LEDGER_H_
#define SRC_HOST_TENANT_LEDGER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics.h"

namespace host {

class Telemetry;

// Cumulative limits for one tenant; 0 means unlimited for that dimension.
struct TenantBudget {
  uint64_t max_fuel = 0;      // instructions, summed across runs
  int64_t max_cpu_nanos = 0;  // worker thread-CPU time, summed across runs
  uint64_t max_syscalls = 0;  // WALI dispatches, summed across runs
  uint64_t max_mem_pages = 0; // per-run linear-memory high-water cap

  bool Unlimited() const {
    return max_fuel == 0 && max_cpu_nanos == 0 && max_syscalls == 0 &&
           max_mem_pages == 0;
  }
};

// What a tenant has consumed so far. Counter fields accumulate across runs;
// mem_high_water_pages is the max over runs (a level, not a volume).
struct TenantUsage {
  uint64_t runs = 0;
  uint64_t fuel = 0;
  int64_t cpu_nanos = 0;
  uint64_t syscalls = 0;
  uint64_t mem_high_water_pages = 0;
  // Admission-control outcomes, for operators: how often this tenant's work
  // was shed in queue, rejected at submit, stopped by a budget, or failed
  // before the guest started (instantiation / pool errors).
  uint64_t shed = 0;
  uint64_t rejected = 0;
  uint64_t budget_stops = 0;
  uint64_t host_errors = 0;
};

class TenantLedger {
 public:
  // Which budget dimension blocks a tenant from running, if any.
  enum class Verdict : uint8_t { kAdmit = 0, kFuel, kCpu, kSyscalls };

  static const char* VerdictName(Verdict v);

  TenantLedger();

  // Re-points the budget-denial counters
  // (`ledger_denials_total{resource=...}`) at `tel`'s registry (null: back
  // at the ledger's own) and makes Forget also drop the tenant's telemetry
  // series/spans. Not thread-safe against concurrent Admit; call before
  // the ledger is used (the supervisor does it at startup), so nothing
  // counted in the private registry is carried over.
  void SetTelemetry(Telemetry* tel);

  // Replaces the tenant's budget. Usage already accrued is kept: a tenant
  // over a newly lowered budget is simply no longer admitted.
  void SetBudget(const std::string& tenant, const TenantBudget& budget);
  TenantBudget budget(const std::string& tenant) const;

  // Adds `delta` to the tenant's usage: counters are summed,
  // mem_high_water_pages is max-merged. Thread-safe; concurrent charges
  // from any number of workers are lossless.
  void Charge(const std::string& tenant, const TenantUsage& delta);

  TenantUsage usage(const std::string& tenant) const;

  // Pre-run admission check against the cumulative budget. kAdmit when the
  // tenant still has headroom in every limited dimension.
  Verdict Admit(const std::string& tenant) const;

  // Read-only introspection: budget minus consumed usage minus slices
  // currently held by in-flight reservations. Zero when that dimension is
  // unlimited; an exhausted dimension reports 1 unit, never 0 (0 means "no
  // cap" to callers). These do NOT reserve anything — arming mid-run
  // enforcement must go through ReserveSlices, or concurrent runs would
  // each be armed with the full remainder and overshoot the budget N-fold.
  uint64_t RemainingFuel(const std::string& tenant) const;
  int64_t RemainingCpuNanos(const std::string& tenant) const;
  uint64_t RemainingSyscalls(const std::string& tenant) const;

  // What one run was granted of each budgeted dimension (0 = unlimited).
  struct RunReservation {
    uint64_t fuel = 0;
    int64_t cpu_nanos = 0;
    uint64_t syscalls = 0;
  };

  // Atomically takes budget slices for one run out of the UNRESERVED
  // remainder (budget minus consumed minus other runs' live reservations).
  // This is what keeps a cumulative budget hard under the supervisor's own
  // concurrency: N concurrent runs split the remainder instead of each
  // being armed with the full amount and overshooting N-fold. Reservations
  // are tracked separately from usage, so Admit() and usage() see only
  // real consumption while a run is in flight.
  //
  // `fuel_demand` bounds the fuel slice (a run with a per-run fuel cap can
  // never need more), which is what lets several budgeted runs of one
  // tenant proceed in parallel; 0 = demand unknown, take the whole
  // unreserved remainder. A dimension with nothing left unreserved grants
  // a 1-unit slice — the run is dispatched but stops almost immediately
  // with kBudget. Every reservation must be settled exactly once.
  RunReservation ReserveSlices(const std::string& tenant,
                               uint64_t fuel_demand = 0);

  // Releases `reserved` and charges what the run actually consumed (only
  // the fuel / cpu_nanos / syscalls fields of `actual` are read).
  // Unlimited dimensions (reserved 0) are charged by `actual` as-is, so
  // callers use this for every run, budgeted or not.
  void SettleSlices(const std::string& tenant, const RunReservation& reserved,
                    const TenantUsage& actual);

  // Clears accrued usage (e.g. a billing-period rollover); budgets persist.
  void ResetUsage(const std::string& tenant);

  // Drops the tenant entirely (usage AND budget). The ledger never evicts
  // on its own — cumulative accounting must not silently forget — so a
  // host serving an open-ended tenant namespace (tenant ids derived from
  // request identity) must apply its own retention policy through this.
  void Forget(const std::string& tenant);

  // Snapshot of every tenant with usage or a budget, sorted by tenant id.
  std::vector<std::pair<std::string, TenantUsage>> Snapshot() const;

 private:
  struct Entry {
    TenantBudget budget;
    TenantUsage usage;       // consumed only; never includes reservations
    RunReservation reserved; // slices held by in-flight runs, aggregated
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;

  Telemetry* tel_ = nullptr;  // Forget's retention hook only
  metrics::Registry own_metrics_;
  // Denial counters indexed by Verdict (kAdmit's slot stays unused/null).
  metrics::Counter* c_denied_[4] = {nullptr};
};

}  // namespace host

#endif  // SRC_HOST_TENANT_LEDGER_H_
