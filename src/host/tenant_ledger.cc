#include "src/host/tenant_ledger.h"

#include "src/host/telemetry.h"

namespace host {

const char* TenantLedger::VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kAdmit: return "admit";
    case Verdict::kFuel: return "fuel";
    case Verdict::kCpu: return "cpu";
    case Verdict::kSyscalls: return "syscalls";
  }
  return "<bad>";
}

TenantLedger::TenantLedger() { SetTelemetry(nullptr); }

void TenantLedger::SetTelemetry(Telemetry* tel) {
  tel_ = tel;
  metrics::Registry& reg = SeriesRegistry(tel, own_metrics_);
  for (Verdict v : {Verdict::kFuel, Verdict::kCpu, Verdict::kSyscalls}) {
    c_denied_[static_cast<size_t>(v)] = reg.GetCounter(
        std::string("ledger_denials_total{resource=\"") + VerdictName(v) +
        "\"}");
  }
}

void TenantLedger::SetBudget(const std::string& tenant,
                             const TenantBudget& budget) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[tenant].budget = budget;
}

TenantBudget TenantLedger::budget(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(tenant);
  return it == entries_.end() ? TenantBudget{} : it->second.budget;
}

void TenantLedger::Charge(const std::string& tenant, const TenantUsage& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantUsage& u = entries_[tenant].usage;
  u.runs += delta.runs;
  u.fuel += delta.fuel;
  u.cpu_nanos += delta.cpu_nanos;
  u.syscalls += delta.syscalls;
  if (delta.mem_high_water_pages > u.mem_high_water_pages) {
    u.mem_high_water_pages = delta.mem_high_water_pages;
  }
  u.shed += delta.shed;
  u.rejected += delta.rejected;
  u.budget_stops += delta.budget_stops;
  u.host_errors += delta.host_errors;
}

TenantUsage TenantLedger::usage(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(tenant);
  return it == entries_.end() ? TenantUsage{} : it->second.usage;
}

TenantLedger::Verdict TenantLedger::Admit(const std::string& tenant) const {
  Verdict verdict = Verdict::kAdmit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(tenant);
    if (it == entries_.end()) {
      return Verdict::kAdmit;
    }
    const TenantBudget& b = it->second.budget;
    const TenantUsage& u = it->second.usage;
    if (b.max_fuel != 0 && u.fuel >= b.max_fuel) {
      verdict = Verdict::kFuel;
    } else if (b.max_cpu_nanos != 0 && u.cpu_nanos >= b.max_cpu_nanos) {
      verdict = Verdict::kCpu;
    } else if (b.max_syscalls != 0 && u.syscalls >= b.max_syscalls) {
      verdict = Verdict::kSyscalls;
    }
  }
  if (verdict != Verdict::kAdmit) {
    c_denied_[static_cast<size_t>(verdict)]->Inc();
  }
  return verdict;
}

namespace {

// Unreserved remainder of one budget dimension: limit minus consumed minus
// live reservations, floored at the 1-unit slice that means "exhausted but
// still distinguishable from unlimited (0)".
uint64_t UnreservedOr1(uint64_t limit, uint64_t used, uint64_t reserved) {
  return used + reserved < limit ? limit - used - reserved : 1;
}

}  // namespace

uint64_t TenantLedger::RemainingFuel(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(tenant);
  if (it == entries_.end() || it->second.budget.max_fuel == 0) {
    return 0;  // unlimited
  }
  return UnreservedOr1(it->second.budget.max_fuel, it->second.usage.fuel,
                       it->second.reserved.fuel);
}

int64_t TenantLedger::RemainingCpuNanos(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(tenant);
  if (it == entries_.end() || it->second.budget.max_cpu_nanos == 0) {
    return 0;  // unlimited
  }
  return static_cast<int64_t>(UnreservedOr1(
      static_cast<uint64_t>(it->second.budget.max_cpu_nanos),
      static_cast<uint64_t>(it->second.usage.cpu_nanos),
      static_cast<uint64_t>(it->second.reserved.cpu_nanos)));
}

uint64_t TenantLedger::RemainingSyscalls(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(tenant);
  if (it == entries_.end() || it->second.budget.max_syscalls == 0) {
    return 0;  // unlimited
  }
  return UnreservedOr1(it->second.budget.max_syscalls,
                       it->second.usage.syscalls,
                       it->second.reserved.syscalls);
}

TenantLedger::RunReservation TenantLedger::ReserveSlices(
    const std::string& tenant, uint64_t fuel_demand) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(tenant);
  RunReservation res;
  if (it == entries_.end()) {
    return res;  // no budget: nothing to reserve
  }
  const TenantBudget& b = it->second.budget;
  const TenantUsage& u = it->second.usage;
  RunReservation& held = it->second.reserved;
  if (b.max_fuel != 0) {
    res.fuel = UnreservedOr1(b.max_fuel, u.fuel, held.fuel);
    // A run with a per-run fuel cap can never consume more than it, so a
    // bounded demand leaves the rest of the remainder for concurrent runs.
    if (fuel_demand != 0 && fuel_demand < res.fuel) {
      res.fuel = fuel_demand;
    }
    held.fuel += res.fuel;
  }
  if (b.max_cpu_nanos != 0) {
    res.cpu_nanos = static_cast<int64_t>(
        UnreservedOr1(static_cast<uint64_t>(b.max_cpu_nanos),
                      static_cast<uint64_t>(u.cpu_nanos),
                      static_cast<uint64_t>(held.cpu_nanos)));
    held.cpu_nanos += res.cpu_nanos;
  }
  if (b.max_syscalls != 0) {
    res.syscalls = UnreservedOr1(b.max_syscalls, u.syscalls, held.syscalls);
    held.syscalls += res.syscalls;
  }
  return res;
}

void TenantLedger::SettleSlices(const std::string& tenant,
                                const RunReservation& reserved,
                                const TenantUsage& actual) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[tenant];
  // The subtraction guards cover a Forget/re-create between reserve and
  // settle: never underflow below zero.
  e.reserved.fuel =
      e.reserved.fuel >= reserved.fuel ? e.reserved.fuel - reserved.fuel : 0;
  e.reserved.cpu_nanos = e.reserved.cpu_nanos >= reserved.cpu_nanos
                             ? e.reserved.cpu_nanos - reserved.cpu_nanos
                             : 0;
  e.reserved.syscalls = e.reserved.syscalls >= reserved.syscalls
                            ? e.reserved.syscalls - reserved.syscalls
                            : 0;
  e.usage.fuel += actual.fuel;
  e.usage.cpu_nanos += actual.cpu_nanos;
  e.usage.syscalls += actual.syscalls;
}

void TenantLedger::ResetUsage(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(tenant);
  if (it != entries_.end()) {
    it->second.usage = TenantUsage{};
  }
}

void TenantLedger::Forget(const std::string& tenant) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(tenant);
  }
  // Retention propagates: the ledger's Forget is the one retention hook the
  // host stack exposes, so telemetry's per-tenant series/spans ride it.
  if (tel_ != nullptr) {
    tel_->ForgetTenant(tenant);
  }
}

std::vector<std::pair<std::string, TenantUsage>> TenantLedger::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, TenantUsage>> out;
  out.reserve(entries_.size());
  for (const auto& [tenant, entry] : entries_) {
    out.emplace_back(tenant, entry.usage);
  }
  return out;
}

}  // namespace host
