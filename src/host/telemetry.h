// Telemetry: the host runtime's observability spine (ROADMAP "runtime
// signals": tier-up counters, tail-latency shedding, C10K async I/O all
// read from here).
//
// Three layers, one object:
//
//   * a metrics::Registry of process-wide counters / gauges / histograms.
//     Instrumented subsystems (Supervisor, the io backends, TenantLedger,
//     InstancePool, ModuleCache) resolve their series once at setup and pay
//     one relaxed atomic op per event on the hot path.
//   * a bounded per-run trace-span ring: every guest job's lifecycle —
//     submit → dispatch → park → I/O complete → resume → finish (with the
//     terminal outcome: completed / trapped / shed / rejected / budget) —
//     as timestamped events. Timestamps are CALLER-provided (the supervisor
//     stamps them with its own clock), so under the manual-clock test
//     harness span ordering is fully deterministic.
//   * a per-tenant series table (submitted + per-outcome counts) with
//     bounded cardinality: tenant ids are interned up to Options::
//     max_tenants and overflow shares one "_other" row, and ForgetTenant
//     (driven by TenantLedger::Forget) drops a tenant's series AND spans,
//     so hostile tenant-id churn cannot grow telemetry without bound.
//
// Exports: Prometheus text, a JSON snapshot, a chrome://tracing JSON trace
// (walirun --metrics-dump / --trace-out), and the programmatic
// TakeSnapshot() the tests and benches assert against.
//
// The registry is the only store of a host counter. A component with no
// Telemetry wired keeps the same series in a registry of its own
// (SeriesRegistry below), so its stats() view reads the same numbers
// either way. Spans, per-tenant series and frame-entry profiling stay
// opt-in per supervisor: spans take a mutex per lifecycle event, and
// profiling routes every native JIT call through an out-of-line helper.
#ifndef SRC_HOST_TELEMETRY_H_
#define SRC_HOST_TELEMETRY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/wasm/module.h"

namespace host {

// How a submitted job left the supervisor. Lives here (not supervisor.h)
// because the span/series layer is keyed by it; supervisor.h re-exports it
// by including this header.
enum class Outcome : uint8_t {
  kCompleted = 0,  // ran to a normal end (fell off main or exited)
  kTrapped,        // ran and trapped (or could not be instantiated)
  kShed,           // deadline expired while queued; zero guest execution
  kRejected,       // bounded queue full (or supervisor shut down) at submit
  kBudget,         // tenant budget exhausted, before or during the run
};

inline constexpr size_t kNumOutcomes = 5;

const char* OutcomeName(Outcome o);

// One lifecycle point of one guest run. kFinish carries the outcome; every
// terminal path (completed, trapped, shed, rejected, budget) is a kFinish,
// so each run has exactly one and per-outcome counts sum to submissions.
enum class SpanEvent : uint8_t {
  kSubmit = 0,  // entered the tenant's admission queue (or bounced off it)
  kDispatch,    // first picked up by a worker
  kPark,        // suspended at a blocking syscall, moved off-worker
  kIoComplete,  // the backend completed the parked op (ready, not running)
  kResume,      // a worker picked the completed run back up
  kFinish,      // terminal: outcome + total fuel
  kEvict,       // parked state serialized + slab released (memory pressure)
  kRestore,     // snapshot deserialized into a fresh slab before resume
};

const char* SpanEventName(SpanEvent e);

struct TraceEvent {
  uint64_t run_id = 0;
  uint32_t tenant = 0;  // interned id; resolve via Snapshot::tenant_names
  SpanEvent event = SpanEvent::kSubmit;
  Outcome outcome = Outcome::kCompleted;  // meaningful at kFinish only
  int64_t t_nanos = 0;                    // caller's clock
  uint64_t fuel = 0;  // instructions executed so far (kPark / kFinish)
};

class Telemetry {
 public:
  struct Options {
    size_t span_capacity = 16384;  // events kept; oldest dropped beyond it
    size_t max_tenants = 1024;     // interned ids; overflow shares "_other"
  };

  Telemetry() : Telemetry(Options()) {}
  explicit Telemetry(const Options& options) : opts_(options) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  metrics::Registry& registry() { return registry_; }

  // ---- span lifecycle ----
  // All timestamps are caller-provided (the supervisor passes its scheduler
  // clock), never read from a wall clock here.

  struct RunHandle {
    uint64_t id = 0;
    uint32_t tenant = 0;
    bool valid() const { return id != 0; }
  };

  // Opens a run: interns the tenant, bumps its submitted count, records
  // kSubmit. The handle is carried in the supervisor's per-run state and
  // passed to every later event of the same run.
  RunHandle BeginRun(const std::string& tenant, int64_t t_nanos);

  // Records a mid-life event (kDispatch / kPark / kIoComplete / kResume).
  void Record(RunHandle run, SpanEvent event, int64_t t_nanos,
              uint64_t fuel = 0);

  // Closes a run: records kFinish and bumps the tenant's per-outcome count.
  // Called exactly once per BeginRun, on every terminal path.
  void EndRun(RunHandle run, Outcome outcome, int64_t t_nanos,
              uint64_t fuel = 0);

  // Retention hook (TenantLedger::Forget calls this): drops the tenant's
  // interned id, series row, and every span it still has in the ring. Runs
  // of that tenant still in flight will re-create a fresh row when they
  // finish — same semantics as the ledger's Forget-while-parked behavior.
  void ForgetTenant(const std::string& tenant);

  // Registers a module whose per-function profile counters
  // (wasm::Module::func_profile, filled by the interpreter's frame-entry
  // hooks) should appear in exports and snapshots. Weakly held: an evicted
  // module simply stops being reported.
  void RegisterModule(const std::string& name,
                      std::weak_ptr<const wasm::Module> module);

  // ---- export ----

  struct TenantSeries {
    uint64_t submitted = 0;
    uint64_t outcomes[kNumOutcomes] = {0};
  };

  // One hot function from a registered module's profile (the tier-up
  // signal: a baseline JIT compiles the top of this list first).
  struct HotFunction {
    std::string module;
    std::string func;
    uint64_t entries = 0;
    uint64_t fuel = 0;
  };

  // One function the baseline-JIT tier compiled, from a registered module's
  // per-function slots (the serve-mode "top tiered" list).
  struct TieredFunction {
    std::string module;
    std::string func;
    uint64_t heat = 0;    // frame entries + loop back-edges observed
    uint64_t deopts = 0;  // OSR exits from this function's compiled code
    // Evicted from the tier by the amortized deopt blacklist (frequent
    // deopts with little compiled work between them): the function runs
    // interpreted from now on.
    bool blacklisted = false;
  };

  struct Snapshot {
    metrics::Registry::Snapshot registry;
    std::vector<std::pair<std::string, TenantSeries>> tenants;  // by name
    std::vector<TraceEvent> spans;  // oldest -> newest
    std::map<uint32_t, std::string> tenant_names;  // span id -> tenant
    uint64_t spans_dropped = 0;
    std::vector<HotFunction> hot_functions;  // sorted by entries, desc
    std::vector<TieredFunction> tiered_functions;  // sorted by heat, desc
  };

  Snapshot TakeSnapshot() const;

  // Prometheus text exposition format (counters, gauges, cumulative-bucket
  // histograms, per-tenant series, per-function profile).
  std::string PrometheusText() const;
  // The same snapshot as one JSON object (machine-readable dump).
  std::string JsonText() const;
  // chrome://tracing / Perfetto-compatible trace: per-run "X" slices
  // (queued / run / blocked / resume-wait) reconstructed from the span
  // ring, grouped by tenant (pid) and run (tid).
  std::string ChromeTraceJson() const;

  // Writes `text` to `path` (truncating). False on I/O failure.
  static bool WriteFile(const std::string& path, const std::string& text);

 private:
  uint32_t InternTenantLocked(const std::string& tenant);
  void PushEventLocked(TraceEvent ev);

  Options opts_;
  metrics::Registry registry_;  // has its own lock

  mutable std::mutex mu_;  // guards everything below
  uint64_t next_run_id_ = 1;
  uint32_t next_tenant_id_ = 1;  // 0 is the "_other" overflow row
  std::map<std::string, uint32_t> tenant_ids_;
  std::map<uint32_t, std::string> tenant_names_;
  std::map<uint32_t, TenantSeries> series_;
  std::deque<TraceEvent> spans_;
  uint64_t spans_dropped_ = 0;
  std::vector<std::pair<std::string, std::weak_ptr<const wasm::Module>>>
      modules_;
};

// Where a component's series live: `tel`'s registry when one is wired, else
// the registry the component owns. Components resolve their handles from it
// at construction and again in SetTelemetry, so a handle is never null.
inline metrics::Registry& SeriesRegistry(Telemetry* tel,
                                         metrics::Registry& own) {
  return tel != nullptr ? tel->registry() : own;
}

}  // namespace host

#endif  // SRC_HOST_TELEMETRY_H_
