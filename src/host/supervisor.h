// Supervisor: concurrent multi-tenant WALI hosting on a worker-thread pool,
// behind an admission-controlled, per-tenant fair queue.
//
// Submit enqueues a GuestJob on its tenant's bounded queue (beyond
// Options::queue_depth pending jobs the submit is rejected immediately with
// Outcome::kRejected). Workers pull jobs in weighted-round-robin order
// across tenants: each tenant gets `weight` consecutive slots per ring
// rotation, so under saturation a weight-2 tenant completes twice the runs
// of a weight-1 tenant and no tenant exceeds its share by more than one
// burst. A job whose deadline passes while still queued is shed at pop time
// (Outcome::kShed, zero guest execution).
//
// Each admitted job runs in its own WaliProcess (leased from an
// InstancePool, so warm submissions recycle linear-memory slabs) with a
// per-tenant SyscallPolicy and per-run fuel / frame limits. Every run is
// charged to the TenantLedger (fuel, thread-CPU, syscalls, memory
// high-water); tenants with a TenantBudget are refused once a cumulative
// limit is reached, and a run in progress is stopped at the next safepoint
// when its tenant's remaining fuel or CPU slice runs dry
// (Outcome::kBudget). The outcome of every run is collected into a
// RunReport: exit code or trap, resource consumption, syscall counts from
// the process's SyscallTrace, and wall / WALI / kernel time.
//
// Position in the stack (docs/ARCHITECTURE.md): guest module -> WALI/WASI
// syscall layer -> host supervisor. Every future scaling layer (sharding,
// async syscall batching) drives this interface.
#ifndef SRC_HOST_SUPERVISOR_H_
#define SRC_HOST_SUPERVISOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/host/instance_pool.h"
#include "src/host/io_reactor.h"
#include "src/host/telemetry.h"
#include "src/host/tenant_ledger.h"
#include "src/wali/policy.h"
#include "src/wasm/instance.h"

namespace host {

// One tenant request: which module to run, with what identity and limits.
struct GuestJob {
  std::shared_ptr<const wasm::Module> module;
  std::vector<std::string> argv;
  std::vector<std::string> env;
  // Optional per-tenant syscall policy, consulted before every dispatch.
  std::shared_ptr<wali::SyscallPolicy> policy;
  uint64_t fuel = 0;        // instruction budget; 0 = runtime default
  uint32_t max_frames = 0;  // call-depth cap; 0 = runtime default

  // Admission control. Jobs with the same tenant id share one bounded
  // queue, one scheduler weight, and one ledger account ("" is a valid
  // tenant). weight > 0 updates the tenant's weight; 0 keeps the current
  // one (tenants start at weight 1, and a tenant's weight lasts only while
  // it has queued work — an idle tenant's scheduler state is dropped, so
  // persistent weights must be re-supplied on submit). A nonzero deadline
  // (absolute, on the supervisor's clock) sheds the job if it is still
  // queued at that time.
  std::string tenant;
  uint32_t weight = 0;
  int64_t deadline_nanos = 0;
};

// Outcome (how a submitted job left the supervisor) and OutcomeName live in
// telemetry.h now — the span/series layer is keyed by them — and are
// re-exported here via the include above.

// Everything the host layer knows about one finished guest run.
struct RunReport {
  Outcome outcome = Outcome::kCompleted;
  std::string tenant;
  wasm::TrapKind trap = wasm::TrapKind::kNone;
  std::string trap_message;
  int32_t exit_code = 0;
  uint64_t executed_instrs = 0;
  // Resource consumption, as charged to the TenantLedger.
  uint64_t fuel_consumed = 0;          // == executed_instrs, ledger units
  uint64_t mem_high_water_pages = 0;   // linear-memory peak during the run
  int64_t cpu_nanos = 0;               // worker thread-CPU time (on-worker
                                       // segments only; parked time is free)
  uint64_t total_syscalls = 0;
  // (syscall name, count) for every syscall the guest issued.
  std::vector<std::pair<std::string, uint64_t>> syscall_counts;
  int64_t wall_nanos = 0;    // on-worker wall time (excludes parked time)
  int64_t wali_nanos = 0;    // time inside WALI handlers (exclusive)
  int64_t kernel_nanos = 0;  // time inside the kernel
  int64_t queue_nanos = 0;   // submit -> FIRST dispatch (or shed) latency;
                             // never includes parked/blocked time
  // Time spent parked off-worker in blocking syscalls (park -> resume
  // dispatch, summed over parks, on the supervisor's clock). A sleeping or
  // I/O-bound guest accrues blocked_nanos without holding a worker, so it
  // inflates neither queue_nanos nor cpu_nanos.
  int64_t blocked_nanos = 0;
  // The re-dispatch wait: I/O completion -> a worker picking the run back
  // up, summed over parks. A SUBSET of blocked_nanos — large values mean
  // completions are ready but workers are saturated, which is a scheduling
  // problem, not an I/O one.
  int64_t resume_queue_nanos = 0;
  // How many times the run parked at a syscall boundary (async offload).
  uint64_t parks = 0;
  // Global dispatch order (1-based); 0 for jobs that were never dispatched
  // to a worker (kRejected and kShed).
  uint64_t dispatch_seq = 0;
  bool pooled = false;  // served from a recycled slot

  // The run reached a normal end: fell off main or exited with any code.
  bool completed() const {
    return outcome == Outcome::kCompleted &&
           (trap == wasm::TrapKind::kNone || trap == wasm::TrapKind::kExit);
  }
};

class Supervisor {
 public:
  struct Options {
    size_t workers = 4;  // concurrent guests
    // Max pending jobs per tenant; submits beyond it fail immediately with
    // Outcome::kRejected. 0 = unbounded (no admission control).
    size_t queue_depth = 0;
    // Workers do not pick up jobs until Resume() is called. Lets tests (and
    // batch planners) build up a queue and observe pure scheduling order.
    bool start_paused = false;
    // Scheduler clock used for enqueue stamps and deadline shedding;
    // defaults to common::MonotonicNanos. Tests inject a manual clock here
    // to make shedding deterministic. Mid-run CPU budget enforcement always
    // uses the real monotonic clock.
    std::function<int64_t()> clock;
    // Async syscall offload. Non-null enables the park-at-the-WALI-boundary
    // path: a guest entering a blocking-capable syscall suspends
    // (kSyscallPending) instead of blocking its worker; the op is
    // registered here and the job is parked off-worker until the backend
    // completes it. Null (default) keeps the fully synchronous 1:1 model.
    // Borrowed; must outlive the supervisor's Shutdown. Suspended/resumed
    // runs are bit-identical to blocking runs in instruction counts, fuel,
    // and syscall results (tests/host_io_test.cc holds the line).
    IoBackend* io_backend = nullptr;
    // Observability sink. Non-null puts the supervisor's (and its ledger's
    // and pool's) series in this Telemetry's registry instead of private
    // ones, and turns on what only a wired Telemetry records: span events
    // for every job lifecycle stage, per-tenant series, and interpreter
    // frame-entry profiling. Borrowed; must outlive Shutdown.
    Telemetry* telemetry = nullptr;
    // Where EvictParked writes snapshots ("evict-<cookie>.snap"). Empty
    // (default) keeps the serialized blob in memory — the slab is still
    // released, which is most of a parked guest's footprint; a directory
    // moves even the blob out of the process.
    std::string evict_dir;
    InstancePool::Options pool;
  };

  // `runtime` (and its linker) must outlive the supervisor. The runtime's
  // registry is immutable after construction, so workers share it freely.
  Supervisor(wali::WaliRuntime* runtime, const Options& options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Enqueues a job on its tenant's queue; the future resolves when the
  // guest finishes, is shed, or is rejected. Rejection (queue full,
  // supervisor shut down) resolves the future immediately.
  std::future<RunReport> Submit(GuestJob job);

  // Convenience barrier: submits every job and waits for all reports.
  // Reports are returned in SUBMISSION order, regardless of the order in
  // which the scheduler dispatches or completes them (reports[i] always
  // belongs to jobs[i]); RunReport.dispatch_seq carries the scheduler's
  // actual dispatch order for callers who need it.
  std::vector<RunReport> RunAll(std::vector<GuestJob> jobs);

  // Pauses/resumes job pickup. Already-running guests finish; queued jobs
  // (and deadline shedding, which happens at pop time) wait for Resume.
  void Pause();
  void Resume();

  // Drains the queue (Shutdown overrides Pause), then stops the workers.
  // Idempotent; the destructor calls it. Jobs submitted after Shutdown fail
  // with a kRejected / kHostError report.
  void Shutdown();

  const InstancePool& pool() const { return pool_; }
  TenantLedger& ledger() { return ledger_; }
  const TenantLedger& ledger() const { return ledger_; }
  size_t workers() const { return workers_.size(); }
  // Jobs currently queued across all tenants (excludes running guests).
  size_t queued() const;
  // Jobs currently parked off-worker in a blocking syscall.
  size_t parked() const;

  // Async-offload statistics: a view over the supervisor_* series, plus
  // the parked and ready set sizes. in_flight counts dispatched-but-
  // unfinished jobs (running + parked + awaiting resume); with offload
  // active it can exceed the worker count — that headroom is the whole
  // point.
  struct IoStats {
    size_t parked_now = 0;
    size_t ready_now = 0;           // completions awaiting a worker
    uint64_t in_flight_now = 0;
    uint64_t peak_in_flight = 0;
    uint64_t parks_total = 0;
    uint64_t resumes_total = 0;
    // Completions for cookies no longer parked (guest shed / shut down
    // before its I/O finished). Absorbed, never an error.
    uint64_t orphan_completions = 0;
    uint64_t sheds_while_parked = 0;
    uint64_t budget_stops_while_parked = 0;
    // Snapshot/restore lifecycle (EvictParked / the ResumeOne restore).
    // evicted_now counts runs that exist only as snapshot bytes, parked or
    // with their completion awaiting a worker.
    size_t evicted_now = 0;
    uint64_t evicts_total = 0;
    uint64_t restores_total = 0;
  };
  IoStats io_stats() const;

  // ---- snapshot eviction (memory pressure on the parked set) ----
  //
  // A parked guest holds a pool lease: its linear-memory slab, instance,
  // and suspended interpreter stack stay resident for the whole blocking
  // syscall. EvictParked serializes that state (wali::SnapshotProcess) and
  // releases the lease; the entry stays in `parked_` under its cookie, so
  // the backend completion path is oblivious — when the op completes, the
  // worker that picks the run up restores it into a freshly leased slot
  // before resuming. Billing is untouched: the park already settled
  // consumed-so-far and released the reservation, so an evict/restore
  // cycle adds zero ledger events.
  //
  // Only pure-data parks are evictable: an op whose resume path captured a
  // live retry closure (reads/writes re-issued on the worker) refuses with
  // Unimplemented, and the guest simply stays resident.

  // Cookies of currently parked runs, oldest first (for pressure policies:
  // evict the longest-parked first).
  std::vector<uint64_t> parked_cookies() const;
  // Evicts one parked run by cookie. NotFound if the cookie is not parked
  // (already completed, restored, or never existed); FailedPrecondition /
  // Unimplemented if the park is not serializable; otherwise the snapshot
  // error. On success the run's lease is released (and the blob written to
  // Options::evict_dir when set).
  common::Status EvictParked(uint64_t cookie);
  // Evicts every eligible parked run; returns how many were evicted.
  size_t EvictAllParked();

  // Drops every trace of a tenant: queued jobs are rejected (their futures
  // resolve with Outcome::kRejected), the scheduler ring entry is removed,
  // and the ledger account — and, through the ledger's retention hook, the
  // tenant's telemetry series and spans — are forgotten. Runs already
  // dispatched or parked are NOT stopped; they finish under their own
  // outcome and re-create a fresh ledger/telemetry row.
  void ForgetTenant(const std::string& tenant);

 private:
  struct Task {
    GuestJob job;
    std::promise<RunReport> done;
    int64_t enqueue_nanos = 0;
    Telemetry::RunHandle trun;  // span handle; invalid without telemetry
  };

  // A dispatched run's full in-progress state. Lives on the worker's stack
  // between dispatch and completion for synchronous runs; moves into
  // `parked_` (keyed by backend cookie) while the guest is suspended in a
  // blocking syscall, and back out via `ready_` when the op completes.
  struct RunState {
    GuestJob job;
    std::promise<RunReport> done;
    InstancePool::Lease lease;
    wali::WaliRuntime::MainContinuation cont;
    TenantLedger::RunReservation reserved;
    // Consumption already settled into the ledger by earlier parks of this
    // run. A park RELEASES the reservation (settling consumed-so-far), so
    // a sleeping guest's unused slices go back to the tenant's pool and
    // cannot starve its runnable jobs; resume re-reserves after the Admit
    // re-check. Finish paths charge report totals MINUS this, so nothing
    // is billed twice.
    TenantUsage settled;
    bool fuel_clamped = false;
    RunReport report;  // accumulated across on-worker segments
    // Resume-time syscall closure captured at park (see wali::PendingIo).
    std::function<int64_t()> retry;
    int64_t park_stamp = 0;       // clock_ at park, for blocked_nanos
    // The backend deadline was tightened to the job's deadline, so a
    // kTimedOut completion means "shed the parked guest", not "the
    // syscall's own timeout elapsed".
    bool timeout_is_shed = false;
    Telemetry::RunHandle trun;  // span handle; invalid without telemetry
    // Snapshot eviction (EvictParked): when set, the lease has been
    // released and the run lives only as serialized bytes — in
    // `evicted_snapshot`, or on disk at `evicted_path` when the supervisor
    // has an evict_dir. argv/env are stashed for the restore-time lease
    // (RunOne moved the job's copies into the original lease).
    bool evicted = false;
    std::vector<uint8_t> evicted_snapshot;
    std::string evicted_path;
    std::vector<std::string> saved_argv;
    std::vector<std::string> saved_env;
  };

  struct ReadyEntry {
    RunState st;
    IoCompletion completion;
    // clock_ at completion delivery, for RunReport::resume_queue_nanos (how
    // long the ready run waited for a worker).
    int64_t ready_stamp = 0;
  };

  // Per-tenant scheduler state. Entries exist only while the tenant has
  // queued work: PopLocked erases a drained tenant's entry, so an open
  // tenant namespace (hostile or not) cannot grow this map beyond the jobs
  // actually pending. (Cumulative accounting lives in the TenantLedger,
  // which by design does not self-evict — see TenantLedger::Forget.)
  struct TenantQueue {
    std::deque<Task> q;
    uint32_t weight = 1;
    uint32_t credits = 0;  // remaining slots in the current WRR burst
    bool in_ring = false;
  };

  void WorkerLoop();
  // Weighted-round-robin pop. Returns true with `*out` filled when a
  // runnable task was taken; expired-deadline tasks encountered at queue
  // heads are moved to `*shed` (they do not consume scheduling credit).
  bool PopLocked(Task* out, std::vector<Task>* shed);
  bool RunnableLocked() const { return !ring_.empty(); }
  // Dispatches one task: admission, lease, budget arming, first guest
  // segment. Resolves the promise itself unless the run parks.
  void RunOne(Task& task);
  // Continues a parked run whose op completed: materializes the syscall
  // result and runs the next on-worker segment (which may park again).
  void ResumeOne(ReadyEntry entry);
  // Parks a suspended run: captures the pending op, tightens its deadline
  // to the job's, registers it with the backend. Sheds instead when the
  // deadline already passed or the supervisor is shutting down.
  void ParkRun(RunState st);
  // Finishes a run whose guest returned or trapped: outcome mapping, then
  // the terminal tail.
  void FinishRun(RunState st, const wasm::RunResult& r);
  // Abandons a dispatched run mid-park (shed / budget / shutdown): discards
  // the suspension, then the terminal tail. An evicted run (no lease) just
  // drops its snapshot; kTrapped is an evicted run that cannot be restored.
  void FinishAbandoned(RunState st, Outcome outcome, std::string message);
  // The one terminal tail of a dispatched run, so each series has exactly
  // one update site per terminal path: harvests the process's syscall trace
  // (when the run still holds a lease), settles what earlier parks did not,
  // charges the run and its outcome (an evicted run's trap as a host
  // error), and closes the in-flight gauge, histograms and span before
  // resolving the future.
  void Finish(RunState st);
  // Rehydrates an evicted run into a freshly leased slot (called by
  // ResumeOne before the normal resume flow). On failure the run is
  // resolved as kTrapped/kHostError and false is returned.
  bool RestoreParked(RunState& st);
  // Report for a job that never ran (shed / rejected / budget-refused).
  RunReport ControlReport(const GuestJob& job, Outcome outcome,
                          std::string message) const;
  // Counts a run's outcome and closes its span (kFinish). Exactly once per
  // submitted job, on every terminal path.
  void EndRunTel(Telemetry::RunHandle h, Outcome outcome, uint64_t fuel);

  wali::WaliRuntime* runtime_;
  InstancePool pool_;
  TenantLedger ledger_;
  std::function<int64_t()> clock_;
  size_t queue_depth_;
  IoBackend* io_;
  std::string evict_dir_;
  std::atomic<uint64_t> dispatch_seq_{0};

  // Spans, per-tenant series and profiling; null when none is wired.
  Telemetry* tel_ = nullptr;
  // Series handles, resolved in the constructor from tel_'s registry or,
  // without one, from own_metrics_. Never null after construction;
  // updated outside mu_.
  metrics::Registry own_metrics_;
  metrics::Counter* c_submitted_ = nullptr;
  metrics::Counter* c_outcome_[kNumOutcomes] = {};
  metrics::Gauge* g_queue_depth_ = nullptr;
  metrics::Histogram* h_queue_ = nullptr;
  metrics::Histogram* h_run_wall_ = nullptr;
  metrics::Histogram* h_blocked_ = nullptr;
  metrics::Histogram* h_resume_queue_ = nullptr;
  metrics::Gauge* g_in_flight_ = nullptr;
  metrics::Gauge* g_in_flight_peak_ = nullptr;
  metrics::Counter* c_parks_ = nullptr;
  metrics::Counter* c_resumes_ = nullptr;
  metrics::Counter* c_orphans_ = nullptr;
  metrics::Counter* c_parked_sheds_ = nullptr;
  metrics::Counter* c_parked_budget_stops_ = nullptr;
  metrics::Counter* c_evicts_ = nullptr;
  metrics::Counter* c_restores_ = nullptr;
  metrics::Gauge* g_evicted_now_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, TenantQueue> queues_;
  // Tenants with pending work, in rotation order (front = next scheduled).
  std::deque<std::string> ring_;
  // Runs suspended in a blocking syscall, keyed by backend cookie; moved to
  // ready_ by the completion handler and picked up by workers ahead of
  // fresh queue pops (a resumed guest holds a lease and budget slices — it
  // should leave, not wait behind new admissions).
  std::map<uint64_t, RunState> parked_;
  std::deque<ReadyEntry> ready_;
  uint64_t next_cookie_ = 1;
  bool paused_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace host

#endif  // SRC_HOST_SUPERVISOR_H_
