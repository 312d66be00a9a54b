#include "src/host/supervisor.h"

#include <signal.h>
#include <unistd.h>

#include "src/common/time_util.h"
#include "src/wali/process_snapshot.h"
#include "src/wali/trace.h"
#include "src/wasm/snapshot.h"

namespace host {

Supervisor::Supervisor(wali::WaliRuntime* runtime, const Options& options)
    : runtime_(runtime),
      pool_(runtime, options.pool),
      clock_(options.clock ? options.clock : [] { return common::MonotonicNanos(); }),
      queue_depth_(options.queue_depth),
      io_(options.io_backend),
      tel_(options.telemetry),
      paused_(options.start_paused) {
  // A host that serves tenants owns the process-wide dispositions. A
  // tenant's write to a broken pipe answers -EPIPE and raises SIGPIPE in
  // the tenant's own table; the kernel's SIGPIPE would end the host.
  ::signal(SIGPIPE, SIG_IGN);
  metrics::Registry& reg = SeriesRegistry(tel_, own_metrics_);
  c_submitted_ = reg.GetCounter("supervisor_jobs_submitted_total");
  for (size_t i = 0; i < kNumOutcomes; ++i) {
    c_outcome_[i] = reg.GetCounter(
        std::string("supervisor_jobs_total{outcome=\"") +
        OutcomeName(static_cast<Outcome>(i)) + "\"}");
  }
  g_queue_depth_ = reg.GetGauge("supervisor_queue_depth");
  h_queue_ = reg.GetHistogram("supervisor_queue_latency_nanos");
  h_run_wall_ = reg.GetHistogram("supervisor_run_wall_nanos");
  h_blocked_ = reg.GetHistogram("supervisor_blocked_nanos");
  h_resume_queue_ = reg.GetHistogram("supervisor_resume_queue_nanos");
  g_in_flight_ = reg.GetGauge("supervisor_in_flight");
  g_in_flight_peak_ = reg.GetGauge("supervisor_in_flight_peak");
  c_parks_ = reg.GetCounter("supervisor_parks_total");
  c_resumes_ = reg.GetCounter("supervisor_resumes_total");
  c_orphans_ = reg.GetCounter("supervisor_orphan_completions_total");
  c_parked_sheds_ = reg.GetCounter("supervisor_parked_sheds_total");
  c_parked_budget_stops_ =
      reg.GetCounter("supervisor_parked_budget_stops_total");
  c_evicts_ = reg.GetCounter("supervisor_evictions_total");
  c_restores_ = reg.GetCounter("supervisor_restores_total");
  g_evicted_now_ = reg.GetGauge("supervisor_evicted_now");
  if (tel_ != nullptr) {
    ledger_.SetTelemetry(tel_);
    pool_.SetTelemetry(tel_);
  }
  if (io_ != nullptr) {
    // Completion side of the park/resume lifecycle: move the parked run to
    // the ready queue and hand it to a worker. Completions for cookies that
    // are no longer parked (shed, shut down) are absorbed as orphans.
    io_->SetCompletionHandler([this](uint64_t cookie, const IoCompletion& c) {
      Telemetry::RunHandle trun;
      int64_t ready_stamp = 0;
      bool found = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = parked_.find(cookie);
        if (it != parked_.end()) {
          ReadyEntry entry;
          entry.st = std::move(it->second);
          entry.completion = c;
          entry.ready_stamp = clock_();
          ready_stamp = entry.ready_stamp;
          trun = entry.st.trun;
          parked_.erase(it);
          ready_.push_back(std::move(entry));
          found = true;
        }
      }
      if (!found) {
        c_orphans_->Inc();
        return;
      }
      if (tel_ != nullptr) {
        tel_->Record(trun, SpanEvent::kIoComplete, ready_stamp);
      }
      cv_.notify_one();
    });
  }
  size_t n = options.workers > 0 ? options.workers : 1;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Supervisor::~Supervisor() { Shutdown(); }

RunReport Supervisor::ControlReport(const GuestJob& job, Outcome outcome,
                                    std::string message) const {
  RunReport r;
  r.outcome = outcome;
  r.tenant = job.tenant;
  r.trap = wasm::TrapKind::kHostError;
  r.trap_message = std::move(message);
  return r;
}

void Supervisor::EndRunTel(Telemetry::RunHandle h, Outcome outcome,
                           uint64_t fuel) {
  c_outcome_[static_cast<size_t>(outcome)]->Inc();
  if (tel_ != nullptr) {
    tel_->EndRun(h, outcome, clock_(), fuel);
  }
}

std::future<RunReport> Supervisor::Submit(GuestJob job) {
  Task task;
  task.job = std::move(job);
  std::future<RunReport> fut = task.done.get_future();
  const std::string tenant = task.job.tenant;
  // Rejected submits count (and open a span) too: counter exactness
  // (per-outcome sum == submissions) depends on every admission attempt
  // being a run.
  c_submitted_->Inc();
  if (tel_ != nullptr) {
    task.trun = tel_->BeginRun(tenant, clock_());
  }

  std::string reject_reason;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      reject_reason = "supervisor is shut down";
    } else {
      TenantQueue& tq = queues_[tenant];
      if (task.job.weight > 0) {
        tq.weight = task.job.weight;
      }
      if (queue_depth_ > 0 && tq.q.size() >= queue_depth_) {
        reject_reason = "admission queue full for tenant '" + tenant + "'";
      } else {
        task.enqueue_nanos = clock_();
        tq.q.push_back(std::move(task));
        if (!tq.in_ring) {
          tq.in_ring = true;
          ring_.push_back(tenant);
        }
      }
    }
  }
  if (!reject_reason.empty()) {
    TenantUsage delta;
    delta.rejected = 1;
    ledger_.Charge(tenant, delta);
    EndRunTel(task.trun, Outcome::kRejected, 0);
    task.done.set_value(
        ControlReport(task.job, Outcome::kRejected, std::move(reject_reason)));
    return fut;
  }
  g_queue_depth_->Add(1);
  cv_.notify_one();
  return fut;
}

std::vector<RunReport> Supervisor::RunAll(std::vector<GuestJob> jobs) {
  std::vector<std::future<RunReport>> futures;
  futures.reserve(jobs.size());
  for (GuestJob& job : jobs) {
    futures.push_back(Submit(std::move(job)));
  }
  // Futures are collected in submission order, so the reports come back in
  // submission order no matter how the scheduler interleaved the runs.
  std::vector<RunReport> reports;
  reports.reserve(futures.size());
  for (std::future<RunReport>& f : futures) {
    reports.push_back(f.get());
  }
  return reports;
}

void Supervisor::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Supervisor::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void Supervisor::Shutdown() {
  // Sweep the parked and ready sets: their guests are suspended in blocking
  // syscalls that may never complete, so shutdown resolves them as shed
  // (with their partial consumption settled) rather than waiting. Queued
  // jobs still drain normally — workers keep popping under stopping_.
  std::vector<uint64_t> cookies;
  std::vector<RunState> abandoned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Already requested; fall through to join whatever is left.
    }
    stopping_ = true;
    for (auto& [cookie, st] : parked_) {
      cookies.push_back(cookie);
      abandoned.push_back(std::move(st));
    }
    parked_.clear();
    while (!ready_.empty()) {
      abandoned.push_back(std::move(ready_.front().st));
      ready_.pop_front();
    }
  }
  if (io_ != nullptr) {
    for (uint64_t cookie : cookies) {
      io_->Cancel(cookie);
    }
  }
  for (RunState& st : abandoned) {
    FinishAbandoned(std::move(st), Outcome::kShed,
                    "shed: supervisor shutdown with syscall parked");
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
  if (io_ != nullptr) {
    // Detach from the backend last: blocks until any in-flight delivery
    // into this supervisor has drained, so the backend can safely outlive
    // or be destroyed independently of us from here on.
    io_->SetCompletionHandler(nullptr);
  }
}

size_t Supervisor::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [tenant, tq] : queues_) {
    n += tq.q.size();
  }
  return n;
}

size_t Supervisor::parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_.size();
}

Supervisor::IoStats Supervisor::io_stats() const {
  IoStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.parked_now = parked_.size();
    s.ready_now = ready_.size();
  }
  s.in_flight_now = static_cast<uint64_t>(g_in_flight_->value());
  s.peak_in_flight = static_cast<uint64_t>(g_in_flight_peak_->value());
  s.parks_total = c_parks_->value();
  s.resumes_total = c_resumes_->value();
  s.orphan_completions = c_orphans_->value();
  s.sheds_while_parked = c_parked_sheds_->value();
  s.budget_stops_while_parked = c_parked_budget_stops_->value();
  s.evicted_now = static_cast<size_t>(g_evicted_now_->value());
  s.evicts_total = c_evicts_->value();
  s.restores_total = c_restores_->value();
  return s;
}

std::vector<uint64_t> Supervisor::parked_cookies() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> cookies;
  cookies.reserve(parked_.size());
  for (const auto& [cookie, st] : parked_) {
    cookies.push_back(cookie);  // map order == cookie order == park order
  }
  return cookies;
}

common::Status Supervisor::EvictParked(uint64_t cookie) {
  // Everything happens under mu_: the completion handler also takes mu_ to
  // move an entry to ready_, so a completion that races this evict either
  // takes the run before we start (NotFound here) or finds it already
  // serialized (ResumeOne restores it). The snapshot's cost under the lock
  // is copying and checksumming the guest's dirty pages; pages it never
  // touched are skipped unread (docs/ARCHITECTURE.md, Snapshot/restore).
  std::lock_guard<std::mutex> lock(mu_);
  auto it = parked_.find(cookie);
  if (it == parked_.end()) {
    return common::NotFound("evict: cookie is not parked");
  }
  RunState& st = it->second;
  if (st.evicted) {
    return common::AlreadyExists("evict: run is already evicted");
  }
  wali::WaliProcess& proc = *st.lease;
  common::StatusOr<std::vector<uint8_t>> snap =
      wali::SnapshotProcess(proc, st.cont);
  if (!snap.ok()) {
    return snap.status();
  }
  st.evicted_snapshot = std::move(*snap);
  // RunOne moved the job's argv/env into the lease; take them back for the
  // restore-time Acquire before the process goes back to the pool.
  st.saved_argv = std::move(proc.argv);
  st.saved_env = std::move(proc.env);
  // The snapshot names the guest's fds by number, so they must stay open:
  // the run takes them over before the slot's release would close them.
  st.evicted_fds = proc.ReleaseGuestFds();
  st.cont.Discard();
  proc.pending_io.Reset();
  // The snapshot holds the guest's pages now. Drop the slab's copy before
  // the slot goes back: the pool keeps idle slots as they were left until
  // an Acquire resets them, so the memory would otherwise be held twice.
  // Zero, not ResetToPages, which keeps a small footprint resident. On
  // failure the slot keeps its pages until that reset.
  if (proc.memory != nullptr) {
    (void)proc.memory->Zero(0, proc.memory->size_bytes());
  }
  st.lease.Release();
  st.evicted = true;
  c_evicts_->Inc();
  g_evicted_now_->Add(1);
  if (tel_ != nullptr) {
    tel_->Record(st.trun, SpanEvent::kEvict, clock_(),
                 st.report.fuel_consumed);
  }
  return common::OkStatus();
}

size_t Supervisor::EvictAllParked() {
  size_t n = 0;
  for (uint64_t cookie : parked_cookies()) {
    if (EvictParked(cookie).ok()) {
      ++n;
    }
  }
  return n;
}

bool Supervisor::RestoreParked(RunState& st) {
  common::StatusOr<InstancePool::Lease> lease = pool_.Acquire(
      st.job.module, std::move(st.saved_argv), std::move(st.saved_env));
  if (!lease.ok()) {
    FinishAbandoned(std::move(st), Outcome::kTrapped,
                    "restore: " + lease.status().ToString());
    return false;
  }
  st.lease = std::move(*lease);
  wali::WaliProcess& proc = *st.lease;
  common::Status restored = wali::RestoreProcess(
      st.evicted_snapshot.data(), st.evicted_snapshot.size(), proc, st.cont);
  if (!restored.ok()) {
    // The fresh lease goes back clean (a failed restore adopts no fds); the
    // run itself is unrecoverable (its only state was the snapshot that
    // just failed to decode), and FinishAbandoned closes the fds it owns.
    st.lease.Release();
    FinishAbandoned(std::move(st), Outcome::kTrapped,
                    "restore: " + restored.ToString());
    return false;
  }
  proc.policy = st.job.policy;
  st.evicted = false;
  wasm::ReleaseSnapshot(st.evicted_snapshot);
  st.evicted_fds.clear();  // re-adopted by the restored process
  c_restores_->Inc();
  g_evicted_now_->Sub(1);
  if (tel_ != nullptr) {
    tel_->Record(st.trun, SpanEvent::kRestore, clock_(),
                 st.report.fuel_consumed);
  }
  return true;
}

bool Supervisor::PopLocked(Task* out, std::vector<Task>* shed) {
  const int64_t now = clock_();
  while (!ring_.empty()) {
    const std::string name = ring_.front();
    TenantQueue& tq = queues_[name];
    // Shedding happens here, at pop time: a job whose deadline expired in
    // the queue is failed without running and without consuming the
    // tenant's scheduling credit.
    while (!tq.q.empty() && tq.q.front().job.deadline_nanos != 0 &&
           now >= tq.q.front().job.deadline_nanos) {
      shed->push_back(std::move(tq.q.front()));
      tq.q.pop_front();
      g_queue_depth_->Sub(1);
    }
    if (tq.q.empty()) {
      ring_.pop_front();
      queues_.erase(name);  // drained: tenant scheduler state is dropped
      continue;
    }
    if (tq.credits == 0) {
      tq.credits = tq.weight > 0 ? tq.weight : 1;
    }
    *out = std::move(tq.q.front());
    tq.q.pop_front();
    g_queue_depth_->Sub(1);
    if (--tq.credits == 0 || tq.q.empty()) {
      // Burst over (or nothing left): rotate this tenant to the back so the
      // next tenant in the ring gets its share.
      ring_.pop_front();
      if (tq.q.empty()) {
        queues_.erase(name);  // drained: tenant scheduler state is dropped
      } else {
        tq.credits = 0;
        ring_.push_back(name);
      }
    }
    return true;
  }
  return false;
}

void Supervisor::WorkerLoop() {
  while (true) {
    Task task;
    std::vector<Task> shed;
    ReadyEntry ready;
    bool got = false;
    bool got_ready = false;
    bool drained = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stopping_ || (!paused_ && (!ready_.empty() || RunnableLocked()));
      });
      // Completed parks resume ahead of fresh admissions: a resumed guest
      // already holds a pool lease and reserved budget slices, so getting
      // it out frees more than admitting new work would.
      if (!paused_ && !ready_.empty()) {
        ready = std::move(ready_.front());
        ready_.pop_front();
        got_ready = true;
      } else {
        got = PopLocked(&task, &shed);
        if (!got && stopping_ && !RunnableLocked() && ready_.empty()) {
          drained = true;
        }
      }
    }
    for (Task& s : shed) {
      TenantUsage delta;
      delta.shed = 1;
      ledger_.Charge(s.job.tenant, delta);
      RunReport r = ControlReport(s.job, Outcome::kShed,
                                  "shed: deadline expired while queued");
      r.queue_nanos = clock_() - s.enqueue_nanos;
      EndRunTel(s.trun, Outcome::kShed, 0);
      s.done.set_value(std::move(r));
    }
    if (got_ready) {
      ResumeOne(std::move(ready));
    } else if (got) {
      RunOne(task);
    } else if (drained) {
      return;  // stopping and nothing left to schedule
    }
  }
}

void Supervisor::RunOne(Task& task) {
  RunState st;
  st.job = std::move(task.job);
  st.done = std::move(task.done);
  st.trun = task.trun;
  GuestJob& job = st.job;
  RunReport& report = st.report;
  report.tenant = job.tenant;
  report.queue_nanos = clock_() - task.enqueue_nanos;
  report.dispatch_seq = dispatch_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  h_queue_->Observe(report.queue_nanos);
  if (tel_ != nullptr) {
    tel_->Record(st.trun, SpanEvent::kDispatch, clock_());
  }

  // Cumulative-budget admission: a tenant over any hard limit is refused
  // before a slot is leased; the refusal still consumed a scheduling slot,
  // which keeps an exhausted tenant from pinning the ring.
  TenantLedger::Verdict verdict = ledger_.Admit(job.tenant);
  if (verdict != TenantLedger::Verdict::kAdmit) {
    TenantUsage delta;
    delta.budget_stops = 1;
    ledger_.Charge(job.tenant, delta);
    RunReport r = ControlReport(
        job, Outcome::kBudget,
        std::string("tenant budget exhausted: ") +
            TenantLedger::VerdictName(verdict));
    r.queue_nanos = report.queue_nanos;
    r.dispatch_seq = report.dispatch_seq;
    EndRunTel(st.trun, Outcome::kBudget, 0);
    st.done.set_value(std::move(r));
    return;
  }

  common::StatusOr<InstancePool::Lease> lease =
      pool_.Acquire(job.module, std::move(job.argv), std::move(job.env));
  if (!lease.ok()) {
    report.outcome = Outcome::kTrapped;
    report.trap = wasm::TrapKind::kHostError;
    report.trap_message = lease.status().ToString();
    // The guest never started, but the tenant did consume a dispatch; keep
    // it visible in the ledger instead of vanishing from telemetry.
    TenantUsage delta;
    delta.host_errors = 1;
    ledger_.Charge(job.tenant, delta);
    EndRunTel(st.trun, Outcome::kTrapped, 0);
    st.done.set_value(std::move(report));
    return;
  }
  st.lease = std::move(*lease);
  wali::WaliProcess& proc = *st.lease;
  report.pooled = st.lease.recycled();
  proc.policy = job.policy;

  g_in_flight_peak_->SetMax(g_in_flight_->Add(1));

  wasm::ExecOptions opts = runtime_->exec_options();
  opts.profile = tel_ != nullptr;
  if (job.fuel != 0) {
    opts.fuel = job.fuel;
  }
  if (job.max_frames != 0) {
    opts.max_frames = job.max_frames;
  }

  // Arm mid-run budget enforcement from the tenant's remaining slices,
  // RESERVED in the ledger up front so concurrent runs of the same tenant
  // split the cumulative budget instead of each taking the whole remainder
  // (SettleSlices swaps the reservation for actual consumption at finish).
  // Fuel rides the interpreter's existing per-instruction check; syscalls
  // trip in the dispatch wrapper; memory is capped at the allocation (grow
  // past the cap fails) with a safepoint backstop; CPU trips at WALI
  // safepoints, armed as a wall-clock deadline, which can only fire early
  // (wall >= cpu), never grant extra time. A park RELEASES the
  // reservation (ParkRun settles consumed-so-far and hands the unconsumed
  // slices back, so a sleeping fleet cannot starve the tenant's runnable
  // jobs); ResumeOne re-reserves fresh slices after its Admit re-check
  // and re-arms fuel/CPU/syscall enforcement from the new grant — blocked
  // wall time is never billed as CPU, and RunState::settled keeps the
  // finish-time settle from double-billing the parked partials.
  st.reserved = ledger_.ReserveSlices(job.tenant, job.fuel);
  if (st.reserved.fuel != 0 && (opts.fuel == 0 || st.reserved.fuel < opts.fuel)) {
    opts.fuel = st.reserved.fuel;
    st.fuel_clamped = true;
  }
  if (st.reserved.cpu_nanos != 0) {
    proc.cpu_deadline_nanos.store(common::MonotonicNanos() + st.reserved.cpu_nanos,
                                  std::memory_order_release);
  }
  if (st.reserved.syscalls != 0) {
    proc.syscall_budget.store(st.reserved.syscalls, std::memory_order_release);
  }
  TenantBudget budget = ledger_.budget(job.tenant);
  if (budget.max_mem_pages != 0) {
    proc.mem_budget_pages.store(budget.max_mem_pages, std::memory_order_release);
    proc.memory->SetGrowBudgetPages(budget.max_mem_pages);
  }

  int64_t cpu0 = common::ThreadCpuNanos();
  int64_t t0 = common::MonotonicNanos();
  wasm::RunResult r =
      runtime_->RunMain(proc, opts, io_ != nullptr ? &st.cont : nullptr);
  report.wall_nanos += common::MonotonicNanos() - t0;
  report.cpu_nanos += common::ThreadCpuNanos() - cpu0;

  if (r.trap == wasm::TrapKind::kSyscallPending) {
    ParkRun(std::move(st));
    return;
  }
  FinishRun(std::move(st), r);
}

void Supervisor::ParkRun(RunState st) {
  wali::WaliProcess& proc = *st.lease;
  RunReport& report = st.report;
  report.parks += 1;
  c_parks_->Inc();
  // Partial instruction tally, so an abandoned park settles real fuel.
  report.executed_instrs = st.cont.susp.ctx != nullptr
                               ? st.cont.susp.ctx->executed + st.cont.start_instrs
                               : report.executed_instrs;
  report.fuel_consumed = report.executed_instrs;

  wali::IoOp op = proc.pending_io.op;
  st.timeout_is_shed = false;

  // Fold the job's queue-style deadline into the parked op: the backend
  // deadline becomes min(op timeout, job deadline), and a kTimedOut
  // completion that stems from the job deadline sheds the parked guest.
  if (st.job.deadline_nanos != 0) {
    int64_t remaining = st.job.deadline_nanos - clock_();
    if (remaining <= 0) {
      FinishAbandoned(std::move(st), Outcome::kShed,
                      "shed: deadline expired entering a blocking syscall");
      return;
    }
    if (op.timeout_nanos < 0 || remaining < op.timeout_nanos) {
      op.timeout_nanos = remaining;
      st.timeout_is_shed = true;
    }
  }

  // Release the run's budget reservation while it sleeps off-worker:
  // settle what it actually consumed so far and hand the unconsumed slices
  // back to the tenant's unreserved pool, so a parked fleet cannot starve
  // the tenant's runnable jobs. ResumeOne re-reserves after its Admit
  // re-check; the finish paths charge totals minus `settled`, so nothing
  // is billed twice.
  {
    TenantUsage sofar;
    sofar.fuel = report.fuel_consumed - st.settled.fuel;
    sofar.cpu_nanos = report.cpu_nanos - st.settled.cpu_nanos;
    // Trace-counted dispatches: same source as the finish-time report (a
    // budget-tripped dispatch never reaches the trace, so this can never
    // run ahead of what Finish* will bill).
    sofar.syscalls = proc.trace.total_calls() - st.settled.syscalls;
    ledger_.SettleSlices(st.job.tenant, st.reserved, sofar);
    st.settled.fuel += sofar.fuel;
    st.settled.cpu_nanos += sofar.cpu_nanos;
    st.settled.syscalls += sofar.syscalls;
    st.reserved = TenantLedger::RunReservation{};
  }

  st.park_stamp = clock_();
  if (tel_ != nullptr) {
    tel_->Record(st.trun, SpanEvent::kPark, st.park_stamp,
                 report.fuel_consumed);
  }
  bool parked = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      uint64_t cookie = next_cookie_++;
      parked_.emplace(cookie, std::move(st));
      parked = true;
      // Submitted under mu_ on purpose: Shutdown's sweep also holds mu_,
      // so it can never run between the emplace and the submit — its
      // Cancel(cookie) always sees an op the backend knows about, and no
      // zombie op outlives the sweep. (Safe lock order: backends take only
      // their own internal mutex in Submit and never call back into the
      // supervisor from it.)
      io_->Submit(cookie, op);
    }
  }
  if (!parked) {
    // Shutdown already swept the parked set; this run must not slip in
    // behind the sweep and wait on a completion nobody will deliver.
    FinishAbandoned(std::move(st), Outcome::kShed,
                    "shed: supervisor shutdown with syscall parked");
  }
}

void Supervisor::ResumeOne(ReadyEntry entry) {
  RunState st = std::move(entry.st);
  const IoCompletion& c = entry.completion;
  // An evicted run exists only as snapshot bytes: rehydrate it into a fresh
  // slot before anything touches the process. Recorded before kResume so
  // the trace reads park -> evict -> io_complete -> restore -> resume.
  if (st.evicted && !RestoreParked(st)) {
    return;  // resolved as kTrapped/kHostError by the restore path
  }
  wali::WaliProcess& proc = *st.lease;
  RunReport& report = st.report;
  const int64_t resume_now = clock_();
  report.blocked_nanos += resume_now - st.park_stamp;
  if (entry.ready_stamp != 0) {
    // The ready -> re-dispatch slice of the blocked time: how long the
    // completed run waited behind other work for a worker.
    report.resume_queue_nanos += resume_now - entry.ready_stamp;
    h_resume_queue_->Observe(resume_now - entry.ready_stamp);
  }
  if (tel_ != nullptr) {
    tel_->Record(st.trun, SpanEvent::kResume, resume_now);
  }
  c_resumes_->Inc();

  // Shed: the job deadline fired while parked (tagged at park time), or the
  // supervisor clock has passed it regardless of what completed.
  const bool deadline_shed =
      (st.timeout_is_shed && c.status == IoCompletion::Status::kTimedOut &&
       !c.has_value) ||
      (st.job.deadline_nanos != 0 && clock_() >= st.job.deadline_nanos);
  if (deadline_shed) {
    c_parked_sheds_->Inc();
    FinishAbandoned(std::move(st), Outcome::kShed,
                    "shed: deadline expired while parked");
    return;
  }

  // Budget re-check: the tenant may have exhausted its cumulative budget
  // (through other runs) while this guest was parked.
  if (ledger_.Admit(st.job.tenant) != TenantLedger::Verdict::kAdmit) {
    c_parked_budget_stops_->Inc();
    FinishAbandoned(std::move(st), Outcome::kBudget,
                    "tenant budget exhausted while parked");
    return;
  }

  // Re-reserve budget slices for the on-worker continuation — the park
  // released this run's reservation back to the tenant's pool. The fresh
  // slices come out of the CURRENT unreserved remainder (concurrent runs
  // may have consumed some while we slept), so the cumulative budget stays
  // hard across park/resume cycles. The suspended interpreter's remaining
  // fuel bounds the demand (the run can never consume more than that), so
  // a resumed run near completion takes a small slice and leaves the rest
  // of the remainder for the tenant's other runs.
  uint64_t fuel_demand = st.job.fuel;
  if (st.cont.susp.ctx != nullptr && st.cont.susp.ctx->opts.fuel != 0) {
    uint64_t remaining =
        st.cont.susp.ctx->opts.fuel - st.cont.susp.ctx->executed;
    fuel_demand = remaining > 0 ? remaining : 1;
  }
  st.reserved = ledger_.ReserveSlices(st.job.tenant, fuel_demand);
  if (st.reserved.fuel != 0 && st.cont.susp.ctx != nullptr) {
    // Tighten the suspended interpreter's fuel to consumed + the new
    // slice, so the re-reserved (possibly smaller) grant is enforced by
    // the same per-instruction mechanism as at first dispatch.
    uint64_t cap = st.cont.susp.ctx->executed + st.reserved.fuel;
    if (st.cont.susp.ctx->opts.fuel == 0 || cap < st.cont.susp.ctx->opts.fuel) {
      st.cont.susp.ctx->opts.fuel = cap;
      st.fuel_clamped = true;
    }
  }
  // Re-arm the CPU deadline from the fresh slice: the deadline is
  // wall-clock-based and the park let wall time pass without consuming
  // CPU, so it restarts from now.
  if (st.reserved.cpu_nanos != 0) {
    proc.cpu_deadline_nanos.store(common::MonotonicNanos() + st.reserved.cpu_nanos,
                                  std::memory_order_release);
  }
  if (st.reserved.syscalls != 0) {
    // The dispatch-wrapper check compares the run's cumulative dispatch
    // counter, so the new grant is "dispatches so far + fresh slice".
    proc.syscall_budget.store(
        proc.run_syscalls.load(std::memory_order_acquire) + st.reserved.syscalls,
        std::memory_order_release);
  }

  int64_t cpu0 = common::ThreadCpuNanos();
  int64_t t0 = common::MonotonicNanos();
  wasm::RunResult r = runtime_->ResumeMain(proc, st.cont, c);
  report.wall_nanos += common::MonotonicNanos() - t0;
  report.cpu_nanos += common::ThreadCpuNanos() - cpu0;

  if (r.trap == wasm::TrapKind::kSyscallPending) {
    ParkRun(std::move(st));
    return;
  }
  FinishRun(std::move(st), r);
}

void Supervisor::FinishRun(RunState st, const wasm::RunResult& r) {
  RunReport& report = st.report;
  report.trap = r.trap;
  report.trap_message = r.trap_message;
  report.executed_instrs = r.executed_instrs;
  report.fuel_consumed = r.executed_instrs;
  if (r.trap == wasm::TrapKind::kExit) {
    report.exit_code = r.exit_code;
  } else if (r.ok() && !r.values.empty()) {
    report.exit_code = static_cast<int32_t>(r.values[0].i32());
  }
  if (r.trap == wasm::TrapKind::kBudgetExhausted ||
      (r.trap == wasm::TrapKind::kFuelExhausted && st.fuel_clamped)) {
    report.outcome = Outcome::kBudget;
  } else if (report.trap == wasm::TrapKind::kNone ||
             report.trap == wasm::TrapKind::kExit) {
    report.outcome = Outcome::kCompleted;
  } else {
    report.outcome = Outcome::kTrapped;
  }
  Finish(std::move(st));
}

void Supervisor::FinishAbandoned(RunState st, Outcome outcome,
                                 std::string message) {
  if (st.evicted) {
    // No live process: the snapshot bytes go with the run, and nobody will
    // re-adopt the fds it took over at eviction.
    wasm::ReleaseSnapshot(st.evicted_snapshot);
    for (int fd : st.evicted_fds) {
      ::close(fd);
    }
  } else {
    // Drop the suspended interpreter state before the lease goes back to
    // the pool: the suspension pins the instance and the slot's exec
    // buffers.
    st.cont.Discard();
    st.lease->pending_io.Reset();
  }
  st.report.outcome = outcome;
  st.report.trap = wasm::TrapKind::kHostError;
  st.report.trap_message = std::move(message);
  Finish(std::move(st));
}

void Supervisor::Finish(RunState st) {
  RunReport& report = st.report;
  // Consumption not yet settled; zero for an evicted run, whose park
  // settled everything it consumed — nothing is re-billed, nothing is lost.
  TenantUsage actual;
  TenantUsage delta;
  if (st.lease) {
    wali::WaliProcess& proc = *st.lease;
    proc.cpu_deadline_nanos.store(0, std::memory_order_release);
    proc.mem_budget_pages.store(0, std::memory_order_release);
    proc.syscall_budget.store(0, std::memory_order_release);
    proc.memory->SetGrowBudgetPages(0);
    report.mem_high_water_pages = proc.memory->high_water_pages();
    const std::vector<wali::SyscallDef>& defs = runtime_->syscalls();
    for (size_t id = 0; id < defs.size(); ++id) {
      uint64_t n = proc.trace.count(static_cast<uint32_t>(id));
      if (n > 0) {
        report.syscall_counts.emplace_back(defs[id].name, n);
        report.total_syscalls += n;
      }
    }
    report.wali_nanos = proc.trace.wali_nanos();
    report.kernel_nanos = proc.trace.kernel_nanos();
    actual.fuel = report.fuel_consumed - st.settled.fuel;
    actual.cpu_nanos = report.cpu_nanos - st.settled.cpu_nanos;
    actual.syscalls = report.total_syscalls - st.settled.syscalls;
    delta.mem_high_water_pages = report.mem_high_water_pages;
  }
  // Settle the reservation against actual consumption, then charge the
  // unreserved dimensions and the outcome.
  ledger_.SettleSlices(st.job.tenant, st.reserved, actual);
  delta.runs = 1;
  if (report.outcome == Outcome::kShed) {
    delta.shed = 1;
  } else if (report.outcome == Outcome::kBudget) {
    delta.budget_stops = 1;
  } else if (report.outcome == Outcome::kTrapped && st.evicted) {
    delta.host_errors = 1;  // the snapshot could not be restored
  }
  ledger_.Charge(st.job.tenant, delta);
  g_in_flight_->Sub(1);
  if (st.evicted) {
    g_evicted_now_->Sub(1);
  }
  h_run_wall_->Observe(report.wall_nanos);
  h_blocked_->Observe(report.blocked_nanos);
  EndRunTel(st.trun, report.outcome, report.fuel_consumed);
  st.done.set_value(std::move(report));
}

void Supervisor::ForgetTenant(const std::string& tenant) {
  std::vector<Task> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queues_.find(tenant);
    if (it != queues_.end()) {
      while (!it->second.q.empty()) {
        dropped.push_back(std::move(it->second.q.front()));
        it->second.q.pop_front();
      }
      queues_.erase(it);
      for (auto rit = ring_.begin(); rit != ring_.end(); ++rit) {
        if (*rit == tenant) {
          ring_.erase(rit);
          break;
        }
      }
    }
  }
  for (Task& t : dropped) {
    g_queue_depth_->Sub(1);
    // Spans close BEFORE the telemetry forget below so the rejected runs do
    // not resurrect the tenant's series row.
    EndRunTel(t.trun, Outcome::kRejected, 0);
    t.done.set_value(ControlReport(t.job, Outcome::kRejected,
                                   "rejected: tenant forgotten"));
  }
  // Ledger retention hook; with telemetry wired it also drops the tenant's
  // metric series and spans.
  ledger_.Forget(tenant);
}

}  // namespace host
