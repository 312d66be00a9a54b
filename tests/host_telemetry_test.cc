// Telemetry subsystem under the deterministic supervisor harness: span
// ordering across park/resume on a manual clock, counter exactness (every
// submitted job ends in exactly one outcome), tenant retention (Forget
// drops series AND spans), resume-queue latency attribution, IoStats/io_*
// consistency under a concurrent completion storm (the TSan CI job runs
// this), stats views equal to their series with or without a Telemetry
// wired, export formats, and interpreter hot-function profiling.
//
// Every test constructs its own Telemetry instance, so assertions can
// demand exact counts without cross-test bleed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/host/host.h"
#include "src/host/telemetry.h"
#include "tests/wali_test_util.h"

namespace {

constexpr int64_t kMs = 1000000;

std::string WrapModule(const std::string& body) {
  return std::string("(module ") + wali_test::kPrelude + body + ")";
}

// Sleeps 50ms once, does a little compute, exits 42.
const char* kSleeperGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $i i32)
    (i64.store (i32.const 512) (i64.const 0))
    (i64.store (i32.const 520) (i64.const 50000000))
    (drop (call $nanosleep (i64.const 512) (i64.const 0)))
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 100)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (i32.const 42))
)";

// Pure compute, no syscalls: deterministic fuel, completes immediately.
const char* kBurnGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $i i32)
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 20000)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (i32.const 0))
)";

// Traps on its first instruction.
const char* kTrapGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    unreachable)
)";

struct ManualClock {
  std::shared_ptr<std::atomic<int64_t>> now =
      std::make_shared<std::atomic<int64_t>>(0);

  std::function<int64_t()> fn() const {
    auto n = now;
    return [n] { return n->load(std::memory_order_acquire); };
  }
  void Advance(int64_t nanos) { now->fetch_add(nanos, std::memory_order_acq_rel); }
};

// Same shape as host_io_test's IoWorld, plus the telemetry sink. Members
// are ordered so the supervisor (declared last) shuts down first, while the
// backend and the telemetry it still references are alive.
struct TelWorld {
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wali::WaliRuntime> runtime;
  std::unique_ptr<host::ModuleCache> cache;
  std::unique_ptr<host::Telemetry> tel;
  std::unique_ptr<host::FakeIoBackend> fake =
      std::make_unique<host::FakeIoBackend>();
  ManualClock clock;
  std::unique_ptr<host::Supervisor> sup;
};

// `wired` = false builds the same world with the Telemetry left unwired:
// every component keeps its series in a registry of its own.
TelWorld MakeTelWorld(size_t workers, bool with_backend = true,
                      host::Telemetry::Options topts = {},
                      size_t queue_depth = 0, bool start_paused = false,
                      bool wired = true) {
  TelWorld w;
  w.linker = std::make_unique<wasm::Linker>();
  w.runtime = std::make_unique<wali::WaliRuntime>(w.linker.get());
  w.cache = std::make_unique<host::ModuleCache>();
  w.tel = std::make_unique<host::Telemetry>(topts);
  host::Telemetry* tel = wired ? w.tel.get() : nullptr;
  w.cache->SetTelemetry(tel);
  host::Supervisor::Options opts;
  opts.workers = workers;
  opts.queue_depth = queue_depth;
  opts.start_paused = start_paused;
  opts.clock = w.clock.fn();
  opts.pool.max_idle_per_module = workers;
  opts.telemetry = tel;
  if (with_backend) {
    w.fake->SetTelemetry(tel);
    opts.io_backend = w.fake.get();
  }
  w.sup = std::make_unique<host::Supervisor>(w.runtime.get(), opts);
  return w;
}

host::GuestJob MakeJob(std::shared_ptr<const wasm::Module> module,
                       const std::string& tenant, int64_t deadline = 0) {
  host::GuestJob job;
  job.module = module;
  job.argv = {tenant};
  job.tenant = tenant;
  job.deadline_nanos = deadline;
  return job;
}

bool WaitForPending(const host::FakeIoBackend& fake, size_t n,
                    int timeout_ms = 10000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (fake.pending() == n) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return fake.pending() == n;
}

uint64_t CounterValue(const host::Telemetry::Snapshot& s,
                      const std::string& name) {
  for (const auto& [n, v] : s.registry.counters) {
    if (n == name) return v;
  }
  return 0;
}

int64_t GaugeValue(const host::Telemetry::Snapshot& s,
                   const std::string& name) {
  for (const auto& [n, v] : s.registry.gauges) {
    if (n == name) return v;
  }
  return 0;
}

const metrics::Registry::HistogramSnapshot* FindHistogram(
    const host::Telemetry::Snapshot& s, const std::string& name) {
  for (const auto& h : s.registry.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// Events of one run, in ring (= recording) order.
std::vector<host::TraceEvent> RunEvents(const host::Telemetry::Snapshot& s,
                                        uint64_t run_id) {
  std::vector<host::TraceEvent> out;
  for (const host::TraceEvent& e : s.spans) {
    if (e.run_id == run_id) out.push_back(e);
  }
  return out;
}

TEST(HostTelemetry, SpanOrderingAcrossParkResume) {
  // Every lifecycle stage of a parked run lands as a span event with the
  // supervisor's (manual) clock, so submit <= dispatch <= park <=
  // io_complete <= resume <= finish holds with EXACT timestamps.
  TelWorld w = MakeTelWorld(1, /*with_backend=*/true, {}, /*queue_depth=*/0,
                            /*start_paused=*/true);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  w.clock.Advance(1 * kMs);
  w.sup->Resume();  // dispatch at t=1ms
  ASSERT_TRUE(WaitForPending(*w.fake, 1));  // park also at t=1ms
  w.sup->Pause();
  w.clock.Advance(2 * kMs);
  w.fake->AdvanceBy(50 * kMs);  // io_complete at t=3ms (workers paused)
  w.clock.Advance(3 * kMs);
  w.sup->Resume();  // resume + finish at t=6ms
  host::RunReport r = fut.get();
  ASSERT_TRUE(r.completed()) << r.trap_message;

  host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
  ASSERT_FALSE(s.spans.empty());
  std::vector<host::TraceEvent> ev = RunEvents(s, s.spans[0].run_id);
  ASSERT_EQ(ev.size(), 6u);
  EXPECT_EQ(ev[0].event, host::SpanEvent::kSubmit);
  EXPECT_EQ(ev[1].event, host::SpanEvent::kDispatch);
  EXPECT_EQ(ev[2].event, host::SpanEvent::kPark);
  EXPECT_EQ(ev[3].event, host::SpanEvent::kIoComplete);
  EXPECT_EQ(ev[4].event, host::SpanEvent::kResume);
  EXPECT_EQ(ev[5].event, host::SpanEvent::kFinish);
  EXPECT_EQ(ev[0].t_nanos, 0);
  EXPECT_EQ(ev[1].t_nanos, 1 * kMs);
  EXPECT_EQ(ev[2].t_nanos, 1 * kMs);
  EXPECT_EQ(ev[3].t_nanos, 3 * kMs);
  EXPECT_EQ(ev[4].t_nanos, 6 * kMs);
  EXPECT_EQ(ev[5].t_nanos, 6 * kMs);
  for (size_t i = 1; i < ev.size(); ++i) {
    EXPECT_LE(ev[i - 1].t_nanos, ev[i].t_nanos);
  }
  EXPECT_EQ(ev[5].outcome, host::Outcome::kCompleted);
  EXPECT_GT(ev[2].fuel, 0u) << "park carries partial fuel";
  EXPECT_GE(ev[5].fuel, ev[2].fuel);
  // The tenant resolves by name.
  ASSERT_NE(s.tenant_names.find(ev[0].tenant), s.tenant_names.end());
  EXPECT_EQ(s.tenant_names.at(ev[0].tenant), "t");
}

TEST(HostTelemetry, CounterExactnessAcrossAllOutcomes) {
  // Sum of per-outcome counters == jobs submitted, with every one of the
  // five outcomes represented. One worker, bounded queue, paused pickup so
  // admission decisions are deterministic.
  TelWorld w = MakeTelWorld(1, /*with_backend=*/false, {}, /*queue_depth=*/4,
                            /*start_paused=*/true);
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok()) << burner.status().ToString();
  auto trapper = w.cache->Load(WrapModule(kTrapGuest));
  ASSERT_TRUE(trapper.ok()) << trapper.status().ToString();

  host::TenantBudget broke;
  broke.max_fuel = 1;  // the budget tenant's run stops almost immediately
  w.sup->ledger().SetBudget("broke", broke);

  std::vector<std::future<host::RunReport>> futs;
  futs.push_back(w.sup->Submit(MakeJob(*burner, "t")));                 // completed
  futs.push_back(w.sup->Submit(MakeJob(*burner, "t", /*ddl=*/5 * kMs)));  // shed
  futs.push_back(w.sup->Submit(MakeJob(*trapper, "t")));                // trapped
  futs.push_back(w.sup->Submit(MakeJob(*burner, "t")));                 // completed
  // Queue (depth 4) is now full for "t": the next two bounce.
  futs.push_back(w.sup->Submit(MakeJob(*burner, "t")));                 // rejected
  futs.push_back(w.sup->Submit(MakeJob(*burner, "t")));                 // rejected
  futs.push_back(w.sup->Submit(MakeJob(*burner, "broke")));             // budget

  w.clock.Advance(10 * kMs);  // expires the 5ms deadline while still queued
  w.sup->Resume();
  int completed = 0, trapped = 0, shed = 0, rejected = 0, budget = 0;
  for (auto& f : futs) {
    switch (f.get().outcome) {
      case host::Outcome::kCompleted: ++completed; break;
      case host::Outcome::kTrapped: ++trapped; break;
      case host::Outcome::kShed: ++shed; break;
      case host::Outcome::kRejected: ++rejected; break;
      case host::Outcome::kBudget: ++budget; break;
    }
  }
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(trapped, 1);
  EXPECT_EQ(shed, 1);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(budget, 1);

  host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
  EXPECT_EQ(CounterValue(s, "supervisor_jobs_submitted_total"), 7u);
  uint64_t outcome_sum = 0;
  for (size_t i = 0; i < host::kNumOutcomes; ++i) {
    outcome_sum += CounterValue(
        s, std::string("supervisor_jobs_total{outcome=\"") +
               host::OutcomeName(static_cast<host::Outcome>(i)) + "\"}");
  }
  EXPECT_EQ(outcome_sum, 7u) << "every submitted job ends in exactly one outcome";
  EXPECT_EQ(CounterValue(s, "supervisor_jobs_total{outcome=\"completed\"}"), 2u);
  EXPECT_EQ(CounterValue(s, "supervisor_jobs_total{outcome=\"rejected\"}"), 2u);
  EXPECT_EQ(GaugeValue(s, "supervisor_queue_depth"), 0);

  // Per-tenant series agree, and every span run closed with one kFinish.
  uint64_t tenant_submitted = 0, tenant_outcomes = 0;
  for (const auto& [name, series] : s.tenants) {
    tenant_submitted += series.submitted;
    for (size_t i = 0; i < host::kNumOutcomes; ++i) {
      tenant_outcomes += series.outcomes[i];
    }
  }
  EXPECT_EQ(tenant_submitted, 7u);
  EXPECT_EQ(tenant_outcomes, 7u);
  int submits = 0, finishes = 0;
  for (const host::TraceEvent& e : s.spans) {
    submits += e.event == host::SpanEvent::kSubmit;
    finishes += e.event == host::SpanEvent::kFinish;
  }
  EXPECT_EQ(submits, 7);
  EXPECT_EQ(finishes, 7);
  // The trap surfaced in the ledger's denial counters? No — traps are not
  // denials; the fuel-slice stop for "broke" is:
  EXPECT_GE(CounterValue(s, "ledger_denials_total{resource=\"fuel\"}") +
                CounterValue(s, "supervisor_jobs_total{outcome=\"budget\"}"),
            1u);
}

TEST(HostTelemetry, ForgetDropsSeriesAndSpans) {
  // Mirrors the ledger retention test: Supervisor::ForgetTenant (and the
  // TenantLedger::Forget it delegates to) must drop the tenant's metric
  // series and every span it still has in the ring — queued jobs reject,
  // other tenants are untouched.
  TelWorld w = MakeTelWorld(1, /*with_backend=*/false);
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  EXPECT_TRUE(w.sup->Submit(MakeJob(*burner, "gone")).get().completed());
  EXPECT_TRUE(w.sup->Submit(MakeJob(*burner, "kept")).get().completed());
  {
    host::Telemetry::Snapshot before = w.tel->TakeSnapshot();
    EXPECT_EQ(before.tenants.size(), 2u);
    EXPECT_FALSE(before.spans.empty());
  }

  // A job still queued when the tenant is forgotten resolves as rejected.
  w.sup->Pause();
  std::future<host::RunReport> queued = w.sup->Submit(MakeJob(*burner, "gone"));
  w.sup->ForgetTenant("gone");
  EXPECT_EQ(queued.get().outcome, host::Outcome::kRejected);
  w.sup->Resume();

  host::Telemetry::Snapshot after = w.tel->TakeSnapshot();
  ASSERT_EQ(after.tenants.size(), 1u);
  EXPECT_EQ(after.tenants[0].first, "kept");
  EXPECT_EQ(after.tenants[0].second.submitted, 1u);
  for (const host::TraceEvent& e : after.spans) {
    auto it = after.tenant_names.find(e.tenant);
    if (it != after.tenant_names.end()) {
      EXPECT_NE(it->second, "gone") << "forgotten tenant's spans must be gone";
    }
  }
  // The ledger agrees (same retention hook).
  EXPECT_EQ(w.sup->ledger().usage("gone").runs, 0u);
}

TEST(HostTelemetry, ResumeQueueNanosIsCompletionToRedispatch) {
  // resume_queue_nanos isolates "completion delivered -> worker re-dispatch"
  // from total blocked time: park at t=0, completion at t=3ms (workers
  // paused), re-dispatch at t=8ms => blocked 8ms, of which 5ms resume-queue.
  TelWorld w = MakeTelWorld(1);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok());

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));  // parked at t=0
  w.sup->Pause();
  w.clock.Advance(3 * kMs);
  w.fake->AdvanceBy(50 * kMs);  // ready_stamp = 3ms; no worker may take it
  w.clock.Advance(5 * kMs);
  w.sup->Resume();  // re-dispatch at t=8ms

  host::RunReport r = fut.get();
  ASSERT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.blocked_nanos, 8 * kMs);
  EXPECT_EQ(r.resume_queue_nanos, 5 * kMs);

  host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
  const metrics::Registry::HistogramSnapshot* h =
      FindHistogram(s, "supervisor_resume_queue_nanos");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->sum, 5 * kMs);
}

TEST(HostTelemetry, IoStatsAndCountersConsistentUnderCompletionStorm) {
  // Concurrent park/complete storm (drive this under TSan): scripted
  // completions from one thread race the manual-clock advancer and
  // snapshot readers; afterwards every io_* series balances exactly, and a
  // shutdown with parked guests accounts its cancellations.
  TelWorld w = MakeTelWorld(4);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok());

  constexpr size_t kRuns = 12;
  std::vector<std::future<host::RunReport>> futs;
  for (size_t i = 0; i < kRuns; ++i) {
    futs.push_back(w.sup->Submit(MakeJob(*module, "t" + std::to_string(i % 3))));
  }
  ASSERT_TRUE(WaitForPending(*w.fake, kRuns));
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  ASSERT_EQ(cookies.size(), kRuns);

  std::thread completer([&] {
    for (size_t i = 0; i < cookies.size() / 2; ++i) {
      w.fake->CompleteWithResult(cookies[i], 0);
    }
  });
  std::thread advancer([&] {
    for (int i = 0; i < 10; ++i) {
      w.fake->AdvanceBy(5 * kMs);  // 50ms total: the rest complete by timer
    }
  });
  std::thread reader([&] {
    for (int i = 0; i < 50; ++i) {
      (void)w.sup->io_stats();
      host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
      EXPECT_LE(GaugeValue(s, "io_in_flight{io_backend=\"fake\"}"), static_cast<int64_t>(kRuns));
    }
  });
  completer.join();
  advancer.join();
  reader.join();
  for (auto& f : futs) {
    EXPECT_TRUE(f.get().completed());
  }

  host::Supervisor::IoStats io = w.sup->io_stats();
  EXPECT_EQ(io.parks_total, kRuns);
  EXPECT_EQ(io.resumes_total, kRuns);
  EXPECT_EQ(io.in_flight_now, 0u);
  {
    host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
    EXPECT_EQ(CounterValue(s, "io_submits_total{io_backend=\"fake\"}"), kRuns);
    EXPECT_EQ(CounterValue(s, "io_completions_total{io_backend=\"fake\"}"), kRuns);
    EXPECT_EQ(CounterValue(s, "io_cancels_total{io_backend=\"fake\"}"), 0u);
    EXPECT_EQ(GaugeValue(s, "io_in_flight{io_backend=\"fake\"}"), 0);
  }

  // Shutdown with guests still parked cancels their ops; the io_* series
  // keep balancing: submits == completions + cancels, in-flight back to 0.
  std::future<host::RunReport> parked1 = w.sup->Submit(MakeJob(*module, "t0"));
  std::future<host::RunReport> parked2 = w.sup->Submit(MakeJob(*module, "t1"));
  ASSERT_TRUE(WaitForPending(*w.fake, 2));
  w.sup->Shutdown();
  (void)parked1.get();
  (void)parked2.get();
  host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
  EXPECT_EQ(CounterValue(s, "io_submits_total{io_backend=\"fake\"}"),
            CounterValue(s, "io_completions_total{io_backend=\"fake\"}") +
                CounterValue(s, "io_cancels_total{io_backend=\"fake\"}"));
  EXPECT_EQ(CounterValue(s, "io_cancels_total{io_backend=\"fake\"}"), 2u);
  EXPECT_EQ(GaugeValue(s, "io_in_flight{io_backend=\"fake\"}"), 0);
}

// One observation of a supervisor's stats views, with the snapshot of the
// registry they should agree with.
struct StatsPoint {
  host::Supervisor::IoStats io;
  host::InstancePool::Stats pool;
  host::Telemetry::Snapshot series;
};

StatsPoint Observe(const TelWorld& w) {
  return {w.sup->io_stats(), w.sup->pool().stats(), w.tel->TakeSnapshot()};
}

// On one worker and a manual clock: park -> evict -> restore, an orphan
// completion, a shed while parked, and a budget stop while parked.
// Observes the stats right after the evict and after shutdown.
void RunEvictRestoreWorkload(TelWorld& w, std::vector<StatsPoint>* points) {
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok()) << sleeper.status().ToString();
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok()) << burner.status().ToString();

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  ASSERT_EQ(w.sup->EvictAllParked(), 1u);
  points->push_back(Observe(w));
  w.fake->AdvanceBy(50 * kMs);  // completes; the restore leases a slot
  ASSERT_TRUE(slept.get().completed());

  w.fake->ForceComplete(~0ULL, host::IoCompletion::Ready());

  std::future<host::RunReport> shed =
      w.sup->Submit(MakeJob(*sleeper, "t", /*deadline=*/10 * kMs));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  w.fake->AdvanceBy(10 * kMs);
  ASSERT_EQ(shed.get().outcome, host::Outcome::kShed);

  // The burner spends what the parked sleeper left of the budget, so the
  // sleeper is stopped when it resumes.
  host::TenantBudget budget;
  budget.max_fuel = 1000;
  w.sup->ledger().SetBudget("b", budget);
  std::future<host::RunReport> stopped = w.sup->Submit(MakeJob(*sleeper, "b"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  ASSERT_EQ(w.sup->Submit(MakeJob(*burner, "b")).get().outcome,
            host::Outcome::kBudget);
  w.fake->AdvanceBy(50 * kMs);
  ASSERT_EQ(stopped.get().outcome, host::Outcome::kBudget);

  w.sup->Shutdown();  // joins the worker: every lease is back in the pool
  points->push_back(Observe(w));
}

void ExpectSameStats(const StatsPoint& a, const StatsPoint& b) {
  EXPECT_EQ(a.io.parked_now, b.io.parked_now);
  EXPECT_EQ(a.io.ready_now, b.io.ready_now);
  EXPECT_EQ(a.io.in_flight_now, b.io.in_flight_now);
  EXPECT_EQ(a.io.peak_in_flight, b.io.peak_in_flight);
  EXPECT_EQ(a.io.parks_total, b.io.parks_total);
  EXPECT_EQ(a.io.resumes_total, b.io.resumes_total);
  EXPECT_EQ(a.io.orphan_completions, b.io.orphan_completions);
  EXPECT_EQ(a.io.sheds_while_parked, b.io.sheds_while_parked);
  EXPECT_EQ(a.io.budget_stops_while_parked, b.io.budget_stops_while_parked);
  EXPECT_EQ(a.io.evicted_now, b.io.evicted_now);
  EXPECT_EQ(a.io.evicts_total, b.io.evicts_total);
  EXPECT_EQ(a.io.restores_total, b.io.restores_total);
  EXPECT_EQ(a.pool.hits, b.pool.hits);
  EXPECT_EQ(a.pool.misses, b.pool.misses);
  EXPECT_EQ(a.pool.drops, b.pool.drops);
  EXPECT_EQ(a.pool.high_water, b.pool.high_water);
  EXPECT_EQ(a.pool.mem_high_water_pages, b.pool.mem_high_water_pages);
  EXPECT_EQ(a.pool.idle, b.pool.idle);
}

void ExpectStatsAreSeries(const StatsPoint& p) {
  const host::Telemetry::Snapshot& s = p.series;
  EXPECT_EQ(p.io.in_flight_now,
            static_cast<uint64_t>(GaugeValue(s, "supervisor_in_flight")));
  EXPECT_EQ(p.io.peak_in_flight,
            static_cast<uint64_t>(GaugeValue(s, "supervisor_in_flight_peak")));
  EXPECT_EQ(p.io.parks_total, CounterValue(s, "supervisor_parks_total"));
  EXPECT_EQ(p.io.resumes_total, CounterValue(s, "supervisor_resumes_total"));
  EXPECT_EQ(p.io.orphan_completions,
            CounterValue(s, "supervisor_orphan_completions_total"));
  EXPECT_EQ(p.io.sheds_while_parked,
            CounterValue(s, "supervisor_parked_sheds_total"));
  EXPECT_EQ(p.io.budget_stops_while_parked,
            CounterValue(s, "supervisor_parked_budget_stops_total"));
  EXPECT_EQ(p.io.evicted_now,
            static_cast<size_t>(GaugeValue(s, "supervisor_evicted_now")));
  EXPECT_EQ(p.io.evicts_total, CounterValue(s, "supervisor_evictions_total"));
  EXPECT_EQ(p.io.restores_total, CounterValue(s, "supervisor_restores_total"));
  EXPECT_EQ(p.pool.hits, CounterValue(s, "instance_pool_hits_total"));
  EXPECT_EQ(p.pool.misses, CounterValue(s, "instance_pool_misses_total"));
  EXPECT_EQ(p.pool.drops, CounterValue(s, "instance_pool_drops_total"));
  EXPECT_EQ(p.pool.high_water,
            static_cast<uint64_t>(GaugeValue(s, "instance_pool_leased_peak")));
  EXPECT_EQ(p.pool.mem_high_water_pages,
            static_cast<uint64_t>(
                GaugeValue(s, "instance_pool_mem_high_water_pages")));
}

TEST(HostTelemetry, StatsViewsEqualSeriesWiredOrNot) {
  // The stats accessors are views over the registry series, so a wired
  // Telemetry changes where the series live, never what they say.
  std::vector<StatsPoint> wired, unwired;
  {
    TelWorld w = MakeTelWorld(1, /*with_backend=*/true, {}, 0, false,
                              /*wired=*/true);
    ASSERT_NO_FATAL_FAILURE(RunEvictRestoreWorkload(w, &wired));
  }
  {
    TelWorld w = MakeTelWorld(1, /*with_backend=*/true, {}, 0, false,
                              /*wired=*/false);
    ASSERT_NO_FATAL_FAILURE(RunEvictRestoreWorkload(w, &unwired));
  }
  ASSERT_EQ(wired.size(), 2u);
  ASSERT_EQ(unwired.size(), 2u);
  for (size_t i = 0; i < wired.size(); ++i) {
    SCOPED_TRACE("observation " + std::to_string(i));
    ExpectSameStats(wired[i], unwired[i]);
    ExpectStatsAreSeries(wired[i]);
  }
  // The workload reached every lifecycle series.
  const host::Supervisor::IoStats& mid = wired[0].io;
  EXPECT_EQ(mid.evicted_now, 1u);
  EXPECT_EQ(mid.in_flight_now, 1u);
  const host::Supervisor::IoStats& end = wired[1].io;
  EXPECT_EQ(end.parks_total, 3u);
  EXPECT_EQ(end.resumes_total, 3u);
  EXPECT_EQ(end.evicts_total, 1u);
  EXPECT_EQ(end.restores_total, 1u);
  EXPECT_EQ(end.evicted_now, 0u);
  EXPECT_EQ(end.orphan_completions, 1u);
  EXPECT_EQ(end.sheds_while_parked, 1u);
  EXPECT_EQ(end.budget_stops_while_parked, 1u);
  EXPECT_EQ(end.in_flight_now, 0u);
  EXPECT_EQ(end.peak_in_flight, 2u);
  EXPECT_GT(wired[1].pool.hits, 0u);
}

TEST(HostTelemetry, SpanRingIsBoundedAndCountsDrops) {
  host::Telemetry::Options topts;
  topts.span_capacity = 4;
  TelWorld w = MakeTelWorld(1, /*with_backend=*/false, topts);
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  // 3 runs x 3 events (submit/dispatch/finish) = 9 > 4: oldest spill out.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(w.sup->Submit(MakeJob(*burner, "t")).get().completed());
  }
  host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
  EXPECT_LE(s.spans.size(), 4u);
  EXPECT_EQ(s.spans.size() + s.spans_dropped, 9u);
  // Counters are unaffected by span eviction.
  EXPECT_EQ(CounterValue(s, "supervisor_jobs_submitted_total"), 3u);
}

TEST(HostTelemetry, PrometheusJsonAndChromeTraceExports) {
  TelWorld w = MakeTelWorld(1, /*with_backend=*/false);
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());
  EXPECT_TRUE(w.sup->Submit(MakeJob(*burner, "t")).get().completed());
  EXPECT_TRUE(w.sup->Submit(MakeJob(*burner, "t")).get().completed());

  std::string prom = w.tel->PrometheusText();
  EXPECT_NE(prom.find("# TYPE supervisor_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("supervisor_jobs_submitted_total 2"), std::string::npos);
  EXPECT_NE(prom.find("supervisor_jobs_total{outcome=\"completed\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE supervisor_run_wall_nanos histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("supervisor_run_wall_nanos_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("supervisor_run_wall_nanos_count 2"), std::string::npos);
  EXPECT_NE(prom.find("host_tenant_jobs_submitted_total{tenant=\"t\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("wasm_func_entries_total"), std::string::npos)
      << "profiled function entries must export";

  std::string json = w.tel->JsonText();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"tenants\""), std::string::npos);
  EXPECT_NE(json.find("\"hot_functions\""), std::string::npos);
  EXPECT_NE(json.find("\"supervisor_jobs_submitted_total\":2"),
            std::string::npos);

  std::string trace = w.tel->ChromeTraceJson();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("tenant:t"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"run\""), std::string::npos);
}

TEST(HostTelemetry, HotFunctionProfileCountsEntriesAndFuel) {
  // The interpreter's frame-entry hooks feed per-function counters on the
  // module; the cache registered the module, so the snapshot surfaces it.
  // One local function, N runs => entries == N and, with complete fuel
  // attribution (HarvestResult flushes the open window), per-function fuel
  // == total fuel the reports billed.
  TelWorld w = MakeTelWorld(1, /*with_backend=*/false);
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  uint64_t fuel_total = 0;
  constexpr int kRuns = 3;
  for (int i = 0; i < kRuns; ++i) {
    host::RunReport r = w.sup->Submit(MakeJob(*burner, "t")).get();
    ASSERT_TRUE(r.completed());
    fuel_total += r.fuel_consumed;
  }
  ASSERT_GT(fuel_total, 0u);

  host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
  ASSERT_EQ(s.hot_functions.size(), 1u);
  const host::Telemetry::HotFunction& hf = s.hot_functions[0];
  EXPECT_FALSE(hf.module.empty());
  EXPECT_FALSE(hf.func.empty());
  EXPECT_EQ(hf.entries, static_cast<uint64_t>(kRuns));
  EXPECT_EQ(hf.fuel, fuel_total)
      << "per-function fuel must sum to executed instructions";
}

TEST(HostTelemetry, TieredFunctionsReportBlacklist) {
  // The tiered list says which compiled functions the amortized deopt
  // blacklist evicted: a loop that deopts every iteration after a few
  // compiled instructions (f64 ops have no stencils) is evicted, a pure
  // integer loop is not.
  if (!wasm::JitAvailable()) GTEST_SKIP();
  auto parsed = wasm::ParseAndValidateWat(R"((module
    (func $fploop (export "fp") (param $n i32) (result i64)
      (local $i i32) (local $x f64)
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $x (f64.add (local.get $x) (f64.const 0.25)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (i64.reinterpret_f64 (local.get $x)))
    (func $intloop (export "int") (param $n i32) (result i32)
      (local $i i32) (local $acc i32)
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $acc (i32.add (local.get $acc) (local.get $i)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (local.get $acc)))
  )");
  ASSERT_TRUE(parsed.ok());
  host::Telemetry tel;
  tel.RegisterModule("m", *parsed);
  wasm::Linker linker;
  auto inst = linker.Instantiate(*parsed);
  ASSERT_TRUE(inst.ok());
  wasm::ExecOptions opts;
  opts.jit = wasm::JitTier::kOn;
  opts.jit_threshold = 0;
  for (const char* fn : {"fp", "int"}) {
    wasm::RunResult r =
        (*inst)->CallExport(fn, {wasm::Value::I32(3000)}, opts);
    ASSERT_EQ(r.trap, wasm::TrapKind::kNone) << fn;
  }
  host::Telemetry::Snapshot s = tel.TakeSnapshot();
  ASSERT_EQ(s.tiered_functions.size(), 2u);
  for (const host::Telemetry::TieredFunction& tf : s.tiered_functions) {
    const bool fp = tf.func.find("fploop") != std::string::npos;
    EXPECT_EQ(tf.blacklisted, fp) << tf.func;
    if (fp) EXPECT_GE(tf.deopts, 1024u);
  }
}


}  // namespace
