// walirun — run a WALI program the way the paper's artifact runs .wasm files
// like ELF binaries (binfmt-style):
//
//   walirun [options] <program.wat|program.wasm> [args...]
//
// Options:
//   -e KEY=VALUE     add an environment variable (repeatable; §3.4: env is
//                    explicit, never inherited)
//   --scheme S       safepoint scheme: loop (default) | function | all | none
//   --dispatch D     interpreter dispatch: threaded (computed-goto, default
//                    when built with WASM_THREADED_DISPATCH) | switch
//                    (portable big-switch loop). For A/B perf runs; results,
//                    traps, and fuel accounting are identical in both.
//   --compile OUT    encode the module to binary .wasm at OUT and exit
//   --trace          print the syscall profile after the run (WALI_VERBOSE-
//                    style diagnostics; set WALI_LOG=3 for per-call logging)
//   --serve N        multi-tenant mode: run the program on the host
//                    supervisor with N concurrent workers (instance-pooled).
//                    Prints the active dispatch mode and the prepare pass's
//                    fusion stats (per-superinstruction counts), so perf
//                    reports are attributable to the executing configuration
//   --repeat K       with --serve: each worker lane runs the guest K times
//                    (N*K total runs); reports per-exit-code counts,
//                    throughput, and pool statistics
//   --queue-depth D  with --serve: bound the per-tenant admission queue to
//                    D pending jobs. Serve paces its own submissions to
//                    the window (workers + D) so all N*K runs execute;
//                    submits that still overflow (overload races) are
//                    rejected (Outcome::kRejected) instead of queued
//   --tenant-budget SPEC
//                    with --serve: cumulative budget for the serving
//                    tenant, as comma-separated k=v pairs out of
//                    fuel=<instrs>, cpu_ms=<ms>, syscalls=<n>,
//                    mem_pages=<pages>; runs over fuel/cpu/syscall budget
//                    are stopped mid-run and further runs refused
//                    (kBudget), while mem_pages caps what memory.grow can
//                    commit per run
//   --async-io       with --serve: offload blocking guest syscalls onto an
//                    IoReactor completion loop; guests entering a blocking
//                    read/write/poll/accept/nanosleep park off-worker and
//                    resume when the op completes, so sleeping guests do
//                    not hold worker threads. Serve reports parks, peak
//                    in-flight, and blocked-time aggregates
//   --io-backend B   with --serve: which completion backend serves the
//                    offloaded ops (implies --async-io). auto (default)
//                    picks io_uring when the kernel and build support it,
//                    else the poll(2) reactor; io_uring falls back to poll
//                    with a notice when unavailable. The serve banner and
//                    the io_* telemetry series carry the active backend
//   --evict-parked   with --serve --async-io: a sweeper thread serializes
//                    every snapshot-eligible parked guest to bytes
//                    (Supervisor::EvictAllParked) and releases its pool
//                    slab; completed I/O restores the guest into a fresh
//                    slot. Exercises the whole evict/restore path under
//                    real concurrency; the summary line and the metrics
//                    dump report eviction/restore counts
//   --metrics-dump P write the telemetry registry to P after the run:
//                    Prometheus text exposition by default, or the JSON
//                    snapshot when P ends in .json. Works in both serve
//                    and single-run modes
//   --trace-out P    write the run's trace spans to P as chrome://tracing
//                    JSON (open in Perfetto). Spans are recorded by the
//                    supervisor, so single-run traces are empty
//   --log-level L    off | error (default) | info | debug. Serve-mode
//                    telemetry lines (periodic stats, resume-queue
//                    latency, hot functions) log at info, so default
//                    output is unchanged; same scale as WALI_LOG=0..3
//   --snapshot-out P single-run mode: run the guest resumably; when it parks
//                    in a blocking syscall (nanosleep, a read on a pipe,
//                    ...), serialize the whole process — interpreter
//                    suspension, globals, memory delta, fd table, signal
//                    dispositions, syscall trace, the parked syscall — to P
//                    and exit 0 (see src/wasm/snapshot.h for the format). A
//                    guest that never parks runs to its normal exit and no
//                    file is written; a process that cannot be snapshotted
//                    at its park (guest threads, pending signals) finishes
//                    that park in place and is tried again at the next one
//   --restore P      single-run mode: instead of starting the program at its
//                    entry point, rebuild the process from the snapshot at P
//                    (the module must be structurally identical to the one
//                    snapshotted — same code, not just the same file name),
//                    wait out the parked op, and continue to the normal
//                    exit; results are bit-identical to the never-parked run.
//                    Both modes wait out every park on an IoReactor, the
//                    completion loop serve mode uses
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/logging.h"
#include "src/common/time_util.h"
#include "src/host/host.h"
#include "src/host/io_uring_backend.h"
#include "src/host/telemetry.h"
#include "src/wali/process_snapshot.h"
#include "src/wali/wali.h"
#include "src/wasm/wasm.h"

namespace {

// Waits out one parked op at a time on an IoReactor, for the resumable
// single run: the completion it returns is what ResumeMain finishes the
// parked syscall from, exactly as on the serve path.
class ParkWaiter {
 public:
  ParkWaiter() {
    reactor_.SetCompletionHandler(
        [this](uint64_t, const host::IoCompletion& c) {
          std::lock_guard<std::mutex> lock(mu_);
          done_ = c;
          ready_ = true;
          cv_.notify_one();
        });
  }

  host::IoCompletion Wait(const wali::IoOp& op) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ready_ = false;
    }
    reactor_.Submit(/*cookie=*/1, op);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return ready_; });
    return done_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool ready_ = false;
  host::IoCompletion done_;
  // Last member, so it is destroyed (its loop joined) before the state its
  // completion handler touches.
  host::IoReactor reactor_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: walirun [-e K=V]... [--scheme loop|function|all|none]\n"
               "               [--dispatch threaded|switch] [--jit on|off]\n"
               "               [--compile out.wasm] [--trace]\n"
               "               [--serve N [--repeat K] [--queue-depth D]\n"
               "                [--async-io [--evict-parked]]\n"
               "                [--io-backend auto|poll|io_uring]\n"
               "                [--tenant-budget fuel=N,cpu_ms=N,syscalls=N,"
               "mem_pages=N]]\n"
               "               [--metrics-dump out.prom|out.json]"
               " [--trace-out trace.json]\n"
               "               [--log-level off|error|info|debug]\n"
               "               [--snapshot-out snap] [--restore snap]\n"
               "               <prog.wat|prog.wasm> [args...]\n");
  return 2;
}

// Parses "fuel=N,cpu_ms=N,syscalls=N,mem_pages=N" (any subset, any order).
bool ParseTenantBudget(const std::string& spec, host::TenantBudget* out) {
  size_t i = 0;
  while (i < spec.size()) {
    size_t comma = spec.find(',', i);
    if (comma == std::string::npos) comma = spec.size();
    std::string pair = spec.substr(i, comma - i);
    i = comma + 1;
    size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return false;
    }
    std::string key = pair.substr(0, eq);
    long long value = std::atoll(pair.c_str() + eq + 1);
    if (value <= 0) {
      return false;
    }
    if (key == "fuel") {
      out->max_fuel = static_cast<uint64_t>(value);
    } else if (key == "cpu_ms") {
      out->max_cpu_nanos = value * 1000000;
    } else if (key == "syscalls") {
      out->max_syscalls = static_cast<uint64_t>(value);
    } else if (key == "mem_pages") {
      out->max_mem_pages = static_cast<uint64_t>(value);
    } else {
      return false;
    }
  }
  return true;
}

// --metrics-dump / --trace-out, shared by serve and single-run modes.
// Metrics format follows the extension: .json = snapshot JSON, anything
// else = Prometheus text exposition.
void DumpTelemetry(host::Telemetry& tel, const std::string& metrics_dump,
                   const std::string& trace_out) {
  if (!metrics_dump.empty()) {
    const bool json =
        metrics_dump.size() >= 5 &&
        metrics_dump.compare(metrics_dump.size() - 5, 5, ".json") == 0;
    if (!host::Telemetry::WriteFile(
            metrics_dump, json ? tel.JsonText() : tel.PrometheusText())) {
      std::fprintf(stderr, "walirun: cannot write %s\n", metrics_dump.c_str());
    }
  }
  if (!trace_out.empty()) {
    if (!host::Telemetry::WriteFile(trace_out, tel.ChromeTraceJson())) {
      std::fprintf(stderr, "walirun: cannot write %s\n", trace_out.c_str());
    }
  }
}

}  // namespace

// Multi-tenant serving mode: N*K runs of the guest on the supervisor, with
// per-run reports aggregated into exit-code and outcome histograms, the
// tenant's ledger line, and pool stats. All runs bill to one tenant
// ("serve"), so --tenant-budget caps the whole serving session and
// --queue-depth bounds its admission queue.
int Serve(wali::WaliRuntime& runtime, std::shared_ptr<const wasm::Module> module,
          const std::vector<std::string>& guest_argv,
          const std::vector<std::string>& env, int workers, int repeat,
          int queue_depth, const host::TenantBudget& budget, bool async_io,
          const std::string& io_backend_choice, bool evict_parked,
          host::Telemetry& tel) {
  const char* kTenant = "serve";
  host::Supervisor::Options sopts;
  sopts.workers = static_cast<size_t>(workers);
  sopts.queue_depth = static_cast<size_t>(queue_depth);
  sopts.pool.max_idle_per_module = static_cast<size_t>(workers);
  sopts.telemetry = &tel;
  std::unique_ptr<host::IoBackend> backend;
  host::IoUringBackend* uring = nullptr;  // for the stats line
  const char* backend_name = "none";
  if (async_io) {
    bool want_uring = io_backend_choice == "io_uring" ||
                      (io_backend_choice == "auto" && host::IoUringAvailable());
    if (io_backend_choice == "io_uring" && !host::IoUringAvailable()) {
      std::fprintf(stderr,
                   "walirun: io_uring unavailable on this kernel/build; "
                   "falling back to the poll backend\n");
      want_uring = false;
    }
    if (want_uring) {
      auto u = std::make_unique<host::IoUringBackend>();
      u->SetTelemetry(&tel);
      uring = u.get();
      backend = std::move(u);
      backend_name = "io_uring";
    } else {
      auto reactor = std::make_unique<host::IoReactor>();
      reactor->SetTelemetry(&tel);
      backend = std::move(reactor);
      backend_name = "poll";
    }
    sopts.io_backend = backend.get();
  }
  host::Supervisor sup(&runtime, sopts);
  if (!budget.Unlimited()) {
    sup.ledger().SetBudget(kTenant, budget);
  }

  // Pressure-relief sweeper: every parked guest whose pending op is pure
  // data gets serialized out of its pool slab; the restore path rehydrates
  // it when its I/O completes. Polling at a millisecond cadence is plenty —
  // eviction targets guests blocked for real durations, not micro-parks.
  std::atomic<bool> serving{true};
  std::thread evictor;
  if (evict_parked && async_io) {
    evictor = std::thread([&sup, &serving] {
      while (serving.load(std::memory_order_acquire)) {
        sup.EvictAllParked();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  // Active dispatch mode: what RunLoop actually resolves for these options.
  std::printf("serve: dispatch=%s scheme=%s jit=%s async-io=%s io-backend=%s\n",
              wasm::DispatchModeName(wasm::ResolveDispatch(runtime.exec_options())),
              wasm::SafepointSchemeName(runtime.options().scheme),
              wasm::JitAvailable() &&
                      runtime.exec_options().jit != wasm::JitTier::kOff
                  ? "on"
                  : "off",
              async_io ? "on" : "off", backend_name);
  // Fusion attribution next to the dispatch mode, so serve-mode perf
  // reports can name the superinstruction set actually serving traffic.
  {
    const wasm::PrepareStats& ps = module->prepare_stats;
    std::printf(
        "serve: fusion: %u superinstructions + %u direct calls over %u source "
        "instrs -> %u prepared (%u funcs)\n",
        ps.fused, ps.direct_calls, ps.source_instrs, ps.prepared_instrs,
        ps.functions);
    for (uint32_t i = 0; i < wasm::kNumInternalOps; ++i) {
      if (ps.per_op[i] == 0) {
        continue;
      }
      std::printf("serve: fused op %-40s x %u\n",
                  wasm::OpName(static_cast<wasm::Op>(wasm::kFirstInternalOp + i)),
                  ps.per_op[i]);
    }
  }

  const int total = workers * repeat;
  std::map<int32_t, int> exit_histogram;
  std::map<host::Outcome, int> outcome_histogram;
  int completed = 0, failed = 0, pooled = 0;
  uint64_t syscalls = 0;
  int64_t blocked_total = 0, blocked_max = 0;
  std::vector<int64_t> queue_lat;
  queue_lat.reserve(static_cast<size_t>(total));
  std::vector<int64_t> resume_lat;  // only runs that parked at least once
  // Periodic progress at info level (default log level hides it, keeping
  // serve output byte-identical unless --log-level info is given).
  int64_t last_stats = common::MonotonicNanos();
  auto consume = [&](host::RunReport r) {
    ++outcome_histogram[r.outcome];
    if (r.completed()) {
      ++completed;
      ++exit_histogram[r.exit_code];
    } else {
      ++failed;
      if (r.outcome == host::Outcome::kTrapped) {
        std::fprintf(stderr, "walirun: guest trap: %s %s\n",
                     wasm::TrapKindName(r.trap), r.trap_message.c_str());
      }
    }
    if (r.pooled) ++pooled;
    syscalls += r.total_syscalls;
    blocked_total += r.blocked_nanos;
    if (r.blocked_nanos > blocked_max) blocked_max = r.blocked_nanos;
    if (r.dispatch_seq != 0) queue_lat.push_back(r.queue_nanos);
    if (r.resume_queue_nanos > 0) resume_lat.push_back(r.resume_queue_nanos);
    const int64_t now = common::MonotonicNanos();
    if (now - last_stats >= 1000000000) {
      last_stats = now;
      LOG_INFO() << "serve: stats " << (completed + failed) << " done, "
                 << completed << " completed, " << failed << " failed, "
                 << syscalls << " syscalls, blocked "
                 << blocked_total / 1000000 << " ms";
    }
  };

  auto make_job = [&](int k) {
    host::GuestJob job;
    job.module = module;
    job.argv = guest_argv;
    job.env = env;
    job.env.push_back("WALI_RUN_INDEX=" + std::to_string(k));
    job.tenant = kTenant;
    return job;
  };

  // With a bounded queue, pace submission to the admission window (running
  // guests + queue capacity) so all N*K runs actually execute; a submit
  // that still bounces off a momentarily full queue (worker handoff race)
  // is retried after draining one in-flight run. Unbounded: submit all.
  const size_t window = queue_depth > 0
                            ? static_cast<size_t>(workers + queue_depth)
                            : static_cast<size_t>(total);
  std::deque<std::future<host::RunReport>> in_flight;
  int64_t t0 = common::MonotonicNanos();
  int submitted = 0;
  while (submitted < total) {
    while (in_flight.size() >= window) {
      consume(in_flight.front().get());
      in_flight.pop_front();
    }
    std::future<host::RunReport> fut = sup.Submit(make_job(submitted));
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      host::RunReport r = fut.get();
      if (r.outcome == host::Outcome::kRejected && !in_flight.empty()) {
        consume(in_flight.front().get());
        in_flight.pop_front();
        continue;  // retry this run index against the freed slot
      }
      consume(std::move(r));  // instantly-finished run (or terminal reject)
    } else {
      in_flight.push_back(std::move(fut));
    }
    ++submitted;
  }
  while (!in_flight.empty()) {
    consume(in_flight.front().get());
    in_flight.pop_front();
  }
  double secs = (common::MonotonicNanos() - t0) / 1e9;
  serving.store(false, std::memory_order_release);
  if (evictor.joinable()) {
    evictor.join();
  }

  std::printf("serve: %d workers x %d runs = %d guests in %.3f s (%.0f guests/s)\n",
              workers, repeat, total, secs, secs > 0 ? total / secs : 0.0);
  std::printf("serve: %d completed, %d failed, %d pooled, %llu syscalls\n",
              completed, failed, pooled, static_cast<unsigned long long>(syscalls));
  for (const auto& [outcome, n] : outcome_histogram) {
    std::printf("serve: outcome %s x %d\n", host::OutcomeName(outcome), n);
  }
  for (const auto& [code, n] : exit_histogram) {
    std::printf("serve: exit %d x %d\n", code, n);
  }
  // Queue latency excludes parked/blocked time by construction
  // (RunReport::queue_nanos is submit -> first dispatch), so a fleet of
  // sleeping guests no longer poisons the admission p99.
  std::sort(queue_lat.begin(), queue_lat.end());
  if (!queue_lat.empty()) {
    std::printf("serve: queue latency p50 %.1f us  p99 %.1f us (excl. blocked)\n",
                queue_lat[queue_lat.size() / 2] / 1e3,
                queue_lat[static_cast<size_t>(0.99 * (queue_lat.size() - 1))] / 1e3);
  }
  if (async_io) {
    host::Supervisor::IoStats io = sup.io_stats();
    std::printf(
        "serve: async-io[%s] parks=%llu resumes=%llu peak-in-flight=%llu "
        "blocked %.1f ms total, %.1f ms max/guest\n",
        backend_name, static_cast<unsigned long long>(io.parks_total),
        static_cast<unsigned long long>(io.resumes_total),
        static_cast<unsigned long long>(io.peak_in_flight),
        blocked_total / 1e6, blocked_max / 1e6);
    if (uring != nullptr) {
      host::IoUringBackend::Stats us = uring->stats();
      std::printf("serve: io_uring sqes=%llu enters=%llu (%.1f sqes/enter)\n",
                  static_cast<unsigned long long>(us.sqes),
                  static_cast<unsigned long long>(us.enters),
                  us.enters > 0 ? static_cast<double>(us.sqes) / us.enters
                                : 0.0);
    }
    if (evict_parked) {
      std::printf("serve: evictions=%llu restores=%llu\n",
                  static_cast<unsigned long long>(io.evicts_total),
                  static_cast<unsigned long long>(io.restores_total));
    }
  }
  // Resume-queue latency (I/O completion -> re-dispatch): tail here means
  // workers are saturated with runnable guests, not that I/O is slow.
  std::sort(resume_lat.begin(), resume_lat.end());
  if (!resume_lat.empty()) {
    LOG_INFO() << "serve: resume-queue latency p50 "
               << resume_lat[resume_lat.size() / 2] / 1000 << " us  p99 "
               << resume_lat[static_cast<size_t>(0.99 * (resume_lat.size() - 1))] /
                      1000
               << " us over " << resume_lat.size() << " parked runs";
  }
  const host::Telemetry::Snapshot snap = tel.TakeSnapshot();
  // Interpreter hot-function profile (top 10 by frame entries).
  if (common::LogEnabled(common::LogLevel::kInfo)) {
    size_t shown = 0;
    for (const host::Telemetry::HotFunction& hf : snap.hot_functions) {
      if (++shown > 10) break;
      LOG_INFO() << "serve: hot " << hf.module << ":" << hf.func
                 << " entries=" << hf.entries << " fuel=" << hf.fuel;
    }
  }
  // Baseline-JIT tier attribution: the snapshot's jit_* counters, which it
  // synthesizes from the registered module's tier state, plus the top 10
  // compiled functions by heat.
  const std::map<std::string, uint64_t> counters(
      snap.registry.counters.begin(), snap.registry.counters.end());
  auto jit_counter = counters.find("jit_compiles_total");
  if (wasm::JitAvailable() && jit_counter != counters.end()) {
    std::printf(
        "serve: jit compiles=%llu failures=%llu tierups=%llu osr-exits=%llu\n",
        static_cast<unsigned long long>(jit_counter->second),
        static_cast<unsigned long long>(
            counters.at("jit_compile_failures_total")),
        static_cast<unsigned long long>(counters.at("jit_tierups_total")),
        static_cast<unsigned long long>(counters.at("jit_osr_exits_total")));
    size_t shown = 0;
    for (const host::Telemetry::TieredFunction& tf : snap.tiered_functions) {
      if (++shown > 10) break;
      std::printf("serve: jit tiered %-32s heat=%llu deopts=%llu blacklisted=%s\n",
                  tf.func.c_str(), static_cast<unsigned long long>(tf.heat),
                  static_cast<unsigned long long>(tf.deopts),
                  tf.blacklisted ? "yes" : "no");
    }
  }
  host::TenantUsage usage = sup.ledger().usage(kTenant);
  std::printf(
      "ledger[%s]: runs=%llu fuel=%llu cpu_ms=%.1f syscalls=%llu "
      "mem_hw_pages=%llu shed=%llu rejected=%llu budget_stops=%llu "
      "host_errors=%llu\n",
      kTenant, static_cast<unsigned long long>(usage.runs),
      static_cast<unsigned long long>(usage.fuel), usage.cpu_nanos / 1e6,
      static_cast<unsigned long long>(usage.syscalls),
      static_cast<unsigned long long>(usage.mem_high_water_pages),
      static_cast<unsigned long long>(usage.shed),
      static_cast<unsigned long long>(usage.rejected),
      static_cast<unsigned long long>(usage.budget_stops),
      static_cast<unsigned long long>(usage.host_errors));
  host::InstancePool::Stats ps = sup.pool().stats();
  std::printf(
      "pool: hits=%llu misses=%llu drops=%llu high_water=%llu "
      "mem_hw_pages=%llu idle=%zu\n",
      static_cast<unsigned long long>(ps.hits),
      static_cast<unsigned long long>(ps.misses),
      static_cast<unsigned long long>(ps.drops),
      static_cast<unsigned long long>(ps.high_water),
      static_cast<unsigned long long>(ps.mem_high_water_pages), ps.idle);
  // Admission-control refusals (shed/rejected/budget) are policy working as
  // configured, not errors; only real guest traps fail the serve.
  return outcome_histogram[host::Outcome::kTrapped] == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  std::vector<std::string> env;
  std::string compile_out;
  std::string metrics_dump;
  std::string trace_out;
  std::string snapshot_out;
  std::string restore_in;
  bool trace = false;
  int serve_workers = 0;
  int serve_repeat = 1;
  int queue_depth = 0;
  bool async_io = false;
  std::string io_backend_choice = "auto";
  bool evict_parked = false;
  host::TenantBudget budget;
  wasm::SafepointScheme scheme = wasm::SafepointScheme::kLoop;
  wasm::DispatchMode dispatch = wasm::DispatchMode::kAuto;
  wasm::JitTier jit = wasm::JitTier::kAuto;

  int i = 1;
  for (; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-e" && i + 1 < argc) {
      env.push_back(argv[++i]);
    } else if (arg == "--serve" && i + 1 < argc) {
      serve_workers = std::atoi(argv[++i]);
      if (serve_workers <= 0) return Usage();
    } else if (arg == "--repeat" && i + 1 < argc) {
      serve_repeat = std::atoi(argv[++i]);
      if (serve_repeat <= 0) return Usage();
    } else if (arg == "--queue-depth" && i + 1 < argc) {
      queue_depth = std::atoi(argv[++i]);
      if (queue_depth <= 0) return Usage();
    } else if (arg == "--async-io") {
      async_io = true;
    } else if (arg == "--io-backend" && i + 1 < argc) {
      io_backend_choice = argv[++i];
      if (io_backend_choice != "auto" && io_backend_choice != "poll" &&
          io_backend_choice != "io_uring") {
        return Usage();
      }
      async_io = true;  // choosing a backend implies offload
    } else if (arg == "--evict-parked") {
      evict_parked = true;
    } else if (arg == "--tenant-budget" && i + 1 < argc) {
      if (!ParseTenantBudget(argv[++i], &budget)) return Usage();
    } else if (arg == "--scheme" && i + 1 < argc) {
      std::string s = argv[++i];
      if (s == "loop") scheme = wasm::SafepointScheme::kLoop;
      else if (s == "function") scheme = wasm::SafepointScheme::kFunction;
      else if (s == "all") scheme = wasm::SafepointScheme::kEveryInstr;
      else if (s == "none") scheme = wasm::SafepointScheme::kNone;
      else return Usage();
    } else if (arg == "--dispatch" && i + 1 < argc) {
      std::string s = argv[++i];
      if (s == "switch") dispatch = wasm::DispatchMode::kSwitch;
      else if (s == "threaded") dispatch = wasm::DispatchMode::kThreaded;
      else return Usage();
      if (s == "threaded" && !wasm::ThreadedDispatchAvailable()) {
        std::fprintf(stderr,
                     "walirun: threaded dispatch not in this build "
                     "(WASM_THREADED_DISPATCH=OFF); using switch\n");
      }
    } else if (arg == "--jit" && i + 1 < argc) {
      std::string s = argv[++i];
      if (s == "off") jit = wasm::JitTier::kOff;
      else if (s == "on") jit = wasm::JitTier::kOn;
      else return Usage();
      if (s == "on" && !wasm::JitAvailable()) {
        std::fprintf(stderr,
                     "walirun: baseline JIT tier not in this build "
                     "(WASM_JIT=OFF or no threaded loop); interpreting\n");
      }
    } else if (arg == "--compile" && i + 1 < argc) {
      compile_out = argv[++i];
    } else if (arg == "--metrics-dump" && i + 1 < argc) {
      metrics_dump = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--snapshot-out" && i + 1 < argc) {
      snapshot_out = argv[++i];
    } else if (arg == "--restore" && i + 1 < argc) {
      restore_in = argv[++i];
    } else if (arg == "--log-level" && i + 1 < argc) {
      std::string s = argv[++i];
      if (s == "off") common::SetLogLevel(common::LogLevel::kOff);
      else if (s == "error") common::SetLogLevel(common::LogLevel::kError);
      else if (s == "info") common::SetLogLevel(common::LogLevel::kInfo);
      else if (s == "debug") common::SetLogLevel(common::LogLevel::kDebug);
      else return Usage();
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--help" || arg == "-h") {
      return Usage();
    } else {
      break;
    }
  }
  if (i >= argc) {
    return Usage();
  }

  std::string path = argv[i];
  // The run's telemetry sink: the module cache folds fusion stats into it
  // at decode, serve mode records spans and per-run metrics through it, and
  // --metrics-dump/--trace-out export it at exit.
  host::Telemetry tel;
  // Single front end for .wat/.wasm detection, decode, and validation — the
  // same layer serve mode instantiates from.
  host::ModuleCache cache(/*capacity=*/1);
  cache.SetTelemetry(&tel);
  common::StatusOr<std::shared_ptr<const wasm::Module>> parsed =
      cache.LoadFile(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "walirun: %s\n", parsed.status().ToString().c_str());
    return 1;
  }

  if (!compile_out.empty()) {
    std::vector<uint8_t> encoded = wasm::EncodeModule(**parsed);
    std::ofstream out(compile_out, std::ios::binary);
    out.write(reinterpret_cast<const char*>(encoded.data()),
              static_cast<std::streamsize>(encoded.size()));
    std::fprintf(stderr, "walirun: wrote %zu bytes to %s\n", encoded.size(),
                 compile_out.c_str());
    return 0;
  }

  std::vector<std::string> guest_argv;
  guest_argv.push_back(path);
  for (int k = i + 1; k < argc; ++k) {
    guest_argv.push_back(argv[k]);
  }

  wasm::Linker linker;
  wali::WaliRuntime::Options opts;
  opts.scheme = scheme;
  opts.dispatch = dispatch;
  opts.jit = jit;
  wali::WaliRuntime runtime(&linker, opts);

  if (serve_workers > 0) {
    int rc = Serve(runtime, *parsed, guest_argv, env, serve_workers,
                   serve_repeat, queue_depth, budget, async_io,
                   io_backend_choice, evict_parked, tel);
    DumpTelemetry(tel, metrics_dump, trace_out);
    return rc;
  }

  auto proc = runtime.CreateProcess(*parsed, guest_argv, env);
  if (!proc.ok()) {
    std::fprintf(stderr, "walirun: %s\n", proc.status().ToString().c_str());
    return 1;
  }
  // A single run is the host process (paper §3.1): its signal table mirrors
  // the host's native dispositions, so kernel signals reach the guest, and
  // its signal syscalls pass through. Bound before a restore, which
  // re-registers the snapshot's dispositions.
  (*proc)->sigtable.BindNative();

  wasm::RunResult r;
  if (restore_in.empty() && snapshot_out.empty()) {
    r = runtime.RunMain(**proc);
  } else {
    ParkWaiter waiter;
    wali::WaliRuntime::MainContinuation cont;
    if (!restore_in.empty()) {
      std::ifstream in(restore_in, std::ios::binary);
      std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
      if (bytes.empty()) {
        std::fprintf(stderr, "walirun: cannot read snapshot %s\n",
                     restore_in.c_str());
        return 1;
      }
      common::Status restored =
          wali::RestoreProcess(bytes.data(), bytes.size(), **proc, cont);
      if (!restored.ok()) {
        std::fprintf(stderr, "walirun: %s\n", restored.ToString().c_str());
        return 1;
      }
      r.trap = wasm::TrapKind::kSyscallPending;  // restored at its park
    } else {
      r = runtime.RunMain(**proc, runtime.exec_options(), &cont);
    }
    while (r.trap == wasm::TrapKind::kSyscallPending) {
      if (restore_in.empty()) {
        common::StatusOr<std::vector<uint8_t>> snap =
            wali::SnapshotProcess(**proc, cont);
        if (snap.ok()) {
          cont.Discard();
          std::ofstream out(snapshot_out, std::ios::binary | std::ios::trunc);
          out.write(reinterpret_cast<const char*>(snap->data()),
                    static_cast<std::streamsize>(snap->size()));
          if (!out.good()) {
            std::fprintf(stderr, "walirun: cannot write %s\n",
                         snapshot_out.c_str());
            return 1;
          }
          std::fprintf(stderr, "walirun: wrote %zu-byte snapshot to %s\n",
                       snap->size(), snapshot_out.c_str());
          return 0;
        }
        std::fprintf(stderr, "walirun: park not snapshotable (%s); continuing\n",
                     snap.status().ToString().c_str());
      }
      r = runtime.ResumeMain(**proc, cont, waiter.Wait((*proc)->pending_io.op));
    }
  }

  if (trace) {
    std::fprintf(stderr, "--- syscall profile ---\n");
    const auto& defs = runtime.syscalls();
    for (size_t id = 0; id < defs.size(); ++id) {
      uint64_t n = (*proc)->trace.count(static_cast<uint32_t>(id));
      if (n > 0) {
        std::fprintf(stderr, "%10llu  %s\n", static_cast<unsigned long long>(n),
                     defs[id].name);
      }
    }
    std::fprintf(stderr, "wali time: %.3f ms, kernel time: %.3f ms\n",
                 (*proc)->trace.wali_nanos() / 1e6,
                 (*proc)->trace.kernel_nanos() / 1e6);
  }

  // Single-run exports: the registry holds the decode-time fusion counters;
  // spans need the supervisor, so a single-run trace file is empty.
  DumpTelemetry(tel, metrics_dump, trace_out);

  if (r.trap == wasm::TrapKind::kExit) {
    return r.exit_code;
  }
  if (!r.ok()) {
    std::fprintf(stderr, "walirun: trap: %s %s\n", wasm::TrapKindName(r.trap),
                 r.trap_message.c_str());
    return 134;  // mimic abort
  }
  if (!r.values.empty()) {
    return static_cast<int>(r.values[0].i32());
  }
  return 0;
}
