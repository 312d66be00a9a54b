// wali_bench — end-to-end and per-layer benchmark of the WALI serve path.
//
// Every workload runs through the production path: ModuleCache::Load ->
// Supervisor::Submit (leasing from InstancePool) -> interpreter/JIT -> WALI
// handlers -> async offload over the auto-selected io backend (io_uring, or
// the poll(2) IoReactor where io_uring is unavailable), with production
// settings: JIT auto, threaded dispatch, 3 workers. Layers are measured from
// outside only: bench clocks around public calls, RunReport fields, and the
// Telemetry the supervisor already emits.
//
//   wali_bench --seed S [--workload NAME] [--seconds X] [--trace DIR]
//              [--json FILE] [--quick]
//
// Each workload runs in a fresh child process (fork + exec of this binary),
// so JIT tier state, pool slabs and RSS never carry over between workloads.
// The child measures an X-second window (default 12) split over 4 fresh
// sessions; each session sets up, warms up for 2 s, measures its share in
// 0.5 s slices and drains every op in flight. --quick runs one session with
// a 0.1 s warmup and a 0.3 s window, for smoke tests whose perf numbers are
// advisory. The load comes from one generator thread, and the seed drives
// everything the guests receive: Poisson arrival times, the tenant of each
// job (4 tenants) and the echo payload bytes.
//
// With --trace DIR each workload runs untraced and then traced, each for
// half the window. End-to-end metrics come only from the untraced run,
// per-layer metrics only from the traced one, which enables the
// supervisor's Telemetry, wraps the io backend in a timing decorator,
// probes the instance pool after the window, and writes
// DIR/<workload>.bench_trace.json (bench spans) and
// DIR/<workload>.telemetry_trace.json (Telemetry::ChromeTraceJson).
//
// Every op is checked: exit code and executed_instrs against a reference
// run (WaliRuntime::RunMain, switch dispatch, jit off), echo replies byte
// for byte, and at exit the ledger's fuel against the sum of
// RunReport.fuel_consumed. Exit 0 iff every check passed.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/time_util.h"
#include "src/host/host.h"
#include "src/host/io_uring_backend.h"
#include "src/host/telemetry.h"
#include "src/wali/wali.h"
#include "src/wasm/wasm.h"
#include "wali_bench/guests.h"
#include "wali_bench/stats.h"
#include "wali_bench/trace.h"

namespace {

using wali_bench::Median;
using wali_bench::Percentile;
using wali_bench::SpanLog;
using wali_bench::TimedIoBackend;

constexpr size_t kWorkers = 3;
constexpr int kTenants = 4;
constexpr size_t kEchoBytes = 64;
// Telemetry and bench span rings keep the newest events; this bounds a
// traced run's memory and trace-file size on the high-rate workloads.
constexpr size_t kSpanCapacity = 1 << 17;
constexpr int kProbeThreads = 3;
constexpr int kProbeIters = 300;
// A child splits its window over kSessions fresh sessions (set-up, warmup,
// window, drain), and each session's window into slices of kSliceSeconds.
// Throughput and CPU per op are taken per slice, then as the median over
// all the run's slices. setup_s is the median over all sessions' set-ups,
// each session setting up kSetupReps times. On a shared virtual machine the
// host's speed dips by up to 3x for a few hundred milliseconds at a time,
// which the median over slices ignores, and a fresh session settles at a
// speed of its own (a standard deviation of 2-6% from session to session),
// which spreading the slices over sessions averages.
constexpr int kSessions = 4;
constexpr double kSliceSeconds = 0.5;
constexpr int kSetupReps = 10;
// Every session warms up until its JIT state has settled. serve_short's CPU
// per op steps up by about a third 0.75-2 s into a session (sooner at higher
// arrival rates; with jit off it is flat from the start), compute_calls' and
// park_evict's rise over their first 1-1.5 s, and compute_loop runs twice as
// fast for its first 0.25 s.
constexpr double kWarmupSeconds = 2.0;
constexpr int64_t kDrainTimeoutNs = 30'000'000'000;

enum class LoadKind { kOpen, kClosed, kEcho };

struct WorkloadSpec {
  const char* name;
  LoadKind load;
  size_t concurrency;  // closed loop: outstanding ops; echo: connections
  double rate;         // open loop: Poisson arrivals per second
  // Each tenant deploys its own binary module, which every job resolves
  // through ModuleCache::Load; otherwise all jobs share one module.
  bool tenant_modules;
  bool evict;  // EvictAllParked sweeper every 1 ms
  std::string (*wat)(int tenant);
};

// Why each workload exists is in README.md next to this file. The compute
// loops keep two ops per worker outstanding: with one, every op pays a
// generator hand-off during which its worker idles, and the vCPU wake-ups
// that adds made run-to-run throughput swing by 20-30%. serve_short's
// tenants deploy distinct modules: with one module shared by all tenants,
// a session's CPU per op settles for its lifetime at a level of its own
// (235-280 us, and one session in twelve 365 us); with one per tenant,
// twelve sessions read 204-255 us.
const WorkloadSpec kWorkloads[] = {
    {"serve_short", LoadKind::kOpen, 0, 3000, true, false,
     wali_bench::ShortGuestWat},
    {"compute_loop", LoadKind::kClosed, 2 * kWorkers, 0, false, false,
     wali_bench::LuaGuestWat},
    {"compute_calls", LoadKind::kClosed, 2 * kWorkers, 0, false, false,
     wali_bench::FibGuestWat},
    {"park_sleep", LoadKind::kClosed, 256, 0, false, false,
     wali_bench::ParkGuestWat},
    {"park_evict", LoadKind::kClosed, 256, 0, false, true,
     wali_bench::ParkGuestWat},
    {"echo_rtt", LoadKind::kEcho, 4, 0, false, false,
     wali_bench::EchoGuestWat},
};

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Metrics a user of the serve path sees; the rest of what a child reports
// is either the latency and RSS distribution of the untraced run
// (reported, not gated) or a per-layer metric.
const std::set<std::string> kEndToEnd = {"throughput_ops_s", "cpu_us_per_op", "rss_p50_mib",
                                         "error_rate", "setup_s"};

bool IsDistribution(const std::string& name) {
  return name.rfind("latency.", 0) == 0 || name.rfind("rss.", 0) == 0;
}

int64_t Now() { return common::MonotonicNanos(); }

int64_t ProcessCpuNanos() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double RssMiB() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / (1 << 20);
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

// The guest's exit code as Supervisor::FinishRun derives it.
int32_t ExitCode(const wasm::RunResult& r) {
  if (r.trap == wasm::TrapKind::kExit) return r.exit_code;
  if (r.ok() && !r.values.empty()) return static_cast<int32_t>(r.values[0].i32());
  return 0;
}

// The echo guest's argv[1]: the fd as six zero-padded digits.
std::string FdArg(int fd) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%06d", fd);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

void Add(std::vector<Metric>& m, const char* name, const char* unit, double v) {
  m.push_back({name, unit, std::isfinite(v) ? v : 0});
}

// ------------------------------------------------------------ reference ---

// What every served run must reproduce. Echo: executed_instrs =
// instrs + per_request * requests served.
struct Reference {
  int32_t exit_code = 0;
  uint64_t instrs = 0;
  uint64_t per_request = 0;
};

// Taken with the plain RunMain path, switch dispatch and jit off, on a
// module decoded separately from the served one, so the reference shares
// no tier state with the path it checks.
common::StatusOr<Reference> TakeReference(const WorkloadSpec& w,
                                          const std::string& artifact) {
  host::ModuleCache cache;
  auto module = cache.Load(artifact);
  if (!module.ok()) return module.status();
  wasm::Linker linker;
  wali::WaliRuntime::Options opts;
  opts.dispatch = wasm::DispatchMode::kSwitch;
  opts.jit = wasm::JitTier::kOff;
  wali::WaliRuntime runtime(&linker, opts);
  auto run = [&](std::vector<std::string> argv) -> common::StatusOr<wasm::RunResult> {
    auto proc = runtime.CreateProcess(*module, std::move(argv), {});
    if (!proc.ok()) return proc.status();
    wasm::RunResult r = runtime.RunMain(**proc);
    if (r.trap != wasm::TrapKind::kNone && r.trap != wasm::TrapKind::kExit) {
      return common::Internal(std::string("reference run trapped: ") +
                              wasm::TrapKindName(r.trap) + " " + r.trap_message);
    }
    return r;
  };

  Reference ref;
  if (w.load != LoadKind::kEcho) {
    ASSIGN_OR_RETURN(wasm::RunResult r, run({"guest"}));
    ref.exit_code = ExitCode(r);
    ref.instrs = r.executed_instrs;
    return ref;
  }
  // Echo: serve 0, 1 and 2 requests that are already buffered before EOF.
  uint64_t instrs[3] = {0, 0, 0};
  for (int n = 0; n < 3; ++n) {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      return common::Internal("reference socketpair failed");
    }
    std::string requests(n * kEchoBytes, 'r');
    bool sent = write(sv[0], requests.data(), requests.size()) ==
                static_cast<ssize_t>(requests.size());
    shutdown(sv[0], SHUT_WR);
    auto r = run({"echo", FdArg(sv[1])});
    close(sv[0]);
    close(sv[1]);
    if (!sent) return common::Internal("reference echo write failed");
    if (!r.ok()) return r.status();
    if (ExitCode(*r) != 0) {
      return common::Internal("reference echo exited " + std::to_string(ExitCode(*r)));
    }
    instrs[n] = r->executed_instrs;
  }
  ref.instrs = instrs[0];
  ref.per_request = instrs[1] - instrs[0];
  if (instrs[2] != instrs[0] + 2 * ref.per_request) {
    return common::Internal("echo instruction count is not linear in requests");
  }
  return ref;
}

// ---------------------------------------------------------------- setup ---

// Everything one serving session owns. Members are destroyed in reverse
// order: the supervisor shuts down before the backend, telemetry and
// runtime it borrows.
struct Serving {
  std::unique_ptr<host::Telemetry> tel;  // traced runs only
  std::unique_ptr<host::ModuleCache> cache;
  // One per artifact, with its reference; tenant t uses entry t % size().
  std::vector<std::shared_ptr<const wasm::Module>> modules;
  std::vector<Reference> refs;
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wali::WaliRuntime> runtime;
  std::unique_ptr<host::IoBackend> backend;
  host::IoUringBackend* uring = nullptr;
  std::string backend_name;
  std::unique_ptr<TimedIoBackend> timed_io;  // traced runs only
  std::unique_ptr<host::Supervisor> sup;
  std::vector<int64_t> load_cold_ns;
};

// Cold module loads, reference runs, runtime, backend and supervisor. A
// non-null `spans` makes this a traced session.
common::StatusOr<std::unique_ptr<Serving>> SetUp(
    const WorkloadSpec& w, const std::vector<std::string>& artifacts, SpanLog* spans,
    const std::atomic<bool>* in_window) {
  auto s = std::make_unique<Serving>();
  if (spans != nullptr) {
    host::Telemetry::Options topts;
    topts.span_capacity = kSpanCapacity;
    s->tel = std::make_unique<host::Telemetry>(topts);
  }
  s->cache = std::make_unique<host::ModuleCache>();
  s->cache->SetTelemetry(s->tel.get());
  for (const std::string& artifact : artifacts) {
    const int64_t t0 = Now();
    auto module = s->cache->Load(artifact);
    s->load_cold_ns.push_back(Now() - t0);
    if (!module.ok()) return module.status();
    s->modules.push_back(*module);
    ASSIGN_OR_RETURN(Reference ref, TakeReference(w, artifact));
    s->refs.push_back(ref);
  }

  s->linker = std::make_unique<wasm::Linker>();
  s->runtime = std::make_unique<wali::WaliRuntime>(s->linker.get());
  if (host::IoUringAvailable()) {
    auto u = std::make_unique<host::IoUringBackend>();
    u->SetTelemetry(s->tel.get());
    s->uring = u.get();
    s->backend = std::move(u);
    s->backend_name = "io_uring";
  } else {
    auto reactor = std::make_unique<host::IoReactor>();
    reactor->SetTelemetry(s->tel.get());
    s->backend = std::move(reactor);
    s->backend_name = "poll";
  }
  host::Supervisor::Options sopts;
  sopts.workers = kWorkers;
  sopts.telemetry = s->tel.get();
  sopts.io_backend = s->backend.get();
  if (spans != nullptr) {
    s->timed_io = std::make_unique<TimedIoBackend>(s->backend.get(), spans, in_window);
    sopts.io_backend = s->timed_io.get();
  }
  s->sup = std::make_unique<host::Supervisor>(s->runtime.get(), sopts);
  return s;
}

// A background loop that stops and joins when it goes out of scope.
class Background {
 public:
  explicit Background(std::function<void(const std::atomic<bool>& stop)> body)
      : thread_([this, body = std::move(body)] { body(stop_); }) {}
  ~Background() { Stop(); }
  Background(const Background&) = delete;
  Background& operator=(const Background&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after stop_ exists
};

// ------------------------------------------------------------ generator ---

// Per-run facts behind the per-layer metrics (echo: one per connection).
struct RunFacts {
  int64_t latency = 0;  // Submit call -> completion observed
  int64_t queue = 0;
  int64_t wall = 0;
  int64_t wali = 0;
  int64_t kernel = 0;
  int64_t blocked = 0;
  int64_t resume_queue = 0;
  int64_t cpu = 0;
  uint64_t instrs = 0;
  uint64_t syscalls = 0;
  uint64_t parks = 0;
  uint64_t ops = 1;  // echo: requests the run served
  bool pooled = false;
};

RunFacts FactsOf(const host::RunReport& r, int64_t latency, uint64_t ops) {
  RunFacts f;
  f.latency = latency;
  f.queue = r.queue_nanos;
  f.wall = r.wall_nanos;
  f.wali = r.wali_nanos;
  f.kernel = r.kernel_nanos;
  f.blocked = r.blocked_nanos;
  f.resume_queue = r.resume_queue_nanos;
  f.cpu = r.cpu_nanos;
  f.instrs = r.executed_instrs;
  f.syscalls = r.total_syscalls;
  f.parks = r.parks;
  f.ops = ops;
  f.pooled = r.pooled;
  return f;
}

// One slice of a measured window: the ops that completed in it, its length
// and the process CPU it used, minus the generator thread's own.
struct Slice {
  double seconds = 0;
  int64_t cpu_ns = 0;
  uint64_t ops = 0;
};

// What a child measured, pooled over its sessions. An untraced run keeps
// nothing per op, so its RSS does not grow with the ops it measures.
struct Samples {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ops_total = 0;  // ops checked, warmup and drain included
  std::vector<Slice> slices;  // every session's, in order
  wali_bench::LatencyHistogram latency;  // every op of every slice
  std::vector<double> rss_mib;
  std::vector<double> setup_s;
  std::vector<int64_t> load_cold_ns;
  // Traced sessions only.
  std::vector<int64_t> late_ns;
  std::vector<int64_t> submit_ns;
  std::vector<int64_t> load_hit_ns;
  std::vector<RunFacts> runs;
  std::vector<int64_t> sweep_ns;
  int64_t evict_busy_ns = 0;
  uint64_t evicted = 0;
  std::vector<int64_t> io_wait_ns;
  std::vector<int64_t> io_deliver_ns;
  uint64_t jit_compiles = 0;
  uint64_t jit_tierups = 0;
  uint64_t jit_osr_exits = 0;
  uint64_t restores = 0;
  uint64_t peak_in_flight = 0;  // max over sessions
  uint64_t sqes = 0;
  uint64_t enters = 0;
};

enum class Phase { kWarmup, kMeasure, kDrain };

// The single load generator: drives one workload through warmup, the
// measured window and a drain, checking every op as it completes.
class Generator {
 public:
  // Session `session` of seed `seed` draws its own input stream.
  Generator(const WorkloadSpec& w, Serving& s, const std::vector<std::string>& artifacts,
         std::seed_seq& seed, SpanLog* spans, std::atomic<bool>* in_window,
         Samples& out)
      : w_(w), s_(s), artifacts_(artifacts), rng_(seed), spans_(spans),
        in_window_(in_window), out_(out) {
    for (int t = 0; t < kTenants; ++t) tenants_.push_back("tenant-" + std::to_string(t));
    first_tenant_ = std::uniform_int_distribution<size_t>(0, kTenants - 1)(rng_);
  }

  // Warmup, then a window of `slices` slices of `slice_ns` each, then the
  // drain.
  void Run(int64_t warmup_ns, int slices, int64_t slice_ns) {
    measure_at_ = Now() + warmup_ns;
    slice_ns_ = slice_ns;
    drain_at_ = measure_at_ + slices * slice_ns;
    Background sampler([this](const std::atomic<bool>& stop) {
      while (!stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (in_window_->load(std::memory_order_acquire)) out_.rss_mib.push_back(RssMiB());
      }
    });
    // The sweeper walirun --evict-parked runs: evict every parked guest,
    // every millisecond.
    std::unique_ptr<Background> evictor;
    if (w_.evict) {
      evictor = std::make_unique<Background>([this](const std::atomic<bool>& stop) {
        uint64_t sweep = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const int64_t t0 = Now();
          const size_t n = s_.sup->EvictAllParked();
          const int64_t t1 = Now();
          if (spans_ != nullptr) {
            spans_->Add("evict.sweep", ++sweep, 0, t0, t1);
            if (in_window_->load(std::memory_order_relaxed)) {
              out_.sweep_ns.push_back(t1 - t0);
              if (n > 0) {
                out_.evict_busy_ns += t1 - t0;
                out_.evicted += n;
              }
            }
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    // The generator thread wakes on time for each due arrival: with the
    // default 50 us timer slack the open loop sent late, which added about
    // 40 us to serve_short's median latency (timed from the due time). Only
    // this thread changes; threads made later, such as the next session's
    // workers, keep the default.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    if (w_.load == LoadKind::kEcho) {
      RunEcho();
    } else {
      RunJobs();
    }
    prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);  // back to the default
    if (evictor != nullptr) evictor->Stop();
    sampler.Stop();
  }

  // This session's sum of RunReport.fuel_consumed, valid after Run.
  uint64_t fuel_sum() const { return fuel_sum_; }

  [[gnu::format(printf, 2, 3)]] void Fail(const char* fmt, ...) {
    if (++out_.failed > 10) return;
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "wali_bench[%s]: FAIL ", w_.name);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
  }

 private:
  struct Pending {
    std::future<host::RunReport> fut;
    uint64_t id = 0;
    size_t client = 0;   // closed loop: the client that sent it
    int tenant = 0;      // index into tenants_
    int64_t due = 0;     // when the op was due to be sent
    int64_t submit = 0;  // when Submit was called
  };

  // Moves the phase along and cuts the window into slices on a fixed grid;
  // the CPU clocks are read at every slice edge. Called on the generator
  // thread only, with the time a completion was stamped or the loop woke.
  void AdvancePhase(int64_t now) {
    if (phase_ == Phase::kWarmup && now >= measure_at_) {
      phase_ = Phase::kMeasure;
      slice_end_ = measure_at_;
      StartSlice(now);
      in_window_->store(true, std::memory_order_release);
    }
    if (phase_ != Phase::kMeasure || now < slice_end_) return;
    Slice& s = CurrentSlice();
    s.seconds = (now - slice_start_) / 1e9;
    s.cpu_ns = (ProcessCpuNanos() - cpu0_) - (common::ThreadCpuNanos() - gen_cpu0_);
    if (now >= drain_at_ || slice_end_ >= drain_at_) {
      phase_ = Phase::kDrain;
      in_window_->store(false, std::memory_order_release);
      return;
    }
    StartSlice(now);
  }

  void StartSlice(int64_t now) {
    out_.slices.emplace_back();
    slice_start_ = now;
    while (slice_end_ <= now && slice_end_ < drain_at_) slice_end_ += slice_ns_;
    cpu0_ = ProcessCpuNanos();
    gen_cpu0_ = common::ThreadCpuNanos();
  }

  Slice& CurrentSlice() { return out_.slices.back(); }

  int64_t NextBoundary() const {
    return phase_ == Phase::kWarmup ? measure_at_ : slice_end_;
  }

  // Open-loop arrivals are independent users: each draws a tenant.
  int RandomTenant() { return std::uniform_int_distribution<int>(0, kTenants - 1)(rng_); }

  // A closed-loop client keeps one tenant. Clients are dealt to tenants
  // round-robin from a seeded start, so every tenant carries the same share
  // of the outstanding ops; drawing per op let the tenants' queues drift
  // apart, and the fair scheduler then made the crowded tenant's ops wait,
  // which swung park_sleep's median latency by half from run to run.
  int ClientTenant(size_t client) const {
    return static_cast<int>((first_tenant_ + client) % kTenants);
  }

  bool traced() const { return spans_ != nullptr; }

  void Span(const char* name, uint64_t id, uint64_t parent, int64_t start, int64_t end) {
    if (traced()) spans_->Add(name, id, parent, start, end);
  }

  Pending Submit(int64_t due, size_t client) {
    Pending p;
    p.id = ++next_id_;
    p.client = client;
    p.due = due;
    p.tenant = w_.load == LoadKind::kOpen ? RandomTenant() : ClientTenant(client);
    const size_t m = p.tenant % s_.modules.size();
    host::GuestJob job;
    job.module = s_.modules[m];
    if (w_.tenant_modules) {
      const int64_t t0 = Now();
      auto module = s_.cache->Load(artifacts_[m]);
      const int64_t t1 = Now();
      if (traced()) out_.load_hit_ns.push_back(t1 - t0);
      Span("module_cache.load", p.id, p.id, t0, t1);
      if (module.ok()) {
        job.module = *module;
      } else {
        Fail("op %" PRIu64 ": ModuleCache::Load: %s", p.id,
             module.status().ToString().c_str());
      }
    }
    job.argv = {"guest"};
    job.tenant = tenants_[p.tenant];
    p.submit = Now();
    p.fut = s_.sup->Submit(std::move(job));
    const int64_t t1 = Now();
    if (traced()) {
      out_.submit_ns.push_back(t1 - p.submit);
      if (phase_ == Phase::kMeasure) out_.late_ns.push_back(p.submit - due);
    }
    Span("supervisor.submit", p.id, p.id, p.submit, t1);
    return p;
  }

  void Finish(Pending& p, int64_t done) {
    host::RunReport r = p.fut.get();
    ++out_.attempted;
    ++out_.ops_total;
    fuel_sum_ += r.fuel_consumed;
    const Reference& ref = s_.refs[p.tenant % s_.refs.size()];
    if (!r.completed() || r.exit_code != ref.exit_code || r.executed_instrs != ref.instrs ||
        r.fuel_consumed != r.executed_instrs) {
      Fail("op %" PRIu64 ": outcome %s trap %s exit %d instrs %" PRIu64
           " (reference: exit %d instrs %" PRIu64 ") %s",
           p.id, host::OutcomeName(r.outcome), wasm::TrapKindName(r.trap),
           r.exit_code, r.executed_instrs, ref.exit_code, ref.instrs,
           r.trap_message.c_str());
    }
    Span("op", p.id, 0, p.due, done);
    AdvancePhase(done);
    if (phase_ == Phase::kMeasure) {
      // Open loop: from when the op was due, so a stall also charges the
      // ops queued behind it. Closed loop: from the send.
      ++CurrentSlice().ops;
      out_.latency.Add(done - (w_.load == LoadKind::kOpen ? p.due : p.submit));
      if (traced()) out_.runs.push_back(FactsOf(r, done - p.submit, 1));
    }
  }

  struct Completion {
    int64_t done = 0;
    size_t client = 0;
  };

  // Completion stamps come from this one thread: a non-blocking sweep that
  // stamps every op already done.
  std::vector<Completion> Harvest(std::list<Pending>& out) {
    std::vector<Completion> done;
    for (auto it = out.begin(); it != out.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      const int64_t t = Now();
      Finish(*it, t);
      done.push_back({t, it->client});
      it = out.erase(it);
    }
    return done;
  }

  void Drain(std::list<Pending>& out) {
    const int64_t deadline = Now() + kDrainTimeoutNs;
    while (!out.empty()) {
      const int64_t left = deadline - Now();
      if (out.front().fut.wait_for(std::chrono::nanoseconds(std::max<int64_t>(left, 0))) !=
          std::future_status::ready) {
        Fail("drain timed out with %zu ops outstanding; shutting down", out.size());
        s_.sup->Shutdown();  // resolves every future (parked runs are shed)
      }
      Finish(out.front(), Now());
      out.pop_front();
    }
  }

  // Open loop (Poisson arrivals) or closed loop (a fixed number of ops
  // outstanding, each replaced as soon as it completes).
  void RunJobs() {
    const bool open = w_.load == LoadKind::kOpen;
    std::exponential_distribution<double> gap_s(open ? w_.rate : 1.0);
    std::list<Pending> out;
    int64_t next_due = Now();
    if (!open) {
      for (size_t c = 0; c < w_.concurrency; ++c) out.push_back(Submit(Now(), c));
    }
    while (true) {
      int64_t now = Now();
      AdvancePhase(now);
      if (phase_ == Phase::kDrain) break;
      int64_t wake = NextBoundary();
      if (open) {
        if (now >= next_due) {
          out.push_back(Submit(next_due, 0));
          next_due += static_cast<int64_t>(gap_s(rng_) * 1e9);
          continue;
        }
        wake = std::min(wake, next_due);
      }
      if (out.empty()) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
        continue;
      }
      // Wait on the oldest op. The open loop also sweeps whenever an
      // arrival falls due, so one slow op cannot hold back the stamps of the
      // ops that finished behind it.
      const bool oldest_done =
          out.front().fut.wait_for(std::chrono::nanoseconds(wake - now)) ==
          std::future_status::ready;
      if (!oldest_done && !open) continue;
      for (const Completion& c : Harvest(out)) {
        if (!open) out.push_back(Submit(c.done, c.client));
      }
    }
    Drain(out);
  }

  // Closed loop over socketpair connections, one long-lived echo guest per
  // connection and one request outstanding on each.
  void RunEcho() {
    struct Conn {
      int client = -1;
      int guest = -1;
      std::future<host::RunReport> fut;
      int64_t submit = 0;
      unsigned char req[kEchoBytes];
      unsigned char got[kEchoBytes];
      size_t have = 0;
      int64_t sent = 0;
      bool waiting = false;
      uint64_t served = 0;
      uint64_t op = 0;
    };
    std::vector<Conn> conns(w_.concurrency);
    std::uniform_int_distribution<int> byte(0, 255);
    auto send = [&](Conn& c, int64_t due) {
      for (unsigned char& b : c.req) b = static_cast<unsigned char>(byte(rng_));
      c.op = ++next_id_;
      c.have = 0;
      c.sent = Now();
      if (traced() && phase_ == Phase::kMeasure) out_.late_ns.push_back(c.sent - due);
      if (write(c.client, c.req, kEchoBytes) != static_cast<ssize_t>(kEchoBytes)) {
        ++out_.attempted;
        Fail("echo op %" PRIu64 ": request write failed", c.op);
        return;
      }
      c.waiting = true;
    };

    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      int sv[2];
      if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        Fail("socketpair failed: %s", std::strerror(errno));
        continue;
      }
      c.client = sv[0];
      c.guest = sv[1];
      host::GuestJob job;
      job.module = s_.modules[0];
      job.argv = {"echo", FdArg(c.guest)};
      job.tenant = tenants_[ClientTenant(i)];
      const uint64_t id = ++next_id_;
      c.submit = Now();
      c.fut = s_.sup->Submit(std::move(job));
      const int64_t t1 = Now();
      if (traced()) out_.submit_ns.push_back(t1 - c.submit);
      Span("supervisor.submit", id, id, c.submit, t1);
      send(c, Now());
    }

    int64_t drain_deadline = 0;
    std::vector<pollfd> fds;
    std::vector<Conn*> owners;
    while (true) {
      const int64_t now = Now();
      AdvancePhase(now);
      if (phase_ == Phase::kDrain) {
        if (drain_deadline == 0) drain_deadline = now + kDrainTimeoutNs;
        bool any = false;
        for (const Conn& c : conns) any = any || c.waiting;
        if (!any) break;
        if (now >= drain_deadline) {
          Fail("echo drain timed out");
          break;
        }
      }
      fds.clear();
      owners.clear();
      for (Conn& c : conns) {
        if (!c.waiting) continue;
        fds.push_back({c.client, POLLIN, 0});
        owners.push_back(&c);
      }
      if (fds.empty()) break;  // every connection failed
      const int64_t until = phase_ == Phase::kDrain ? drain_deadline : NextBoundary();
      const int timeout_ms = static_cast<int>(std::max<int64_t>(until - now, 0) / 1000000 + 1);
      if (poll(fds.data(), fds.size(), timeout_ms) <= 0) continue;
      for (size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        Conn& c = *owners[i];
        ssize_t n = read(c.client, c.got + c.have, kEchoBytes - c.have);
        if (n <= 0) {
          ++out_.attempted;
          Fail("echo op %" PRIu64 ": connection closed mid-request", c.op);
          c.waiting = false;
          continue;
        }
        c.have += static_cast<size_t>(n);
        if (c.have < kEchoBytes) continue;
        const int64_t done = Now();
        c.waiting = false;
        ++out_.attempted;
        ++out_.ops_total;
        ++c.served;
        if (std::memcmp(c.req, c.got, kEchoBytes) != 0) {
          Fail("echo op %" PRIu64 ": reply differs from request", c.op);
        }
        Span("op", c.op, 0, c.sent, done);
        AdvancePhase(done);
        if (phase_ == Phase::kMeasure) {
          ++CurrentSlice().ops;
          out_.latency.Add(done - c.sent);
        }
        if (phase_ != Phase::kDrain) send(c, done);
      }
    }

    // EOF ends every guest; each run must match the reference for the
    // number of requests it served.
    for (Conn& c : conns) {
      if (c.client >= 0) shutdown(c.client, SHUT_WR);
    }
    for (Conn& c : conns) {
      if (!c.fut.valid()) continue;
      if (c.fut.wait_for(std::chrono::nanoseconds(kDrainTimeoutNs)) !=
          std::future_status::ready) {
        Fail("echo guest did not exit after EOF; shutting down");
        s_.sup->Shutdown();
      }
      host::RunReport r = c.fut.get();
      const int64_t done = Now();
      ++out_.attempted;
      fuel_sum_ += r.fuel_consumed;
      const uint64_t want = s_.refs[0].instrs + s_.refs[0].per_request * c.served;
      if (!r.completed() || r.exit_code != 0 || r.executed_instrs != want ||
          r.fuel_consumed != r.executed_instrs) {
        Fail("echo guest: outcome %s trap %s exit %d instrs %" PRIu64
             " (reference: exit 0 instrs %" PRIu64 " for %" PRIu64 " requests)",
             host::OutcomeName(r.outcome), wasm::TrapKindName(r.trap), r.exit_code,
             r.executed_instrs, want, c.served);
      }
      if (traced()) {
        out_.runs.push_back(FactsOf(r, done - c.submit, std::max<uint64_t>(c.served, 1)));
      }
    }
    for (Conn& c : conns) {
      if (c.client >= 0) close(c.client);
      if (c.guest >= 0) close(c.guest);
    }
  }

  const WorkloadSpec& w_;
  Serving& s_;
  const std::vector<std::string>& artifacts_;
  std::mt19937_64 rng_;
  SpanLog* spans_;
  std::atomic<bool>* in_window_;
  std::vector<std::string> tenants_;
  size_t first_tenant_ = 0;

  // Written by the sampler (rss_mib) and evictor (sweep, evict) threads
  // too, each on fields only it touches; read after Run joins them.
  Samples& out_;

  Phase phase_ = Phase::kWarmup;
  int64_t measure_at_ = 0;
  int64_t drain_at_ = 0;
  int64_t slice_ns_ = 0;
  int64_t slice_start_ = 0;
  int64_t slice_end_ = 0;
  int64_t cpu0_ = 0;
  int64_t gen_cpu0_ = 0;
  uint64_t next_id_ = 0;
  uint64_t fuel_sum_ = 0;
};

// Traced runs only: 3 threads call ModuleCache::Load, InstancePool::Acquire
// and Lease::Release directly on the workload's module, on a pool of their
// own, after the measured window.
struct ProbeResult {
  std::vector<int64_t> load_ns, acquire_ns, release_ns;
  int errors = 0;
};

ProbeResult PoolProbe(Serving& s, const std::string& artifact, SpanLog* spans) {
  host::InstancePool pool(s.runtime.get());
  std::vector<ProbeResult> per(kProbeThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kProbeThreads; ++t) {
    threads.emplace_back([&, t] {
      ProbeResult& r = per[t];
      for (int i = 0; i < kProbeIters; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * kProbeIters + i + 1;
        const int64_t t0 = Now();
        auto module = s.cache->Load(artifact);
        const int64_t t1 = Now();
        if (!module.ok()) {
          ++r.errors;
          return;
        }
        auto lease = pool.Acquire(*module, {"probe"}, {});
        const int64_t t2 = Now();
        if (!lease.ok()) {
          ++r.errors;
          return;
        }
        lease->Release();
        const int64_t t3 = Now();
        r.load_ns.push_back(t1 - t0);
        r.acquire_ns.push_back(t2 - t1);
        r.release_ns.push_back(t3 - t2);
        spans->Add("module_cache.load", id, 0, t0, t1);
        spans->Add("pool.acquire", id, 0, t1, t2);
        spans->Add("pool.release", id, 0, t2, t3);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ProbeResult all;
  for (ProbeResult& r : per) {
    all.load_ns.insert(all.load_ns.end(), r.load_ns.begin(), r.load_ns.end());
    all.acquire_ns.insert(all.acquire_ns.end(), r.acquire_ns.begin(), r.acquire_ns.end());
    all.release_ns.insert(all.release_ns.end(), r.release_ns.begin(), r.release_ns.end());
    all.errors += r.errors;
  }
  return all;
}

// Per-layer metrics of a traced child, from RunReport fields over the
// measured windows, bench clocks, the pool probe and the io decorator.
std::vector<Metric> LayerMetrics(Samples& all, ProbeResult& probe, int sessions) {
  std::vector<Metric> m;
  std::vector<int64_t> queue, blocked, resume_queue, self, host_other;
  double sum_ops = 0, sum_self = 0, sum_instrs = 0, sum_cpu = 0, sum_wall = 0;
  double sum_wali = 0, sum_kernel = 0, sum_syscalls = 0, sum_parks = 0;
  double sum_latency = 0, sum_covered = 0, pooled = 0;
  for (const RunFacts& f : all.runs) {
    const int64_t n = static_cast<int64_t>(f.ops);
    const int64_t self_ns = f.wall - f.wali - f.kernel;
    queue.push_back(f.queue);
    blocked.push_back(f.blocked / n);
    resume_queue.push_back(f.resume_queue / n);
    self.push_back(self_ns / n);
    host_other.push_back(f.latency - f.queue - f.wall - f.blocked);
    sum_ops += f.ops;
    sum_self += self_ns;
    sum_instrs += f.instrs;
    sum_cpu += f.cpu;
    sum_wall += f.wall;
    sum_wali += f.wali;
    sum_kernel += f.kernel;
    sum_syscalls += f.syscalls;
    sum_parks += f.parks;
    sum_latency += f.latency;
    sum_covered += f.queue + f.wall + f.blocked;
    pooled += f.pooled ? 1 : 0;
  }
  std::vector<int64_t> load_hit = all.load_hit_ns;
  load_hit.insert(load_hit.end(), probe.load_ns.begin(), probe.load_ns.end());
  const double all_ops = static_cast<double>(all.ops_total);
  Add(m, "module_cache.load_cold_us", "us", Median(all.load_cold_ns) / 1e3);
  Add(m, "module_cache.load_hit_us_p50", "us", Percentile(load_hit, 50) / 1e3);
  Add(m, "supervisor.submit_us_p50", "us", Percentile(all.submit_ns, 50) / 1e3);
  Add(m, "supervisor.queue_us_p50", "us", Percentile(queue, 50) / 1e3);
  Add(m, "supervisor.queue_us_p90", "us", Percentile(queue, 90) / 1e3);
  Add(m, "supervisor.host_other_us_p50", "us", Percentile(host_other, 50) / 1e3);
  Add(m, "supervisor.blocked_us_p50", "us", Percentile(blocked, 50) / 1e3);
  Add(m, "supervisor.resume_queue_us_p50", "us", Percentile(resume_queue, 50) / 1e3);
  Add(m, "supervisor.parks_per_op", "count", Ratio(sum_parks, sum_ops));
  Add(m, "supervisor.peak_in_flight", "count", static_cast<double>(all.peak_in_flight));
  Add(m, "instance_pool.hit_ratio", "ratio", Ratio(pooled, all.runs.size()));
  Add(m, "instance_pool.acquire_us_p50", "us", Percentile(probe.acquire_ns, 50) / 1e3);
  Add(m, "instance_pool.release_us_p50", "us", Percentile(probe.release_ns, 50) / 1e3);
  Add(m, "exec.self_us_p50", "us", Percentile(self, 50) / 1e3);
  Add(m, "exec.ns_per_instr", "ns", Ratio(sum_self, sum_instrs));
  Add(m, "exec.cpu_per_wall", "ratio", Ratio(sum_cpu, sum_wall));
  Add(m, "jit.compiles", "count", Ratio(all.jit_compiles, sessions));
  Add(m, "jit.tierups_per_op", "count", Ratio(all.jit_tierups, all_ops));
  Add(m, "jit.osr_exits_per_op", "count", Ratio(all.jit_osr_exits, all_ops));
  Add(m, "wali.handler_us_per_op", "us", Ratio(sum_wali / 1e3, sum_ops));
  Add(m, "wali.kernel_us_per_op", "us", Ratio(sum_kernel / 1e3, sum_ops));
  Add(m, "wali.syscalls_per_op", "count", Ratio(sum_syscalls, sum_ops));
  Add(m, "io.wait_us_p50", "us", Percentile(all.io_wait_ns, 50) / 1e3);
  Add(m, "io.deliver_us_p50", "us", Percentile(all.io_deliver_ns, 50) / 1e3);
  Add(m, "io.sqes_per_enter", "ratio", Ratio(all.sqes, all.enters));
  Add(m, "evict.sweep_us_p50", "us", Percentile(all.sweep_ns, 50) / 1e3);
  Add(m, "evict.us_per_guest", "us", Ratio(all.evict_busy_ns / 1e3, all.evicted));
  Add(m, "evict.restores_per_op", "count", Ratio(all.restores, all_ops));
  Add(m, "layer.coverage", "ratio", Ratio(sum_covered, sum_latency));
  Add(m, "loadgen.late_p99_us", "us", Percentile(all.late_ns, 99) / 1e3);
  return m;
}

// Engine-side counters of one traced session, added into `all` before the
// session is torn down.
void HarvestSession(Serving& s, Samples& all) {
  for (const auto& module : s.modules) {
    if (const wasm::JitModuleState* jit = module->jit.get()) {
      all.jit_compiles += jit->compiles.load();
      all.jit_tierups += jit->tierups.load();
      all.jit_osr_exits += jit->osr_exits.load();
    }
  }
  all.restores += s.tel->registry().GetCounter("supervisor_restores_total")->value();
  all.peak_in_flight = std::max<uint64_t>(all.peak_in_flight,
                                          s.sup->io_stats().peak_in_flight);
  if (s.uring != nullptr) {
    const host::IoUringBackend::Stats us = s.uring->stats();
    all.sqes += us.sqes;
    all.enters += us.enters;
  }
  auto [wait, deliver] = s.timed_io->Samples();
  all.io_wait_ns.insert(all.io_wait_ns.end(), wait.begin(), wait.end());
  all.io_deliver_ns.insert(all.io_deliver_ns.end(), deliver.begin(), deliver.end());
}

// ---------------------------------------------------------------- child ---

struct Timing {
  double warmup_s = kWarmupSeconds;  // per session
  double window_s = 12.0;            // split evenly over the sessions
  int sessions = kSessions;
  double slice_s = kSliceSeconds;
  int setup_reps = kSetupReps;  // per session

  int SlicesPerSession() const {
    return std::max(1, static_cast<int>(std::lround(window_s / sessions / slice_s)));
  }
};

// Set-up repeated back to back `timing.setup_reps` times; returns the last
// session, every set-up's time recorded in `all`.
common::StatusOr<std::unique_ptr<Serving>> SetUpRepeatedly(
    const WorkloadSpec& w, const std::vector<std::string>& artifacts, const Timing& timing,
    SpanLog* spans, const std::atomic<bool>* in_window, Samples& all) {
  std::unique_ptr<Serving> s;
  for (int rep = 0; rep < timing.setup_reps; ++rep) {
    s.reset();
    const int64_t t0 = Now();
    ASSIGN_OR_RETURN(s, SetUp(w, artifacts, spans, in_window));
    all.setup_s.push_back((Now() - t0) / 1e9);
    all.load_cold_ns.insert(all.load_cold_ns.end(), s->load_cold_ns.begin(),
                            s->load_cold_ns.end());
  }
  return s;
}

// One workload, one process. Writes "metric <name> <unit> <value>" lines,
// "backend <name>" and a final "result <attempted> <failed> <correct>" to
// `result_fd`; returns the process exit code.
int RunChild(const WorkloadSpec& w, uint64_t seed, const Timing& timing,
             const std::string& trace_dir, int result_fd) {
  const bool traced = !trace_dir.empty();
  std::vector<std::string> artifacts;
  for (int t = 0; t < (w.tenant_modules ? kTenants : 1); ++t) {
    std::string artifact = w.wat(t);
    if (w.tenant_modules) {
      // A tenant's deploy artifact is binary .wasm bytes, as a registry
      // would store them.
      auto parsed = wasm::ParseAndValidateWat(artifact);
      if (!parsed.ok()) {
        std::fprintf(stderr, "wali_bench[%s]: guest: %s\n", w.name,
                     parsed.status().ToString().c_str());
        return 1;
      }
      std::vector<uint8_t> encoded = wasm::EncodeModule(**parsed);
      artifact.assign(encoded.begin(), encoded.end());
    }
    artifacts.push_back(std::move(artifact));
  }

  std::unique_ptr<SpanLog> spans;
  if (traced) spans = std::make_unique<SpanLog>(kSpanCapacity);
  std::atomic<bool> in_window{false};
  Samples all;
  ProbeResult probe;
  std::string backend;
  bool checks_ok = true;
  for (int session = 0; session < timing.sessions; ++session) {
    auto made = SetUpRepeatedly(w, artifacts, timing, spans.get(), &in_window, all);
    if (!made.ok()) {
      std::fprintf(stderr, "wali_bench[%s]: setup: %s\n", w.name,
                   made.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Serving> s = std::move(*made);
    backend = s->backend_name;
    std::seed_seq session_seed{seed, static_cast<uint64_t>(session)};
    Generator d(w, *s, artifacts, session_seed, spans.get(), &in_window, all);
    d.Run(static_cast<int64_t>(timing.warmup_s * 1e9), timing.SlicesPerSession(),
          static_cast<int64_t>(timing.window_s / timing.sessions /
                               timing.SlicesPerSession() * 1e9));

    uint64_t ledger_fuel = 0;
    for (const auto& [tenant, usage] : s->sup->ledger().Snapshot()) ledger_fuel += usage.fuel;
    if (ledger_fuel != d.fuel_sum()) {
      std::fprintf(stderr, "wali_bench[%s]: FAIL ledger fuel %" PRIu64
                   " != sum of RunReport.fuel_consumed %" PRIu64 "\n",
                   w.name, ledger_fuel, d.fuel_sum());
      checks_ok = false;
    }
    if (!traced) continue;
    HarvestSession(*s, all);
    if (session + 1 < timing.sessions) continue;
    // The last traced session also runs the pool probe and writes traces.
    probe = PoolProbe(*s, artifacts[0], spans.get());
    if (probe.errors > 0) d.Fail("pool probe: %d acquire errors", probe.errors);
    const std::string base = trace_dir + "/" + w.name;
    if (!host::Telemetry::WriteFile(base + ".bench_trace.json", spans->ChromeTraceJson()) ||
        !host::Telemetry::WriteFile(base + ".telemetry_trace.json",
                                    s->tel->ChromeTraceJson())) {
      std::fprintf(stderr, "wali_bench[%s]: cannot write traces under %s\n",
                   w.name, trace_dir.c_str());
      checks_ok = false;
    }
  }

  // Each of these is taken per slice, then as its median over all the
  // run's slices.
  std::vector<double> throughput, cpu_per_op;
  for (const Slice& s : all.slices) {
    const double ops = static_cast<double>(s.ops);
    throughput.push_back(Ratio(ops, s.seconds));
    if (ops > 0) cpu_per_op.push_back(s.cpu_ns / ops);
  }
  std::vector<Metric> m;
  Add(m, "throughput_ops_s", "ops/s", Median(throughput));
  Add(m, "cpu_us_per_op", "us", Median(cpu_per_op) / 1e3);
  Add(m, "rss_p50_mib", "MiB", Median(all.rss_mib));
  Add(m, "error_rate", "ratio", Ratio(static_cast<double>(all.failed), all.attempted));
  Add(m, "setup_s", "s", Median(all.setup_s));
  // Reported, not gated. Latency moves with how fast the host wakes an idle
  // vCPU for the generator and the workers: on serve_short, ten runs of the
  // same code read a median latency of 0.21-1.1 ms.
  Add(m, "latency.p50_us", "us", all.latency.Percentile(50) / 1e3);
  Add(m, "latency.p90_us", "us", all.latency.Percentile(90) / 1e3);
  Add(m, "latency.p99_us", "us", all.latency.Percentile(99) / 1e3);
  Add(m, "latency.p999_us", "us", all.latency.Percentile(99.9) / 1e3);
  Add(m, "latency.samples", "count", static_cast<double>(all.latency.count()));
  Add(m, "rss.peak_mib", "MiB", all.rss_mib.empty()
          ? 0 : *std::max_element(all.rss_mib.begin(), all.rss_mib.end()));
  if (traced) {
    for (Metric& x : LayerMetrics(all, probe, timing.sessions)) m.push_back(std::move(x));
  }

  const bool correct = all.failed == 0 && checks_ok;
  std::string out = "backend " + backend + "\n";
  char line[256];
  for (const Metric& x : m) {
    std::snprintf(line, sizeof(line), "metric %s %s %.17g\n", x.name.c_str(),
                  x.unit.c_str(), x.value);
    out += line;
  }
  std::snprintf(line, sizeof(line), "result %" PRIu64 " %" PRIu64 " %d\n",
                all.attempted, all.failed, correct ? 1 : 0);
  out += line;
  for (size_t off = 0; off < out.size();) {
    ssize_t n = write(result_fd, out.data() + off, out.size() - off);
    if (n <= 0) return 1;
    off += static_cast<size_t>(n);
  }
  return correct ? 0 : 1;
}

// --------------------------------------------------------------- parent ---

struct Options {
  uint64_t seed = 1;
  std::string workload;  // empty: all six
  double seconds = -1;   // measured window; <0: the mode's default
  int sessions = 0;      // set by the parent for its children; 0: default
  std::string trace_dir;
  std::string json_path;
  bool quick = false;
};

Timing TimingFor(const Options& o) {
  Timing t;
  if (o.quick) {
    t.warmup_s = 0.1;
    t.window_s = 0.3;
    t.sessions = 1;
    t.slice_s = 0.1;
    t.setup_reps = 1;
  }
  if (o.seconds > 0) t.window_s = o.seconds;
  if (o.sessions > 0) t.sessions = o.sessions;
  return t;
}

struct ChildResult {
  bool reported = false;
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string backend;
  std::vector<Metric> metrics;

  const Metric* Find(const std::string& name) const {
    for (const Metric& x : metrics) {
      if (x.name == name) return &x;
    }
    return nullptr;
  }
};

// Runs one workload in a fresh process (this binary, re-executed) and
// parses what it reports. A child that hangs past `timeout_s` is killed.
ChildResult RunInChild(const std::string& workload, const Options& o,
                       const Timing& t, bool traced) {
  ChildResult res;
  int fds[2];
  if (pipe(fds) != 0) return res;
  fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%.17g", t.window_s);
  std::vector<std::string> args = {"wali_bench", "--child", workload,
                                   "--seed", std::to_string(o.seed),
                                   "--seconds", seconds,
                                   "--sessions", std::to_string(t.sessions),
                                   "--result-fd", std::to_string(fds[1])};
  if (o.quick) args.push_back("--quick");
  if (traced) {
    args.push_back("--trace");
    args.push_back(o.trace_dir);
  }
  std::vector<char*> cargs;
  for (std::string& a : args) cargs.push_back(a.data());
  cargs.push_back(nullptr);
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    // Never outlive the parent, even when it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    execv("/proc/self/exe", cargs.data());
    _exit(127);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    return res;
  }

  const double timeout_s = 30 + 2 * (t.sessions * t.warmup_s + t.window_s);
  const int64_t deadline = Now() + static_cast<int64_t>(timeout_s * 1e9);
  std::string text;
  bool timed_out = false;
  while (true) {
    const int64_t left_ms = (deadline - Now()) / 1000000;
    if (left_ms <= 0) {
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(left_ms)) <= 0) continue;
    char buf[4096];
    ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  if (timed_out) {
    std::fprintf(stderr, "wali_bench[%s]: child timed out after %.0f s; killed\n",
                 workload.c_str(), timeout_s);
    kill(pid, SIGKILL);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  if (timed_out) return res;

  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    char name[128], unit[32];
    double value = 0;
    unsigned long long attempted = 0, failed = 0;
    int correct = 0;
    if (std::sscanf(line.c_str(), "metric %127s %31s %lf", name, unit, &value) == 3) {
      res.metrics.push_back({name, unit, value});
    } else if (std::sscanf(line.c_str(), "result %llu %llu %d", &attempted, &failed,
                           &correct) == 3) {
      res.reported = true;
      res.attempted = attempted;
      res.failed = failed;
      res.correct = correct != 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    } else if (line.rfind("backend ", 0) == 0) {
      res.backend = line.substr(8);
    }
  }
  return res;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonMetrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\n        \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ",", ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

// What one workload reports: e2e metrics and the latency and RSS
// distribution from the untraced run, per-layer metrics from the traced run.
struct WorkloadResult {
  std::string name;
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e, distribution, layer;
};

// trace.overhead_pct: how much worse the traced run's headline metric read
// — CPU per op for the open-loop workload, whose throughput is its arrival
// rate, and throughput for the rest.
double TraceOverheadPct(const WorkloadSpec& w, const ChildResult& plain,
                        const ChildResult& traced) {
  const bool open = w.load == LoadKind::kOpen;
  const char* headline = open ? "cpu_us_per_op" : "throughput_ops_s";
  const Metric* a = plain.Find(headline);
  const Metric* b = traced.Find(headline);
  if (a == nullptr || b == nullptr || a->value == 0) return 0;
  const double worse = open ? b->value - a->value : a->value - b->value;
  return 100.0 * worse / a->value;
}

int Usage() {
  std::fprintf(stderr,
               "usage: wali_bench --seed S [--workload NAME] [--seconds X] "
               "[--trace DIR] [--json FILE] [--quick]\n"
               "workloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(const Options& o) {
  std::vector<const WorkloadSpec*> selected;
  for (const WorkloadSpec& w : kWorkloads) {
    if (o.workload.empty() || o.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return Usage();
  const bool trace = !o.trace_dir.empty();
  // A traced run measures the window in two halves, untraced then traced,
  // each over half the sessions, so it costs about as much time as an
  // untraced one.
  Timing t = TimingFor(o);
  if (trace) {
    t.window_s /= 2;
    t.sessions = std::max(1, t.sessions / 2);
  }
  if (trace && mkdir(o.trace_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "wali_bench: cannot create %s\n", o.trace_dir.c_str());
    return 1;
  }

  std::vector<WorkloadResult> results;
  std::string backend;
  bool all_correct = true;
  for (const WorkloadSpec* w : selected) {
    WorkloadResult r;
    r.name = w->name;
    ChildResult plain = RunInChild(w->name, o, t, false);
    ChildResult traced;
    if (trace) traced = RunInChild(w->name, o, t, true);
    r.correct = plain.reported && plain.correct && (!trace || (traced.reported && traced.correct));
    r.attempted = plain.attempted + traced.attempted;
    r.failed = plain.failed + traced.failed;
    if (!plain.backend.empty()) backend = plain.backend;
    for (const Metric& x : plain.metrics) {
      if (kEndToEnd.count(x.name) != 0) r.e2e.push_back(x);
      if (IsDistribution(x.name)) r.distribution.push_back(x);
    }
    if (trace) {
      for (const Metric& x : traced.metrics) {
        if (kEndToEnd.count(x.name) == 0 && !IsDistribution(x.name)) r.layer.push_back(x);
      }
      r.layer.push_back({"trace.overhead_pct", "%", TraceOverheadPct(*w, plain, traced)});
    }
    all_correct = all_correct && r.correct;

    std::printf("== %s: %s, seed %" PRIu64 ", %.3g s window over %d sessions, %zu workers,"
                " io %s ==\n",
                w->name, r.correct ? "all checks passed" : "CHECKS FAILED", o.seed,
                t.window_s, t.sessions, kWorkers, plain.backend.c_str());
    for (const std::vector<Metric>* group : {&r.e2e, &r.distribution, &r.layer}) {
      for (const Metric& x : *group) {
        std::printf("%-14s %-32s %14.4f %s\n", w->name, x.name.c_str(), x.value,
                    x.unit.c_str());
      }
    }
    const Metric* samples = plain.Find("latency.samples");
    if (samples != nullptr) {
      std::printf("%-14s deepest tail with >=10 samples beyond it: p%g of %.0f\n",
                  w->name, wali_bench::SupportedTailPercentile(
                               static_cast<size_t>(samples->value)),
                  samples->value);
    }
    std::printf("%-14s attempted %" PRIu64 " failed %" PRIu64 "\n", w->name,
                r.attempted, r.failed);
    std::fflush(stdout);
    results.push_back(std::move(r));
  }

  if (!o.json_path.empty()) {
    std::string j = "{\n  \"benchmark\": \"wali_bench\",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"seed\": %" PRIu64 ",\n  \"sessions\": %d,\n  \"warmup_s\": %.17g,\n"
                  "  \"window_s\": %.17g,\n  \"slice_s\": %.17g,\n"
                  "  \"quick\": %s,\n  \"traced\": %s,\n",
                  o.seed, t.sessions, t.warmup_s, t.window_s,
                  t.window_s / t.sessions / t.SlicesPerSession(), o.quick ? "true" : "false",
                  trace ? "true" : "false");
    j += buf;
    j += "  \"fingerprint\": {";
    const auto fp = wali_bench::HostFingerprint(backend);
    for (size_t i = 0; i < fp.size(); ++i) {
      j += (i == 0 ? "\n    \"" : ",\n    \"") + fp[i].first + "\": \"" +
           JsonEscape(fp[i].second) + "\"";
    }
    j += "},\n  \"workloads\": {";
    for (size_t i = 0; i < results.size(); ++i) {
      const WorkloadResult& r = results[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n    \"%s\": {\n      \"correct\": %s,\n"
                    "      \"attempted\": %" PRIu64 ",\n      \"failed\": %" PRIu64 ",\n",
                    i == 0 ? "" : ",", r.name.c_str(), r.correct ? "true" : "false",
                    r.attempted, r.failed);
      j += buf;
      j += "      \"e2e\": " + JsonMetrics(r.e2e) + ",\n";
      j += "      \"distribution\": " + JsonMetrics(r.distribution) + ",\n";
      j += "      \"layer\": " + JsonMetrics(r.layer) + "\n    }";
    }
    j += "}\n}\n";
    if (!host::Telemetry::WriteFile(o.json_path, j)) {
      std::fprintf(stderr, "wali_bench: cannot write %s\n", o.json_path.c_str());
      return 1;
    }
  }
  return all_correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string child;
  int result_fd = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace_dir = argv[++i];
    } else if (arg == "--json" && has_value) {
      o.json_path = argv[++i];
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--child" && has_value) {
      child = argv[++i];
    } else if (arg == "--sessions" && has_value) {
      o.sessions = std::atoi(argv[++i]);
    } else if (arg == "--result-fd" && has_value) {
      result_fd = std::atoi(argv[++i]);
    } else {
      return Usage();
    }
  }
  if (!o.workload.empty() && FindSpec(o.workload) == nullptr) return Usage();
  if (!child.empty()) {
    const WorkloadSpec* w = FindSpec(child);
    if (w == nullptr || result_fd < 0) return Usage();
    return RunChild(*w, o.seed, TimingFor(o), o.trace_dir, result_fd);
  }
  return Main(o);
}
