#include "src/host/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace host {

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kCompleted: return "completed";
    case Outcome::kTrapped: return "trapped";
    case Outcome::kShed: return "shed";
    case Outcome::kRejected: return "rejected";
    case Outcome::kBudget: return "budget";
  }
  return "<bad>";
}

const char* SpanEventName(SpanEvent e) {
  switch (e) {
    case SpanEvent::kSubmit: return "submit";
    case SpanEvent::kDispatch: return "dispatch";
    case SpanEvent::kPark: return "park";
    case SpanEvent::kIoComplete: return "io_complete";
    case SpanEvent::kResume: return "resume";
    case SpanEvent::kFinish: return "finish";
    case SpanEvent::kEvict: return "evict";
    case SpanEvent::kRestore: return "restore";
  }
  return "<bad>";
}

namespace {

// Escapes a string for use inside a JSON string literal or a Prometheus
// label value (the two formats share the \\ \" \n escapes we need).
std::string EscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Metric family name: everything before the '{' that starts embedded labels.
std::string BaseName(const std::string& name) {
  size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

// Function-space name for local function `i` of `m` (imports come first).
std::string FuncDisplayName(const wasm::Module& m, size_t i) {
  const std::string& dbg = m.functions[i].debug_name;
  if (!dbg.empty()) {
    return dbg;
  }
  return "f" + std::to_string(m.num_imported_funcs + i);
}

}  // namespace

uint32_t Telemetry::InternTenantLocked(const std::string& tenant) {
  auto it = tenant_ids_.find(tenant);
  if (it != tenant_ids_.end()) {
    return it->second;
  }
  if (tenant_ids_.size() >= opts_.max_tenants) {
    // Cardinality bound: every tenant beyond the cap shares the overflow
    // row. Its counts stay exact in aggregate, just unattributed.
    if (tenant_names_.find(0) == tenant_names_.end()) {
      tenant_names_[0] = "_other";
    }
    return 0;
  }
  uint32_t id = next_tenant_id_++;
  tenant_ids_[tenant] = id;
  tenant_names_[id] = tenant;
  return id;
}

void Telemetry::PushEventLocked(TraceEvent ev) {
  if (opts_.span_capacity == 0) {
    ++spans_dropped_;
    return;
  }
  while (spans_.size() >= opts_.span_capacity) {
    spans_.pop_front();
    ++spans_dropped_;
  }
  spans_.push_back(ev);
}

Telemetry::RunHandle Telemetry::BeginRun(const std::string& tenant,
                                         int64_t t_nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  RunHandle h;
  h.id = next_run_id_++;
  h.tenant = InternTenantLocked(tenant);
  series_[h.tenant].submitted += 1;
  TraceEvent ev;
  ev.run_id = h.id;
  ev.tenant = h.tenant;
  ev.event = SpanEvent::kSubmit;
  ev.t_nanos = t_nanos;
  PushEventLocked(ev);
  return h;
}

void Telemetry::Record(RunHandle run, SpanEvent event, int64_t t_nanos,
                       uint64_t fuel) {
  if (!run.valid()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent ev;
  ev.run_id = run.id;
  ev.tenant = run.tenant;
  ev.event = event;
  ev.t_nanos = t_nanos;
  ev.fuel = fuel;
  PushEventLocked(ev);
}

void Telemetry::EndRun(RunHandle run, Outcome outcome, int64_t t_nanos,
                       uint64_t fuel) {
  if (!run.valid()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // A forgotten tenant's in-flight run re-creates its series row here with
  // only the finish visible — the submit was counted in the dropped row.
  series_[run.tenant].outcomes[static_cast<size_t>(outcome)] += 1;
  TraceEvent ev;
  ev.run_id = run.id;
  ev.tenant = run.tenant;
  ev.event = SpanEvent::kFinish;
  ev.outcome = outcome;
  ev.t_nanos = t_nanos;
  ev.fuel = fuel;
  PushEventLocked(ev);
}

void Telemetry::ForgetTenant(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_ids_.find(tenant);
  if (it == tenant_ids_.end()) {
    return;
  }
  const uint32_t id = it->second;
  tenant_ids_.erase(it);
  tenant_names_.erase(id);
  series_.erase(id);
  spans_.erase(std::remove_if(
                   spans_.begin(), spans_.end(),
                   [id](const TraceEvent& ev) { return ev.tenant == id; }),
               spans_.end());
}

void Telemetry::RegisterModule(const std::string& name,
                               std::weak_ptr<const wasm::Module> module) {
  std::lock_guard<std::mutex> lock(mu_);
  modules_.emplace_back(name, std::move(module));
}

Telemetry::Snapshot Telemetry::TakeSnapshot() const {
  Snapshot s;
  s.registry = registry_.TakeSnapshot();
  std::lock_guard<std::mutex> lock(mu_);
  s.tenant_names = tenant_names_;
  for (const auto& [id, series] : series_) {
    auto nit = tenant_names_.find(id);
    std::string name = nit != tenant_names_.end()
                           ? nit->second
                           : "_tenant" + std::to_string(id);
    s.tenants.emplace_back(std::move(name), series);
  }
  s.spans.assign(spans_.begin(), spans_.end());
  s.spans_dropped = spans_dropped_;
  for (const auto& [mod_name, weak] : modules_) {
    std::shared_ptr<const wasm::Module> m = weak.lock();
    if (m == nullptr || m->func_profile == nullptr) {
      continue;
    }
    const wasm::FuncProfileSlot* slots = m->func_profile.get();
    for (size_t i = 0; i < m->functions.size(); ++i) {
      uint64_t entries = slots[i].entries.load(std::memory_order_relaxed);
      if (entries == 0) {
        continue;
      }
      HotFunction hf;
      hf.module = mod_name;
      hf.func = FuncDisplayName(*m, i);
      hf.entries = entries;
      hf.fuel = slots[i].fuel.load(std::memory_order_relaxed);
      s.hot_functions.push_back(std::move(hf));
    }
  }
  std::sort(s.hot_functions.begin(), s.hot_functions.end(),
            [](const HotFunction& a, const HotFunction& b) {
              if (a.entries != b.entries) return a.entries > b.entries;
              if (a.module != b.module) return a.module < b.module;
              return a.func < b.func;
            });
  // Baseline-JIT tier counters, aggregated over the registered modules'
  // JitModuleState and synthesized into the registry snapshot so they ride
  // the existing Prometheus/JSON exporters. Kept out of the live registry:
  // the interpreter's enter-sites bump Module-level atomics so the hot path
  // never touches a host-layer object, and snapshot time is when the two
  // worlds meet. Absent entirely when no registered module carries tier
  // state (interpreter-only build or none registered).
  {
    uint64_t compiles = 0, failures = 0, tierups = 0, osr_exits = 0;
    uint64_t nanos_sum = 0;
    uint64_t buckets[wasm::JitModuleState::kCompileNanosBuckets] = {};
    bool any = false;
    for (const auto& [mod_name, weak] : modules_) {
      std::shared_ptr<const wasm::Module> m = weak.lock();
      if (m == nullptr || m->jit == nullptr) {
        continue;
      }
      any = true;
      const wasm::JitModuleState& js = *m->jit;
      compiles += js.compiles.load(std::memory_order_relaxed);
      failures += js.compile_failures.load(std::memory_order_relaxed);
      tierups += js.tierups.load(std::memory_order_relaxed);
      osr_exits += js.osr_exits.load(std::memory_order_relaxed);
      nanos_sum += js.compile_nanos_sum.load(std::memory_order_relaxed);
      for (size_t b = 0; b < wasm::JitModuleState::kCompileNanosBuckets; ++b) {
        buckets[b] += js.compile_nanos_bucket[b].load(std::memory_order_relaxed);
      }
      for (size_t i = 0; i < m->functions.size(); ++i) {
        const wasm::JitFuncSlot& slot = m->jit->slots[i];
        if (slot.state.load(std::memory_order_relaxed) !=
            wasm::JitFuncSlot::kCompiled) {
          continue;
        }
        TieredFunction tf;
        tf.module = mod_name;
        tf.func = FuncDisplayName(*m, i);
        tf.heat = slot.heat.load(std::memory_order_relaxed);
        tf.deopts = slot.deopts.load(std::memory_order_relaxed);
        tf.blacklisted = slot.Blacklisted();
        s.tiered_functions.push_back(std::move(tf));
      }
    }
    if (any) {
      s.registry.counters.emplace_back("jit_compiles_total", compiles);
      s.registry.counters.emplace_back("jit_compile_failures_total", failures);
      s.registry.counters.emplace_back("jit_tierups_total", tierups);
      s.registry.counters.emplace_back("jit_osr_exits_total", osr_exits);
      std::sort(s.registry.counters.begin(), s.registry.counters.end());
      metrics::Registry::HistogramSnapshot hs;
      hs.name = "jit_compile_nanos";
      hs.bounds = metrics::LatencyBoundsNanos();
      uint64_t total = 0;
      for (size_t b = 0; b < wasm::JitModuleState::kCompileNanosBuckets; ++b) {
        hs.buckets.push_back(buckets[b]);
        total += buckets[b];
      }
      hs.count = total;
      hs.sum = static_cast<int64_t>(nanos_sum);
      s.registry.histograms.push_back(std::move(hs));
      std::sort(s.registry.histograms.begin(), s.registry.histograms.end(),
                [](const metrics::Registry::HistogramSnapshot& a,
                   const metrics::Registry::HistogramSnapshot& b) {
                  return a.name < b.name;
                });
      std::sort(s.tiered_functions.begin(), s.tiered_functions.end(),
                [](const TieredFunction& a, const TieredFunction& b) {
                  if (a.heat != b.heat) return a.heat > b.heat;
                  if (a.module != b.module) return a.module < b.module;
                  return a.func < b.func;
                });
    }
  }
  return s;
}

std::string Telemetry::PrometheusText() const {
  Snapshot s = TakeSnapshot();
  std::ostringstream out;
  std::string last_family;
  auto type_line = [&](const std::string& name, const char* type) {
    std::string family = BaseName(name);
    if (family != last_family) {
      out << "# TYPE " << family << " " << type << "\n";
      last_family = family;
    }
  };
  for (const auto& [name, value] : s.registry.counters) {
    type_line(name, "counter");
    out << name << " " << value << "\n";
  }
  for (const auto& [name, value] : s.registry.gauges) {
    type_line(name, "gauge");
    out << name << " " << value << "\n";
  }
  for (const metrics::Registry::HistogramSnapshot& h : s.registry.histograms) {
    type_line(h.name, "histogram");
    uint64_t cum = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cum += h.buckets[i];
      out << h.name << "_bucket{le=\"" << h.bounds[i] << "\"} " << cum << "\n";
    }
    out << h.name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    out << h.name << "_sum " << h.sum << "\n";
    out << h.name << "_count " << h.count << "\n";
  }
  if (!s.tenants.empty()) {
    out << "# TYPE host_tenant_jobs_submitted_total counter\n";
    for (const auto& [tenant, series] : s.tenants) {
      out << "host_tenant_jobs_submitted_total{tenant=\""
          << EscapeString(tenant) << "\"} " << series.submitted << "\n";
    }
    out << "# TYPE host_tenant_jobs_total counter\n";
    for (const auto& [tenant, series] : s.tenants) {
      for (size_t o = 0; o < kNumOutcomes; ++o) {
        if (series.outcomes[o] == 0) {
          continue;
        }
        out << "host_tenant_jobs_total{tenant=\"" << EscapeString(tenant)
            << "\",outcome=\"" << OutcomeName(static_cast<Outcome>(o))
            << "\"} " << series.outcomes[o] << "\n";
      }
    }
  }
  if (!s.hot_functions.empty()) {
    out << "# TYPE wasm_func_entries_total counter\n";
    for (const HotFunction& hf : s.hot_functions) {
      out << "wasm_func_entries_total{module=\"" << EscapeString(hf.module)
          << "\",func=\"" << EscapeString(hf.func) << "\"} " << hf.entries
          << "\n";
    }
    out << "# TYPE wasm_func_fuel_total counter\n";
    for (const HotFunction& hf : s.hot_functions) {
      out << "wasm_func_fuel_total{module=\"" << EscapeString(hf.module)
          << "\",func=\"" << EscapeString(hf.func) << "\"} " << hf.fuel
          << "\n";
    }
  }
  out << "# TYPE host_trace_spans_dropped_total counter\n";
  out << "host_trace_spans_dropped_total " << s.spans_dropped << "\n";
  return out.str();
}

std::string Telemetry::JsonText() const {
  Snapshot s = TakeSnapshot();
  std::ostringstream out;
  out << "{";
  out << "\"counters\":{";
  for (size_t i = 0; i < s.registry.counters.size(); ++i) {
    const auto& [name, value] = s.registry.counters[i];
    out << (i != 0 ? "," : "") << "\"" << EscapeString(name) << "\":" << value;
  }
  out << "},\"gauges\":{";
  for (size_t i = 0; i < s.registry.gauges.size(); ++i) {
    const auto& [name, value] = s.registry.gauges[i];
    out << (i != 0 ? "," : "") << "\"" << EscapeString(name) << "\":" << value;
  }
  out << "},\"histograms\":{";
  for (size_t i = 0; i < s.registry.histograms.size(); ++i) {
    const metrics::Registry::HistogramSnapshot& h = s.registry.histograms[i];
    out << (i != 0 ? "," : "") << "\"" << EscapeString(h.name)
        << "\":{\"bounds\":[";
    for (size_t j = 0; j < h.bounds.size(); ++j) {
      out << (j != 0 ? "," : "") << h.bounds[j];
    }
    out << "],\"buckets\":[";
    for (size_t j = 0; j < h.buckets.size(); ++j) {
      out << (j != 0 ? "," : "") << h.buckets[j];
    }
    out << "],\"count\":" << h.count << ",\"sum\":" << h.sum << "}";
  }
  out << "},\"tenants\":{";
  for (size_t i = 0; i < s.tenants.size(); ++i) {
    const auto& [tenant, series] = s.tenants[i];
    out << (i != 0 ? "," : "") << "\"" << EscapeString(tenant)
        << "\":{\"submitted\":" << series.submitted;
    for (size_t o = 0; o < kNumOutcomes; ++o) {
      out << ",\"" << OutcomeName(static_cast<Outcome>(o))
          << "\":" << series.outcomes[o];
    }
    out << "}";
  }
  out << "},\"hot_functions\":[";
  for (size_t i = 0; i < s.hot_functions.size(); ++i) {
    const HotFunction& hf = s.hot_functions[i];
    out << (i != 0 ? "," : "") << "{\"module\":\"" << EscapeString(hf.module)
        << "\",\"func\":\"" << EscapeString(hf.func)
        << "\",\"entries\":" << hf.entries << ",\"fuel\":" << hf.fuel << "}";
  }
  out << "],\"spans\":" << s.spans.size()
      << ",\"spans_dropped\":" << s.spans_dropped << "}";
  return out.str();
}

std::string Telemetry::ChromeTraceJson() const {
  Snapshot s = TakeSnapshot();
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto slice = [&](const char* name, uint32_t tenant, uint64_t run_id,
                   int64_t t0, int64_t t1, const std::string& args) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":" << tenant
        << ",\"tid\":" << run_id << ",\"ts\":" << t0 / 1000.0
        << ",\"dur\":" << (t1 - t0) / 1000.0;
    if (!args.empty()) {
      out << ",\"args\":{" << args << "}";
    }
    out << "}";
  };
  for (const auto& [id, name] : s.tenant_names) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << id
        << ",\"args\":{\"name\":\"tenant:" << EscapeString(name) << "\"}}";
  }
  // Reconstruct per-run phase slices by replaying each run's events in ring
  // (i.e. emission) order. Runs whose early events were dropped by the
  // bounded ring start at the first surviving event.
  struct RunCursor {
    int64_t mark = 0;       // start of the phase currently open
    SpanEvent last = SpanEvent::kSubmit;
    bool seen = false;
  };
  std::map<uint64_t, RunCursor> runs;
  for (const TraceEvent& ev : s.spans) {
    RunCursor& rc = runs[ev.run_id];
    if (!rc.seen) {
      rc.seen = true;
      rc.mark = ev.t_nanos;
      rc.last = ev.event;
      continue;
    }
    const char* phase = nullptr;
    switch (ev.event) {
      case SpanEvent::kDispatch: phase = "queued"; break;
      case SpanEvent::kPark: phase = "run"; break;
      case SpanEvent::kIoComplete: phase = "blocked"; break;
      case SpanEvent::kResume: phase = "resume-wait"; break;
      // Evict closes the in-memory parked phase; everything until the
      // restore (which spans the remaining blocked time plus the decode)
      // shows as "evicted".
      case SpanEvent::kEvict: phase = "blocked"; break;
      case SpanEvent::kRestore: phase = "evicted"; break;
      case SpanEvent::kFinish:
        // A run shed/rejected out of the queue finishes from kSubmit.
        phase = rc.last == SpanEvent::kSubmit ? "queued" : "run";
        break;
      case SpanEvent::kSubmit: break;  // only ever first
    }
    if (phase != nullptr) {
      std::string args;
      if (ev.event == SpanEvent::kFinish) {
        args = "\"outcome\":\"" + std::string(OutcomeName(ev.outcome)) +
               "\",\"fuel\":" + std::to_string(ev.fuel);
      }
      slice(phase, ev.tenant, ev.run_id, rc.mark, ev.t_nanos, args);
    }
    rc.mark = ev.t_nanos;
    rc.last = ev.event;
  }
  out << "]}";
  return out.str();
}

bool Telemetry::WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return out.good();
}

}  // namespace host
