// snapshot_roundtrip — cost of serializing a parked guest and rehydrating
// it into a fresh pool slot, the two halves of the supervisor's
// EvictParked/restore pressure-relief path.
//
// What gets measured, per guest memory footprint and dirty fraction:
//   snapshot  — wali::SnapshotProcess on a parked process (delta-encodes
//               linear memory against the module's data segments)
//   restore   — wali::RestoreProcess into a freshly created process
//   bytes     — the snapshot size, i.e. what an eviction actually frees
//               vs what it writes
//
// The interesting shape: snapshot cost should track the DIRTY page count,
// not the memory size — a mostly-clean 256-page guest must snapshot in
// ~tens of microseconds, or eviction cannot be a pressure-relief valve.
// Pages the guest never touched are skipped without being read, so that
// holds for time as well as bytes. BENCH_snapshot.json records the numbers.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/time_util.h"
#include "src/wali/process_snapshot.h"
#include "src/wali/wali.h"
#include "src/wasm/prepare.h"
#include "src/wasm/wasm.h"

namespace {

// A guest that dirties `dirty_pages` wasm pages of its `mem_pages` linear
// memory, then parks in a 1-second nanosleep (completed as scripted data —
// never actually slept).
std::string BuildGuestWat(int mem_pages, int dirty_pages) {
  std::string wat = R"((module
  (import "wali" "SYS_nanosleep" (func $nanosleep (param i64 i64) (result i64)))
  (memory )" + std::to_string(mem_pages) + R"()
  (func (export "main") (result i32)
    (local $p i32) (local $i i32)
    (block $pages
      (loop $page
        (br_if $pages (i32.ge_u (local.get $p) (i32.const )" +
               std::to_string(dirty_pages) + R"()))
        (local.set $i (i32.const 0))
        (block $done
          (loop $fill   ;; one store per 4KiB of the page
            (br_if $done (i32.ge_u (local.get $i) (i32.const 65536)))
            (i32.store (i32.add (i32.mul (local.get $p) (i32.const 65536))
                                (local.get $i))
                       (i32.add (local.get $p) (local.get $i)))
            (local.set $i (i32.add (local.get $i) (i32.const 4096)))
            (br $fill)))
        (local.set $p (i32.add (local.get $p) (i32.const 1)))
        (br $page)))
    ;; timespec at 8: park for "1s" (completed as scripted data, not slept)
    (i64.store (i32.const 8) (i64.const 1))
    (i64.store (i32.const 16) (i64.const 0))
    (drop (call $nanosleep (i64.const 8) (i64.const 0)))
    (i32.const 0))
)";
  wat += ")";
  return wat;
}

struct Case {
  int mem_pages;
  int dirty_pages;
};

}  // namespace

int main() {
  bench::Header("snapshot_roundtrip",
                "park -> SnapshotProcess -> fresh slot -> RestoreProcess");

  // {16, 9} is wali_bench park_evict's guest: 16 pages, 512 KiB filled
  // plus the timespec page.
  const Case cases[] = {
      {16, 1}, {16, 8}, {16, 9}, {64, 1}, {64, 16}, {256, 1}, {256, 32}, {256, 128},
  };
  constexpr int kIters = 50;

  std::printf("%8s %8s %12s %14s %14s\n", "mem", "dirty", "snap bytes",
              "snapshot us", "restore us");
  for (const Case& c : cases) {
    auto parsed = wasm::ParseAndValidateWat(BuildGuestWat(c.mem_pages, c.dirty_pages));
    if (!parsed.ok()) {
      std::fprintf(stderr, "guest build failed: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    wasm::PrepareModule(**parsed);

    int64_t snap_ns = 0;
    int64_t restore_ns = 0;
    size_t bytes = 0;
    for (int it = 0; it < kIters; ++it) {
      wasm::Linker linker;
      wali::WaliRuntime rt(&linker);
      auto proc = rt.CreateProcess(*parsed, {"bench"}, {});
      if (!proc.ok()) {
        std::fprintf(stderr, "create failed: %s\n",
                     proc.status().ToString().c_str());
        return 1;
      }
      wali::WaliRuntime::MainContinuation cont;
      wasm::RunResult r = rt.RunMain(**proc, rt.exec_options(), &cont);
      if (r.trap != wasm::TrapKind::kSyscallPending) {
        std::fprintf(stderr, "guest did not park: %s\n",
                     wasm::TrapKindName(r.trap));
        return 1;
      }
      int64_t t0 = common::MonotonicNanos();
      auto snap = wali::SnapshotProcess(**proc, cont);
      snap_ns += common::MonotonicNanos() - t0;
      if (!snap.ok()) {
        std::fprintf(stderr, "snapshot failed: %s\n",
                     snap.status().ToString().c_str());
        return 1;
      }
      bytes = snap->size();
      cont.Discard();
      (*proc)->fds.Release();

      auto fresh = rt.CreateProcess(*parsed, {"bench"}, {});
      if (!fresh.ok()) {
        return 1;
      }
      t0 = common::MonotonicNanos();
      common::Status restored =
          wali::RestoreProcess(snap->data(), snap->size(), **fresh, cont);
      restore_ns += common::MonotonicNanos() - t0;
      if (!restored.ok()) {
        std::fprintf(stderr, "restore failed: %s\n", restored.ToString().c_str());
        return 1;
      }
      wasm::RunResult done =
          rt.ResumeMain(**fresh, cont, wali::IoCompletion::Result(0));
      if (!done.ok() && done.trap != wasm::TrapKind::kExit) {
        std::fprintf(stderr, "resume failed: %s\n", wasm::TrapKindName(done.trap));
        return 1;
      }
    }
    std::printf("%7dp %7dp %12zu %14.1f %14.1f\n", c.mem_pages, c.dirty_pages,
                bytes, snap_ns / 1e3 / kIters, restore_ns / 1e3 / kIters);
  }
  bench::Note(
      "snapshot cost tracks dirty pages, not memory size: clean pages are "
      "delta-skipped (see docs/ARCHITECTURE.md, Snapshot/restore)");
  return 0;
}
