// Process-level snapshot/restore: wraps wasm::SnapshotSuspension with the
// WALI state that makes a parked run resumable as a *process* — the fd
// table, virtual signal dispositions, the pending park (its IoOp, the
// syscall that parked and its arguments), the syscall trace (so per-tenant
// accounting survives eviction without double billing), and the
// MainContinuation bookkeeping (deferred-start fuel, entry kind).
//
// Every park is pure data, so any of them can be snapshotted. Eligibility
// (refused with a Status, never a crash): no guest threads, not inside a
// signal handler, and no pending virtual signals.
#ifndef SRC_WALI_PROCESS_SNAPSHOT_H_
#define SRC_WALI_PROCESS_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/wali/process.h"
#include "src/wali/runtime.h"

namespace wali {

// Serializes `proc` + `cont` (armed, parked at a syscall boundary) into a
// self-contained snapshot: the wasm::Suspension section plus a WALI host
// blob, under one header/checksum (see src/wasm/snapshot.h for the format
// and versioning rules).
common::StatusOr<std::vector<uint8_t>> SnapshotProcess(
    WaliProcess& proc, const WaliRuntime::MainContinuation& cont);

// Restores a snapshot into `proc`, which must be a FRESH process of the
// structurally identical module (CreateProcess or a pool-recycled slot):
// rebuilds the interpreter suspension, globals, memory, fd table, signal
// dispositions, trace counters, and budgets captured at snapshot time,
// re-arms proc.pending_io with the park, and arms `cont` so
// WaliRuntime::ResumeMain continues the run bit-identically once the
// caller has waited out proc.pending_io.op. The resumed run executes under
// proc.runtime's dispatch loop and JIT tier, as a run it started would.
// On error `cont` is left disarmed.
common::Status RestoreProcess(const uint8_t* data, size_t size,
                              WaliProcess& proc,
                              WaliRuntime::MainContinuation& cont);

}  // namespace wali

#endif  // SRC_WALI_PROCESS_SNAPSHOT_H_
