// Snapshot/restore for parked invocations (ROADMAP "serializable
// suspensions"): a versioned binary format that captures everything a
// wasm::Suspension holds — frames, the operand stack (already in plain
// spilled form at kSyscallPending, the STACK_SYNC invariant), globals, and
// linear memory as a delta against the fresh-instance image (zeros overlaid
// with the module's data segments) — so an idle parked guest can be evicted
// (or written to a file) and rebuilt later into an ExecContext that
// ResumeInvoke accepts.
//
// Cost: a snapshot costs what copying and checksumming the guest's dirty
// pages costs. The scan rebuilds the baseline only for pages a data segment
// writes, compares every other page against zeros, and skips such a page
// unread when /proc/self/pagemap shows the process never touched it. The
// snapshot buffer and the restore's copy target are pre-faulted, and
// ReleaseSnapshot gives a discarded snapshot's pages back to the kernel.
// The scan relies on linear memory being anonymous and readable, which
// holds by construction: WALI serves a file map as a copy.
//
// Format (all integers little-endian):
//
//   header   magic u32 ('WSNP'), version u32, payload checksum u64
//            (XXH64, seed 0, over every byte after the header), module
//            hash u64 (caller-provided; see ModuleStructuralHash)
//   exec     scheme u8, max_frames u32, max_value_stack u64, fuel u64,
//            executed u64, exit_code u32, pending_results u32, entry type
//            index u32 (into Module::types)
//   stack    count u64, then count raw u64 slots
//   frames   count u32, per frame: local function index u32, pc u32,
//            locals_base u32, stack_base u32, prepared-stream flag u8
//   globals  count u32 (== Module::NumGlobals()), then count u64 bit values
//   memory   size_pages u64, delta page count u32, per page: page index u64
//            + 65536 raw bytes (pages that differ from the fresh-instance
//            image: zeros overlaid with the module's data segments)
//   host     blob length u64 + opaque bytes (the wali layer's process state;
//            this module never interprets it)
//
// Versioning rules (docs/ARCHITECTURE.md "Snapshot/restore"): any layout
// change — field added, removed, reordered, or re-typed — bumps
// kSnapshotVersion; decode rejects every version it was not built for.
// tests/wasm_snapshot_test.cc pins the golden fixture so an accidental
// format drift without a bump fails CI.
//
// Deliberately NOT captured: host fds' kernel state (only the wali layer's
// fd table rides in the host blob; the fds stay open while a run is
// evicted), guest threads, signal handlers mid-flight, in-flight profile
// attribution windows, and the execution mode (the restoring host's choice).
#ifndef SRC_WASM_SNAPSHOT_H_
#define SRC_WASM_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/wasm/interp.h"

namespace wasm {

inline constexpr uint32_t kSnapshotMagic = 0x504e5357;  // "WSNP" LE
inline constexpr uint32_t kSnapshotVersion = 7;

// Bounds-checked little-endian cursor primitives, shared with the wali
// layer's host-blob encoding (src/wali/process_snapshot.cc). The writer
// never fails; every reader method returns an error instead of over-reading.
class SnapshotWriter {
 public:
  void Reserve(size_t n) { buf_.reserve(n); }
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Bytes(const void* p, size_t n);

  std::vector<uint8_t>& buf() { return buf_; }
  const std::vector<uint8_t>& buf() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

class SnapshotReader {
 public:
  SnapshotReader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}

  common::Status U8(uint8_t* out);
  common::Status U32(uint32_t* out);
  common::Status U64(uint64_t* out);
  common::Status Bytes(void* dst, size_t n);
  // Advances past `n` bytes the caller will read in place via cur().
  common::Status Skip(size_t n);
  const uint8_t* cur() const { return p_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

// Deterministic 64-bit FNV-1a content hash over a module's post-prepare
// structure: types, import/export names, function bodies (decoded AND
// prepared streams, so a snapshot taken under one fusion configuration can
// never be restored into another), globals, and data segments. The same
// source module parsed, validated, and prepared the same way hashes the
// same in every process — this is the identity the snapshot header carries.
uint64_t ModuleStructuralHash(const Module& m);

// Serializes an armed suspension plus the owning instance's mutable state
// (globals, linear memory). `inst` must be the suspension's root instance;
// every frame must belong to it (multi-instance suspensions are refused).
// `host_blob` is carried opaquely for the caller's process-level state.
common::StatusOr<std::vector<uint8_t>> SnapshotSuspension(
    const Suspension& susp, Instance* inst, uint64_t module_hash,
    const std::vector<uint8_t>& host_blob);

// Frees snapshot bytes, first giving their whole pages back to the kernel
// (madvise MADV_DONTNEED). malloc keeps a freed block this large for reuse,
// so a host that evicts in bursts would otherwise stay at the footprint of
// its most concurrently evicted moment.
void ReleaseSnapshot(std::vector<uint8_t>& bytes);

// Validates `data` (magic, version, checksum, module hash) and rebuilds the
// parked invocation into `inst`, which must be a FRESH instance of the
// hash-matched module (data segments applied, globals at initial values):
// globals are overwritten, memory is grown to the snapshot size with the
// delta pages applied, and `out` is armed with an ExecContext that
// ResumeInvoke accepts. The execution mode is not part of the format: it
// is the restoring host's choice, as for a run it starts, so `mode`'s
// dispatch, jit and jit_threshold become the context's (the snapshot
// supplies the scheme, limits and fuel; no other field of `mode` is read).
// `buffers` (may be null) becomes the context's recycled storage, returned
// on finish/discard exactly as Invoke wires it.
// On success returns the opaque host blob. Never crashes or over-reads on
// hostile input: every field is bounds-checked before use.
common::StatusOr<std::vector<uint8_t>> RestoreSuspension(
    const uint8_t* data, size_t size, Instance* inst, uint64_t module_hash,
    const ExecOptions& mode, ExecBuffers* buffers, Suspension* out);

}  // namespace wasm

#endif  // SRC_WASM_SNAPSHOT_H_
