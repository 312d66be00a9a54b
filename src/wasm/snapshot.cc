#include "src/wasm/snapshot.h"

#include <fcntl.h>
#include <linux/magic.h>
#include <sys/mman.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cstring>

namespace wasm {

namespace {

constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;  // magic, version, checksum, hash
constexpr size_t kChecksumOffset = 8;
constexpr size_t kExecBytes = 1 + 4 + 8 + 8 + 8 + 4 + 4 + 4;
constexpr size_t kFrameRecBytes = 4 * 4 + 1;
constexpr size_t kDeltaRecBytes = 8 + kWasmPageSize;

// 64-bit FNV-1a, the same construction host::ModuleCache uses for module
// bytes; re-implemented here so the wasm layer stays free of host includes.
// Only the module hash uses it: byte-at-a-time is too slow for payloads.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Add(const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void U8(uint8_t v) { Add(&v, 1); }
  void U32(uint32_t v) { Add(&v, 4); }
  void U64(uint64_t v) { Add(&v, 8); }
};

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

void StoreLe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

uint64_t Round(uint64_t acc, uint64_t word) {
  acc += word * kPrime2;
  return Rotl(acc, 31) * kPrime1;
}

uint64_t MergeLane(uint64_t h, uint64_t lane) {
  h ^= Round(0, lane);
  return h * kPrime1 + kPrime4;
}

// Payload checksum (since format v4): the XXH64 construction with seed 0. Four
// independent multiply-rotate lanes consume 32-byte stripes of 8-byte
// little-endian words, the tail is folded in by word, half-word and byte,
// and an avalanche finishes. It runs at memory speed, where byte-at-a-time
// FNV-1a managed about 0.6 GB/s, and it is paid at snapshot and at restore.
uint64_t ChecksumPayload(const uint8_t* p, size_t n) {
  const uint8_t* const end = p + n;
  uint64_t h;
  if (n >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, LoadLe64(p));
      v2 = Round(v2, LoadLe64(p + 8));
      v3 = Round(v3, LoadLe64(p + 16));
      v4 = Round(v4, LoadLe64(p + 24));
    }
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeLane(h, v1);
    h = MergeLane(h, v2);
    h = MergeLane(h, v3);
    h = MergeLane(h, v4);
  } else {
    h = kPrime5;
  }
  h += n;
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, LoadLe64(p));
    h = Rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= LoadLe32(p) * kPrime1;
    h = Rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= *p * kPrime5;
    h = Rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

void HashInstrs(Fnv& f, const std::vector<Instr>& code) {
  f.U64(code.size());
  for (const Instr& in : code) {
    f.U8(static_cast<uint8_t>(in.op));
    f.U8(in.flags);
    f.U8(in.cost);
    f.U32(in.arity);
    f.U32(in.a);
    f.U32(in.b);
    f.U64(in.imm);
  }
}

void HashBrTables(Fnv& f, const std::vector<BrTable>& tables) {
  f.U64(tables.size());
  for (const BrTable& t : tables) {
    f.U64(t.targets.size());
    for (const BrTarget& bt : t.targets) {
      f.U32(bt.pc);
      f.U32(bt.height);
      f.U32(bt.arity);
      f.U32(bt.depth);
    }
  }
}

void HashInitExpr(Fnv& f, const InitExpr& e) {
  f.U8(static_cast<uint8_t>(e.kind));
  f.U8(static_cast<uint8_t>(e.type));
  f.U64(e.bits);
  f.U32(e.global_index);
}

common::Status Corrupt(const char* what) {
  return common::InvalidArgument(std::string("snapshot: ") + what);
}

}  // namespace

void SnapshotWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::Bytes(const void* p, size_t n) {
  if (n == 0) return;
  const uint8_t* b = static_cast<const uint8_t*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

common::Status SnapshotReader::U8(uint8_t* out) {
  if (remaining() < 1) return Corrupt("truncated (u8)");
  *out = *p_++;
  return common::OkStatus();
}

common::Status SnapshotReader::U32(uint32_t* out) {
  if (remaining() < 4) return Corrupt("truncated (u32)");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[i]) << (8 * i);
  p_ += 4;
  *out = v;
  return common::OkStatus();
}

common::Status SnapshotReader::U64(uint64_t* out) {
  if (remaining() < 8) return Corrupt("truncated (u64)");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[i]) << (8 * i);
  p_ += 8;
  *out = v;
  return common::OkStatus();
}

common::Status SnapshotReader::Bytes(void* dst, size_t n) {
  if (remaining() < n) return Corrupt("truncated (bytes)");
  std::memcpy(dst, p_, n);
  p_ += n;
  return common::OkStatus();
}

common::Status SnapshotReader::Skip(size_t n) {
  if (remaining() < n) return Corrupt("truncated (skip)");
  p_ += n;
  return common::OkStatus();
}

uint64_t ModuleStructuralHash(const Module& m) {
  Fnv f;
  f.U64(m.types.size());
  for (const FuncType& t : m.types) {
    f.U64(t.params.size());
    for (ValType v : t.params) f.U8(static_cast<uint8_t>(v));
    f.U64(t.results.size());
    for (ValType v : t.results) f.U8(static_cast<uint8_t>(v));
  }
  f.U32(m.num_imported_funcs);
  f.U32(m.num_imported_tables);
  f.U32(m.num_imported_memories);
  f.U32(m.num_imported_globals);
  f.U64(m.imports.size());
  for (const Import& imp : m.imports) {
    f.Add(imp.module.data(), imp.module.size());
    f.U8(0);
    f.Add(imp.name.data(), imp.name.size());
    f.U8(static_cast<uint8_t>(imp.kind));
    f.U32(imp.type_index);
  }
  f.U64(m.functions.size());
  for (const Function& fn : m.functions) {
    f.U32(fn.type_index);
    f.U64(fn.locals.size());
    for (ValType v : fn.locals) f.U8(static_cast<uint8_t>(v));
    // Both streams: a frame's pc indexes one of them, so restoring into a
    // module prepared differently (fusion on/off, different heuristics)
    // must fail the hash check rather than misinterpret saved pcs.
    HashInstrs(f, fn.code);
    HashBrTables(f, fn.br_tables);
    HashInstrs(f, fn.prepared.code);
    HashBrTables(f, fn.prepared.br_tables);
    f.U64(fn.prepared.linear_cost.size());
  }
  f.U64(m.globals.size());
  for (const Global& g : m.globals) {
    f.U8(static_cast<uint8_t>(g.type.type));
    f.U8(g.type.mut ? 1 : 0);
    HashInitExpr(f, g.init);
  }
  f.U64(m.exports.size());
  for (const Export& e : m.exports) {
    f.Add(e.name.data(), e.name.size());
    f.U8(static_cast<uint8_t>(e.kind));
    f.U32(e.index);
  }
  f.U64(m.datas.size());
  for (const DataSegment& d : m.datas) {
    f.U32(d.memory_index);
    HashInitExpr(f, d.offset);
    f.U64(d.bytes.size());
    f.Add(d.bytes.data(), d.bytes.size());
  }
  f.U64(m.elems.size());
  for (const ElemSegment& e : m.elems) {
    f.U32(e.table_index);
    HashInitExpr(f, e.offset);
    f.U64(e.func_indices.size());
    for (uint32_t idx : e.func_indices) f.U32(idx);
  }
  f.U64(m.start.has_value() ? *m.start + 1 : 0);
  return f.h;
}

namespace {

// Data segment offsets referencing globals use imported immutable globals
// only (validator rule), so evaluating them against the live instance is
// exact.
uint64_t SegmentOffset(Instance* inst, const DataSegment& seg) {
  return seg.offset.kind == InitExpr::Kind::kConst
             ? seg.offset.bits
             : inst->global(seg.offset.global_index).bits;
}

// Fills `page` with the fresh-instance image of memory page `page_index`:
// zeros overlaid with every data segment byte that lands in the page.
void BaselinePage(Instance* inst, uint64_t page_index, uint8_t* page) {
  std::memset(page, 0, kWasmPageSize);
  const uint64_t lo = page_index * kWasmPageSize;
  const uint64_t hi = lo + kWasmPageSize;
  for (const DataSegment& seg : inst->module().datas) {
    if (seg.memory_index != 0 || seg.bytes.empty()) continue;
    uint64_t off = SegmentOffset(inst, seg);
    uint64_t seg_end = off + seg.bytes.size();
    if (seg_end <= lo || off >= hi) continue;
    uint64_t from = off > lo ? off : lo;
    uint64_t to = seg_end < hi ? seg_end : hi;
    std::memcpy(page + (from - lo), seg.bytes.data() + (from - off), to - from);
  }
}

// Flags, over `pages` pages, every page some data segment writes at
// instantiation. Every other page is all zeros in a fresh instance.
std::vector<bool> SegmentPages(Instance* inst, uint64_t pages) {
  std::vector<bool> covered(pages, false);
  for (const DataSegment& seg : inst->module().datas) {
    if (seg.memory_index != 0 || seg.bytes.empty()) continue;
    const uint64_t off = SegmentOffset(inst, seg);
    const uint64_t last = (off + seg.bytes.size() - 1) / kWasmPageSize;
    for (uint64_t p = off / kWasmPageSize; p <= last && p < pages; ++p) {
      covered[p] = true;
    }
  }
  return covered;
}

// Applies `advice` to the OS pages that lie wholly inside [p, p + n). An
// error is ignored: both uses only save work or memory.
void AdviseWholePages(void* p, size_t n, int advice) {
  const long os_page = sysconf(_SC_PAGESIZE);
  if (os_page <= 0) return;
  const uintptr_t mask = static_cast<uintptr_t>(os_page) - 1;
  const uintptr_t lo = (reinterpret_cast<uintptr_t>(p) + mask) & ~mask;
  const uintptr_t hi = (reinterpret_cast<uintptr_t>(p) + n) & ~mask;
  if (hi > lo) madvise(reinterpret_cast<void*>(lo), hi - lo, advice);
}

bool AllZero(const uint8_t* page) {
  for (size_t i = 0; i < kWasmPageSize; i += 64) {
    uint64_t w[8];
    std::memcpy(w, page + i, sizeof(w));
    if ((w[0] | w[1] | w[2] | w[3] | w[4] | w[5] | w[6] | w[7]) != 0) return false;
  }
  return true;
}

// The OS pages of a committed range that this process has never touched,
// read from /proc/self/pagemap: an entry with neither bit 63 (present) nor
// bit 62 (swapped) is an anonymous page that reads as zeros without being
// read. (mincore would not do: it reports a swapped-out page as absent.)
// The file is opened, read and closed here, because guests share the host's
// fd table through WALI and could close or dup2 over a long-lived fd; the
// entries are trusted only from a full-length read of an fd that fstatfs
// reports as procfs. Otherwise every page answers "maybe touched".
class UntouchedPages {
 public:
  UntouchedPages(const uint8_t* base, uint64_t bytes) {
    const long os_page = sysconf(_SC_PAGESIZE);
    if (os_page <= 0 || bytes == 0) return;
    os_page_ = static_cast<uint64_t>(os_page);
    const uint64_t first = reinterpret_cast<uintptr_t>(base) / os_page_;
    std::vector<uint64_t> entries((bytes + os_page_ - 1) / os_page_);
    const size_t want = entries.size() * sizeof(uint64_t);
    const int fd = open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
    if (fd < 0) return;
    struct statfs fs;
    const bool trusted =
        fstatfs(fd, &fs) == 0 && fs.f_type == PROC_SUPER_MAGIC &&
        pread(fd, entries.data(), want, static_cast<off_t>(first * sizeof(uint64_t))) ==
            static_cast<ssize_t>(want);
    close(fd);
    if (trusted) entries_ = std::move(entries);
  }

  // True when no OS page of wasm page `page` is present or swapped.
  bool Contains(uint64_t page) const {
    if (entries_.empty()) return false;
    constexpr uint64_t kPresentOrSwapped = 3ULL << 62;
    const uint64_t lo = page * kWasmPageSize / os_page_;
    const uint64_t hi = ((page + 1) * kWasmPageSize - 1) / os_page_;
    for (uint64_t i = lo; i <= hi; ++i) {
      if ((entries_[i] & kPresentOrSwapped) != 0) return false;
    }
    return true;
  }

 private:
  uint64_t os_page_ = 0;
  std::vector<uint64_t> entries_;
};

// The committed pages that differ from the fresh-instance image (zeros
// overlaid with the data segments). Only a page some segment writes pays
// for rebuilding its baseline; any other page is compared against zeros,
// and skipped unread when the process never touched it. The skip is exact
// only for such pages, since a guest can madvise(MADV_DONTNEED) a segment
// page, which then reads as zeros but differs from the image; and only for
// anonymous memory, which every committed page is (wasm/memory.h).
std::vector<uint64_t> DirtyPages(Instance* inst, const Memory& mem) {
  const uint64_t pages = mem.size_pages();
  const std::vector<bool> covered = SegmentPages(inst, pages);
  const UntouchedPages untouched(mem.base(), pages * kWasmPageSize);
  std::vector<uint64_t> dirty;
  std::vector<uint8_t> baseline;
  for (uint64_t p = 0; p < pages; ++p) {
    const uint8_t* page = mem.base() + p * kWasmPageSize;
    bool differs;
    if (covered[p]) {
      baseline.resize(kWasmPageSize);
      BaselinePage(inst, p, baseline.data());
      differs = std::memcmp(page, baseline.data(), kWasmPageSize) != 0;
    } else {
      differs = !untouched.Contains(p) && !AllZero(page);
    }
    if (differs) dirty.push_back(p);
  }
  return dirty;
}

}  // namespace

common::StatusOr<std::vector<uint8_t>> SnapshotSuspension(
    const Suspension& susp, Instance* inst, uint64_t module_hash,
    const std::vector<uint8_t>& host_blob) {
  if (!susp.armed()) {
    return common::FailedPrecondition("snapshot: suspension is not armed");
  }
  const ExecContext& ctx = *susp.ctx;
  if (ctx.root != inst) {
    return common::InvalidArgument("snapshot: suspension does not belong to instance");
  }
  const Module& m = inst->module();
  if (susp.entry_type < m.types.data() ||
      susp.entry_type >= m.types.data() + m.types.size()) {
    return common::Unimplemented(
        "snapshot: entry type is not a module type (host-function entry)");
  }
  const uint32_t entry_type_index =
      static_cast<uint32_t>(susp.entry_type - m.types.data());
  std::shared_ptr<Memory> mem = inst->memory(0);

  // Linear memory is the committed size plus only the pages that differ
  // from the fresh-instance image. Finding them first sizes the one buffer
  // the whole snapshot is written into.
  const std::vector<uint64_t> dirty =
      mem == nullptr ? std::vector<uint64_t>{} : DirtyPages(inst, *mem);
  const uint32_t num_globals = m.NumGlobals();
  const size_t size = kHeaderBytes + kExecBytes + 8 + 8 * ctx.stack.size() + 4 +
                      kFrameRecBytes * ctx.frames.size() + 4 + 8 * num_globals + 8 + 4 +
                      kDeltaRecBytes * dirty.size() + 8 + host_blob.size();
  SnapshotWriter w;
  w.Reserve(size);
  // Every byte is about to be written, and the buffer's pages are usually
  // fresh (ReleaseSnapshot gave them back): pre-fault them with one madvise
  // instead of a fault per OS page. Kernels before 5.14 reject the advice.
  AdviseWholePages(w.buf().data(), size, MADV_POPULATE_WRITE);

  // Header; the payload checksum is filled in place once the payload is.
  w.U32(kSnapshotMagic);
  w.U32(kSnapshotVersion);
  w.U64(0);
  w.U64(module_hash);

  // Exec section.
  w.U8(static_cast<uint8_t>(ctx.opts.scheme));
  w.U32(ctx.opts.max_frames);
  w.U64(ctx.opts.max_value_stack);
  w.U64(ctx.opts.fuel);
  w.U64(ctx.executed);
  w.U32(static_cast<uint32_t>(ctx.exit_code));
  w.U32(susp.pending_results);
  w.U32(entry_type_index);

  // Operand stack: at kSyscallPending the vector holds the exact plain
  // spilled form (STACK_SYNC invariant), identical under both dispatch
  // loops, so the raw slots are the canonical serialization.
  w.U64(ctx.stack.size());
  for (uint64_t slot : ctx.stack) w.U64(slot);

  // Frames. Code/table/cost pointers are re-derived at restore from the
  // function index plus which stream the frame was executing.
  w.U32(static_cast<uint32_t>(ctx.frames.size()));
  for (const ExecContext::Frame& fr : ctx.frames) {
    if (fr.inst != inst) {
      return common::Unimplemented(
          "snapshot: multi-instance frame stacks are not serializable");
    }
    if (fr.fn < m.functions.data() || fr.fn >= m.functions.data() + m.functions.size()) {
      return common::InvalidArgument("snapshot: frame function not in module");
    }
    const bool prepared = fr.code == fr.fn->prepared.code.data() &&
                          !fr.fn->prepared.code.empty();
    if (!prepared && fr.code != fr.fn->code.data()) {
      return common::InvalidArgument("snapshot: frame stream not recognized");
    }
    w.U32(static_cast<uint32_t>(fr.fn - m.functions.data()));
    w.U32(fr.pc);
    w.U32(fr.locals_base);
    w.U32(fr.stack_base);
    w.U8(prepared ? 1 : 0);
  }

  // Globals: full index space (imports first), matching Instance::global.
  w.U32(num_globals);
  for (uint32_t i = 0; i < num_globals; ++i) {
    w.U64(inst->global(i).bits);
  }

  // Linear memory: committed size, then each dirty page by index.
  w.U64(mem == nullptr ? 0 : mem->size_pages());
  w.U32(static_cast<uint32_t>(dirty.size()));
  for (uint64_t p : dirty) {
    w.U64(p);
    w.Bytes(mem->base() + p * kWasmPageSize, kWasmPageSize);
  }

  // Opaque host blob (the wali layer's process state).
  w.U64(host_blob.size());
  w.Bytes(host_blob.data(), host_blob.size());

  std::vector<uint8_t>& out = w.buf();
  StoreLe64(out.data() + kChecksumOffset,
            ChecksumPayload(out.data() + kHeaderBytes, out.size() - kHeaderBytes));
  return std::move(out);
}

void ReleaseSnapshot(std::vector<uint8_t>& bytes) {
  AdviseWholePages(bytes.data(), bytes.capacity(), MADV_DONTNEED);
  std::vector<uint8_t>().swap(bytes);
}

common::StatusOr<std::vector<uint8_t>> RestoreSuspension(
    const uint8_t* data, size_t size, Instance* inst, uint64_t module_hash,
    const ExecOptions& mode, ExecBuffers* buffers, Suspension* out) {
  if (inst == nullptr || out == nullptr) {
    return common::InvalidArgument("snapshot: null instance or suspension slot");
  }
  SnapshotReader r(data, size);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t checksum = 0;
  uint64_t hash = 0;
  RETURN_IF_ERROR(r.U32(&magic));
  if (magic != kSnapshotMagic) return Corrupt("bad magic");
  RETURN_IF_ERROR(r.U32(&version));
  if (version != kSnapshotVersion) return Corrupt("unsupported version");
  RETURN_IF_ERROR(r.U64(&checksum));
  RETURN_IF_ERROR(r.U64(&hash));
  if (hash != module_hash) return Corrupt("module hash mismatch");
  if (size < kHeaderBytes ||
      ChecksumPayload(data + kHeaderBytes, size - kHeaderBytes) != checksum) {
    return Corrupt("payload checksum mismatch");
  }

  const Module& m = inst->module();

  // Exec section.
  uint8_t scheme = 0;
  uint32_t max_frames = 0;
  uint64_t max_value_stack = 0;
  uint64_t fuel = 0;
  uint64_t executed = 0;
  uint32_t exit_code = 0;
  uint32_t pending_results = 0;
  uint32_t entry_type_index = 0;
  RETURN_IF_ERROR(r.U8(&scheme));
  RETURN_IF_ERROR(r.U32(&max_frames));
  RETURN_IF_ERROR(r.U64(&max_value_stack));
  RETURN_IF_ERROR(r.U64(&fuel));
  RETURN_IF_ERROR(r.U64(&executed));
  RETURN_IF_ERROR(r.U32(&exit_code));
  RETURN_IF_ERROR(r.U32(&pending_results));
  RETURN_IF_ERROR(r.U32(&entry_type_index));
  if (scheme > static_cast<uint8_t>(SafepointScheme::kEveryInstr)) {
    return Corrupt("bad safepoint scheme");
  }
  if (pending_results > kMaxHostResults) return Corrupt("pending results too large");
  if (entry_type_index >= m.types.size()) return Corrupt("entry type out of range");
  if (fuel != 0 && executed > fuel) return Corrupt("executed exceeds fuel");

  // Operand stack. The element count is capped by the remaining bytes
  // before any allocation, so a hostile count cannot force a huge reserve.
  uint64_t stack_count = 0;
  RETURN_IF_ERROR(r.U64(&stack_count));
  if (stack_count > r.remaining() / 8) return Corrupt("stack slot count overruns input");
  if (max_value_stack != 0 && stack_count > max_value_stack) {
    return Corrupt("stack exceeds max_value_stack");
  }
  std::vector<uint64_t> stack(static_cast<size_t>(stack_count));
  for (uint64_t& slot : stack) {
    RETURN_IF_ERROR(r.U64(&slot));
  }

  // Frames: parse + validate fully before touching the instance.
  struct FrameRec {
    uint32_t func = 0;
    uint32_t pc = 0;
    uint32_t locals_base = 0;
    uint32_t stack_base = 0;
    uint8_t prepared = 0;
  };
  uint32_t frame_count = 0;
  RETURN_IF_ERROR(r.U32(&frame_count));
  if (frame_count > r.remaining() / kFrameRecBytes) {
    return Corrupt("frame count overruns input");
  }
  if (max_frames != 0 && frame_count > max_frames) {
    return Corrupt("frame count exceeds max_frames");
  }
  std::vector<FrameRec> frames(frame_count);
  uint32_t prev_base = 0;
  for (FrameRec& fr : frames) {
    RETURN_IF_ERROR(r.U32(&fr.func));
    RETURN_IF_ERROR(r.U32(&fr.pc));
    RETURN_IF_ERROR(r.U32(&fr.locals_base));
    RETURN_IF_ERROR(r.U32(&fr.stack_base));
    RETURN_IF_ERROR(r.U8(&fr.prepared));
    if (fr.func >= m.functions.size()) return Corrupt("frame function out of range");
    const Function& fn = m.functions[fr.func];
    if (fr.prepared > 1) return Corrupt("bad frame stream flag");
    if (fr.prepared != 0) {
      if (fn.prepared.code.empty() ||
          scheme == static_cast<uint8_t>(SafepointScheme::kEveryInstr)) {
        return Corrupt("frame claims prepared stream it cannot have");
      }
      if (fr.pc >= fn.prepared.code.size()) return Corrupt("frame pc out of range");
    } else {
      if (fr.pc >= fn.code.size()) return Corrupt("frame pc out of range");
    }
    const FuncType& type = m.types[fn.type_index];
    const uint64_t expect_base = static_cast<uint64_t>(fr.locals_base) +
                                 type.params.size() + fn.locals.size() + 1;
    if (fr.stack_base != expect_base) return Corrupt("frame stack layout mismatch");
    if (fr.locals_base < prev_base) return Corrupt("frame bases not monotonic");
    if (fr.stack_base > stack.size()) return Corrupt("frame base beyond stack");
    prev_base = fr.stack_base;
  }

  // Globals.
  uint32_t global_count = 0;
  RETURN_IF_ERROR(r.U32(&global_count));
  if (global_count != m.NumGlobals()) return Corrupt("global count mismatch");
  if (global_count > r.remaining() / 8) return Corrupt("global count overruns input");
  std::vector<uint64_t> globals(global_count);
  for (uint64_t& g : globals) {
    RETURN_IF_ERROR(r.U64(&g));
  }

  // Memory: sizes and page indices validated before anything is applied.
  std::shared_ptr<Memory> mem = inst->memory(0);
  uint64_t snap_pages = 0;
  uint32_t delta_count = 0;
  RETURN_IF_ERROR(r.U64(&snap_pages));
  RETURN_IF_ERROR(r.U32(&delta_count));
  if (mem == nullptr) {
    if (snap_pages != 0 || delta_count != 0) {
      return Corrupt("memory snapshot for a module with no memory");
    }
  } else {
    if (snap_pages < mem->size_pages()) return Corrupt("memory smaller than fresh instance");
    if (snap_pages > mem->max_pages()) return Corrupt("memory exceeds declared maximum");
  }
  if (delta_count > r.remaining() / kDeltaRecBytes) {
    return Corrupt("delta page count overruns input");
  }
  struct DeltaRec {
    uint64_t page = 0;
    const uint8_t* bytes = nullptr;  // borrowed from the input buffer
  };
  std::vector<DeltaRec> deltas(delta_count);
  for (DeltaRec& d : deltas) {
    RETURN_IF_ERROR(r.U64(&d.page));
    if (d.page >= snap_pages) return Corrupt("delta page out of range");
    d.bytes = r.cur();
    RETURN_IF_ERROR(r.Skip(kWasmPageSize));
  }

  // Host blob.
  uint64_t blob_len = 0;
  RETURN_IF_ERROR(r.U64(&blob_len));
  if (blob_len > r.remaining()) return Corrupt("host blob overruns input");
  std::vector<uint8_t> host_blob(static_cast<size_t>(blob_len));
  if (blob_len > 0) {
    RETURN_IF_ERROR(r.Bytes(host_blob.data(), static_cast<size_t>(blob_len)));
  }
  if (r.remaining() != 0) return Corrupt("trailing bytes after host blob");

  // Everything parsed and validated; now mutate the instance.
  for (uint32_t i = 0; i < global_count; ++i) {
    inst->global(i).bits = globals[i];
  }
  if (mem != nullptr && snap_pages > mem->size_pages()) {
    if (mem->Grow(snap_pages - mem->size_pages()) < 0) {
      return common::ResourceExhausted("snapshot: memory grow refused at restore");
    }
  }
  // Pre-fault each contiguous run of delta pages with one madvise, so the
  // copy writes into populated pages instead of taking a fault per OS page.
  // An error is ignored: kernels before 5.14 reject the advice, and the
  // copy then takes the faults.
  for (size_t i = 0; i < deltas.size();) {
    size_t j = i + 1;
    while (j < deltas.size() && deltas[j].page == deltas[j - 1].page + 1) ++j;
    madvise(mem->base() + deltas[i].page * kWasmPageSize, (j - i) * kWasmPageSize,
            MADV_POPULATE_WRITE);
    i = j;
  }
  for (const DeltaRec& d : deltas) {
    std::memcpy(mem->base() + d.page * kWasmPageSize, d.bytes, kWasmPageSize);
  }

  // Rebuild the parked context exactly as Invoke's resumable path leaves it:
  // heap-allocated, buffers swapped in, code/table/cost pointers re-derived
  // from the hash-matched module, and the suspension armed so ResumeInvoke
  // continues bit-identically to the never-evicted run.
  out->Discard();
  auto ctxp = std::make_unique<ExecContext>();
  ExecContext& ctx = *ctxp;
  ctx.root = inst;
  ctx.opts.scheme = static_cast<SafepointScheme>(scheme);
  ctx.opts.max_frames = max_frames;
  ctx.opts.max_value_stack = max_value_stack;
  ctx.opts.fuel = fuel;
  ctx.opts.dispatch = mode.dispatch;
  ctx.opts.jit = mode.jit;
  ctx.opts.jit_threshold = mode.jit_threshold;
  ctx.opts.buffers = buffers;
  ctx.opts.suspend_to = out;  // the resumed run may park again
  ctx.opts.profile = false;   // attribution windows are not captured
  ctx.poll = &inst->safepoint_fn();
  if (buffers != nullptr) {
    ctx.stack.swap(buffers->stack);
    ctx.frames.swap(buffers->frames);
    ctx.stack.clear();
    ctx.frames.clear();
  }
  ctx.stack.assign(stack.begin(), stack.end());
  ctx.frames.reserve(frames.size());
  for (const FrameRec& rec : frames) {
    const FuncRef& ref = inst->func(m.num_imported_funcs + rec.func);
    const Function* fn = &m.functions[rec.func];
    ExecContext::Frame fr;
    fr.inst = inst;
    fr.fn = fn;
    if (rec.prepared != 0) {
      fr.code = fn->prepared.code.data();
      fr.tables = fn->prepared.br_tables.data();
      fr.lcost = fn->prepared.linear_cost.data();
    } else {
      fr.code = fn->code.data();
      fr.tables = fn->br_tables.data();
      fr.lcost = nullptr;
    }
    fr.pc = rec.pc;
    fr.locals_base = rec.locals_base;
    fr.stack_base = rec.stack_base;
    fr.mem = mem.get();
    fr.type = ref.type;
    ctx.frames.push_back(fr);
  }
  ctx.trap = TrapKind::kSyscallPending;
  ctx.exit_code = static_cast<int32_t>(exit_code);
  ctx.executed = executed;
  ctx.pending_host_results = pending_results;
  ctx.profile_mark = executed;

  out->entry_type = &m.types[entry_type_index];
  out->buffers = buffers;
  out->pending_results = pending_results;
  out->ctx = std::move(ctxp);
  return host_blob;
}

}  // namespace wasm
