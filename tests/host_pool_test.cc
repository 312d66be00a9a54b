// Host-layer module cache and instance pool: content-hash dedup, LRU
// eviction, slot recycling, and — critically — the reset-state guarantees a
// recycled slot must give the next tenant (clean exit flags, empty signal
// table, reset mmap pool, re-zeroed and re-initialized linear memory).
#include <gtest/gtest.h>

#include <errno.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/host/host.h"
#include "tests/wali_test_util.h"

namespace {

// Guest WAT bodies share the common prelude from wali_test_util.h.
std::string WrapModule(const std::string& body) {
  return std::string("(module ") + wali_test::kPrelude + body + ")";
}

struct HostWorld {
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wali::WaliRuntime> runtime;
  std::unique_ptr<host::ModuleCache> cache;
  std::unique_ptr<host::InstancePool> pool;
};

HostWorld MakeWorld(size_t cache_capacity = 16) {
  HostWorld w;
  w.linker = std::make_unique<wasm::Linker>();
  w.runtime = std::make_unique<wali::WaliRuntime>(w.linker.get());
  w.cache = std::make_unique<host::ModuleCache>(cache_capacity);
  w.pool = std::make_unique<host::InstancePool>(w.runtime.get());
  return w;
}

TEST(ModuleCache, DedupByContentHash) {
  HostWorld w = MakeWorld();
  std::string wat = WrapModule("(memory 2) (func (export \"main\") (result i32) (i32.const 0))");
  auto a = w.cache->Load(wat);
  auto b = w.cache->Load(wat);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get()) << "same bytes must yield the same module object";
  host::ModuleCache::Stats s = w.cache->stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ModuleCache, DistinctContentDistinctModules) {
  HostWorld w = MakeWorld();
  auto a = w.cache->Load(
      WrapModule("(memory 2) (func (export \"main\") (result i32) (i32.const 1))"));
  auto b = w.cache->Load(
      WrapModule("(memory 2) (func (export \"main\") (result i32) (i32.const 2))"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->get(), b->get());
  EXPECT_EQ(w.cache->stats().misses, 2u);
}

TEST(ModuleCache, AcceptsBinaryWasm) {
  HostWorld w = MakeWorld();
  auto parsed = wasm::ParseAndValidateWat(
      WrapModule("(memory 2) (func (export \"main\") (result i32) (i32.const 7))"));
  ASSERT_TRUE(parsed.ok());
  std::vector<uint8_t> encoded = wasm::EncodeModule(**parsed);
  std::string bytes(reinterpret_cast<const char*>(encoded.data()), encoded.size());
  auto loaded = w.cache->Load(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto again = w.cache->Load(bytes);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(loaded->get(), again->get());
}

TEST(ModuleCache, RejectsGarbage) {
  HostWorld w = MakeWorld();
  auto r = w.cache->Load("this is not wasm");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(w.cache->stats().entries, 0u);
}

TEST(ModuleCache, LruEviction) {
  HostWorld w = MakeWorld(/*cache_capacity=*/2);
  std::string a = WrapModule("(memory 2) (func (export \"main\") (result i32) (i32.const 1))");
  std::string b = WrapModule("(memory 2) (func (export \"main\") (result i32) (i32.const 2))");
  std::string c = WrapModule("(memory 2) (func (export \"main\") (result i32) (i32.const 3))");
  ASSERT_TRUE(w.cache->Load(a).ok());
  ASSERT_TRUE(w.cache->Load(b).ok());
  ASSERT_TRUE(w.cache->Load(a).ok());  // a is now more recently used than b
  ASSERT_TRUE(w.cache->Load(c).ok());  // evicts b
  host::ModuleCache::Stats s = w.cache->stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  ASSERT_TRUE(w.cache->Load(a).ok());  // still cached
  EXPECT_EQ(w.cache->stats().hits, 2u);
}

// Guest that dirties every kind of per-process state the pool must scrub:
// registers a SIGUSR1 handler, mmaps anonymous memory, grows the heap via
// brk, scribbles a marker into linear memory (OS pages 0 and 1), fills
// `fill_os_pages` more OS pages from offset 8192 with 0x5a, then exits via
// exit_group(7) (which sets exit_all on the process).
std::string DirtyGuest(int fill_os_pages) {
  return R"(
  (memory 2)
  (table 4 funcref)
  (func $handler (param i32))
  (elem (i32.const 2) $handler)
  (func (export "main") (result i32)
    ;; WaliKSigaction{handler=2, flags=0, mask=0} at 1024
    (i32.store (i32.const 1024) (i32.const 2))
    (i32.store (i32.const 1028) (i32.const 0))
    (i64.store (i32.const 1032) (i64.const 0))
    (drop (call $sigaction (i64.const 10) (i64.const 1024) (i64.const 0) (i64.const 8)))
    ;; mmap(NULL, 8192, PROT_READ|PROT_WRITE, MAP_PRIVATE|MAP_ANON, -1, 0)
    (drop (call $mmap (i64.const 0) (i64.const 8192) (i64.const 3)
                      (i64.const 0x22) (i64.const -1) (i64.const 0)))
    ;; dirty a marker word well away from any data segment
    (i32.store (i32.const 4096) (i32.const 0xdeadbeef))
    (memory.fill (i32.const 8192) (i32.const 0x5a) (i32.const )" +
         std::to_string(fill_os_pages * 4096) + R"())
    (drop (call $exit_group (i64.const 7)))
    (i32.const 0))
)";
}

const std::string kDirtyGuest = DirtyGuest(0);

// The first offset of [0, len) at `p` that holds a nonzero byte, or len.
uint64_t FirstNonzero(const uint8_t* p, uint64_t len) {
  for (uint64_t i = 0; i < len; ++i) {
    if (p[i] != 0) return i;
  }
  return len;
}

// A slot recycled after `guest` ran in it starts with every piece of
// per-process state reset.
void ExpectRecycledSlotStartsClean(const std::string& guest) {
  HostWorld w = MakeWorld();
  auto module = w.cache->Load(WrapModule(guest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  // First run: cold slot, guest dirties everything.
  {
    auto lease = w.pool->Acquire(*module, {"tenant-a"}, {});
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_FALSE(lease->recycled());
    wasm::RunResult r = w.runtime->RunMain(**lease);
    ASSERT_EQ(r.trap, wasm::TrapKind::kExit);
    EXPECT_EQ(r.exit_code, 7);
    wali::WaliProcess& p = **lease;
    EXPECT_TRUE(p.exit_all.load());
    EXPECT_NE(p.sigtable.GetAction(SIGUSR1).handler, wali::kSigDfl);
    EXPECT_GT(p.mmap.bytes_in_use(), 0u);
    EXPECT_GT(p.trace.total_calls(), 0u);
  }  // lease returns the slot to the pool

  // Second run: must be a recycled slot with fully reset state.
  {
    auto lease = w.pool->Acquire(*module, {"tenant-b"}, {});
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_TRUE(lease->recycled());
    wali::WaliProcess& p = **lease;
    EXPECT_FALSE(p.exit_all.load());
    EXPECT_EQ(p.exit_code.load(), 0);
    EXPECT_EQ(p.clear_child_tid.load(), 0u);
    EXPECT_EQ(p.sigtable.GetAction(SIGUSR1).handler, wali::kSigDfl);
    EXPECT_EQ(p.sigtable.virtual_mask(), 0u);
    EXPECT_EQ(p.mmap.bytes_in_use(), 0u);
    EXPECT_EQ(p.trace.total_calls(), 0u);
    EXPECT_EQ(p.policy, nullptr);
    EXPECT_EQ(p.argv[0], "tenant-b");
    // Linear memory: size back at the declared min, and every byte (marker
    // and fill; the guest has no data segment) re-zeroed.
    ASSERT_NE(p.memory, nullptr);
    EXPECT_EQ(p.memory->size_pages(), 2u);
    EXPECT_EQ(FirstNonzero(p.memory->base(), p.memory->size_bytes()),
              p.memory->size_bytes())
        << "previous tenant's write leaked through the reset";
  }

  host::InstancePool::Stats s = w.pool->stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
}

// Once per reset path: a last tenant with 2 dirty OS pages is memset in
// place, one with 22 is dropped.
TEST(InstancePool, RecycledSlotStartsClean) {
  for (int fill_os_pages : {0, 20}) {
    SCOPED_TRACE("last tenant filled " + std::to_string(fill_os_pages) + " more OS pages");
    ExpectRecycledSlotStartsClean(DirtyGuest(fill_os_pages));
  }
}

// Fills every other OS page from page 1 with 0x5a: 20 pages when argv has
// two entries, else 2. Before it fills a page it checks that the page reads
// zero, as must page 0 outside the data segment; it exits 1 at the first
// stale word. It reads no other page: a read maps the shared zero page, which
// the next reset counts as resident, so a guest that read all its memory
// would send every reset down the drop path. Its slot's next reset thus
// finds 3 or 21 resident pages, and memsets or drops them.
const char* kRecycleCheckGuest = R"(
  (memory 3)
  (data (i32.const 16) "recycle!")
  (func $stale (param $p i32) (result i32)
    (local $end i32)
    (local.set $end (i32.add (local.get $p) (i32.const 4096)))
    (block $done
      (loop $scan
        (br_if $done (i32.ge_u (local.get $p) (local.get $end)))
        (if (i32.and (i32.ne (local.get $p) (i32.const 16))
                     (i64.ne (i64.load (local.get $p)) (i64.const 0)))
          (then (return (i32.const 1))))
        (local.set $p (i32.add (local.get $p) (i32.const 8)))
        (br $scan)))
    (i32.const 0))
  (func (export "main") (result i32)
    (local $p i32) (local $n i32)
    (if (call $stale (i32.const 0)) (then (return (i32.const 1))))
    (local.set $n (select (i32.const 20) (i32.const 2)
                          (i64.eq (call $get_argc) (i64.const 2))))
    (local.set $p (i32.const 4096))
    (block $done
      (loop $dirty
        (br_if $done (i32.eqz (local.get $n)))
        (if (call $stale (local.get $p)) (then (return (i32.const 1))))
        (memory.fill (local.get $p) (i32.const 0x5a) (i32.const 4096))
        (local.set $p (i32.add (local.get $p) (i32.const 8192)))
        (local.set $n (i32.sub (local.get $n) (i32.const 1)))
        (br $dirty)))
    (i32.const 0))
)";

// Resets run on several workers at once: slots move between threads and
// between small and large footprints, and no tenant may see a byte of the
// one before it.
TEST(InstancePool, ConcurrentRecycleStartsClean) {
  HostWorld w = MakeWorld();
  auto module = w.cache->Load(WrapModule(kRecycleCheckGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  constexpr int kThreads = 3;
  constexpr int kCycles = 200;
  std::atomic<int> failed{0};
  std::atomic<int> stale{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCycles; ++i) {
        std::vector<std::string> argv = {"recycle"};
        if (i % 2 == 1) argv.push_back("wide");
        auto lease = w.pool->Acquire(*module, std::move(argv), {});
        if (!lease.ok()) {
          failed.fetch_add(1);
          continue;
        }
        wasm::RunResult r = w.runtime->RunMain(**lease);
        if (!r.ok() || r.values.size() != 1) {
          failed.fetch_add(1);
        } else if (r.values[0].i32() != 0) {
          stale.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(stale.load(), 0) << "a tenant read its slot's previous tenant's bytes";
  EXPECT_GT(w.pool->stats().hits, 0u);
}

TEST(InstancePool, RecycledSlotKeepsMemoryBase) {
  HostWorld w = MakeWorld();
  auto module = w.cache->Load(WrapModule(kDirtyGuest));
  ASSERT_TRUE(module.ok());
  uint8_t* base = nullptr;
  {
    auto lease = w.pool->Acquire(*module, {"a"}, {});
    ASSERT_TRUE(lease.ok());
    base = (*lease)->memory->base();
  }
  auto lease = w.pool->Acquire(*module, {"b"}, {});
  ASSERT_TRUE(lease.ok());
  EXPECT_TRUE(lease->recycled());
  EXPECT_EQ((*lease)->memory->base(), base)
      << "recycling must reuse the reserved slab, not re-mmap";
}

TEST(InstancePool, DataSegmentsReappliedAfterReset) {
  HostWorld w = MakeWorld();
  // Guest reads its data segment and returns the first byte ('W' = 87); it
  // also overwrites the segment so a missing re-apply would be visible.
  auto module = w.cache->Load(WrapModule(R"(
    (memory 2)
    (data (i32.const 256) "WALI")
    (func (export "main") (result i32)
      (local $c i32)
      (local.set $c (i32.load8_u (i32.const 256)))
      (i32.store (i32.const 256) (i32.const 0))
      (local.get $c))
  )"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  for (int round = 0; round < 3; ++round) {
    auto lease = w.pool->Acquire(*module, {"t"}, {});
    ASSERT_TRUE(lease.ok());
    wasm::RunResult r = w.runtime->RunMain(**lease);
    ASSERT_TRUE(r.ok()) << wasm::TrapKindName(r.trap);
    ASSERT_EQ(r.values.size(), 1u);
    EXPECT_EQ(r.values[0].i32(), 87u) << "round " << round;
  }
  EXPECT_EQ(w.pool->stats().hits, 2u);
}

TEST(InstancePool, HighWaterTracksConcurrentLeases) {
  HostWorld w = MakeWorld();
  auto module = w.cache->Load(WrapModule(kDirtyGuest));
  ASSERT_TRUE(module.ok());
  {
    auto a = w.pool->Acquire(*module, {"a"}, {});
    auto b = w.pool->Acquire(*module, {"b"}, {});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(w.pool->stats().high_water, 2u);
  }
  EXPECT_EQ(w.pool->stats().idle, 2u);
  auto c = w.pool->Acquire(*module, {"c"}, {});
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->recycled());
}

TEST(InstancePool, IdleCapDropsExcessSlots) {
  HostWorld w = MakeWorld();
  host::InstancePool::Options popts;
  popts.max_idle_per_module = 1;
  host::InstancePool pool(w.runtime.get(), popts);
  auto module = w.cache->Load(WrapModule(kDirtyGuest));
  ASSERT_TRUE(module.ok());
  {
    auto a = pool.Acquire(*module, {"a"}, {});
    auto b = pool.Acquire(*module, {"b"}, {});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
  }
  host::InstancePool::Stats s = pool.stats();
  EXPECT_EQ(s.idle, 1u);
  EXPECT_EQ(s.drops, 1u);
}

TEST(InstancePool, LeakedFdsClosedOnRecycle) {
  HostWorld w = MakeWorld();
  std::string path = testing::TempDir() + "/host_pool_fdleak_" +
                     std::to_string(::getpid());
  // Guest opens a file O_WRONLY|O_CREAT and deliberately never closes it.
  auto module = w.cache->Load(WrapModule(
      "(memory 2)\n(data (i32.const 64) \"" + path + "\\00\")\n" + R"(
    (func (export "main") (result i32)
      (if (i64.lt_s (call $open (i64.const 64) (i64.const 0x41) (i64.const 0x1a4))
                    (i64.const 0))
        (then (return (i32.const 1))))
      (i32.const 0))
  )"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  {
    auto lease = w.pool->Acquire(*module, {"leaky"}, {});
    ASSERT_TRUE(lease.ok());
    wasm::RunResult r = w.runtime->RunMain(**lease);
    ASSERT_TRUE(r.ok_or_exit0()) << wasm::TrapKindName(r.trap);
    ASSERT_EQ(r.values.size(), 1u);
    ASSERT_EQ(r.values[0].i32(), 0u) << "guest failed to open " << path;
    EXPECT_EQ((*lease)->tracked_fd_count(), 1)
        << "dispatch layer must track the minted fd";
  }
  auto lease = w.pool->Acquire(*module, {"next"}, {});
  ASSERT_TRUE(lease.ok());
  EXPECT_TRUE(lease->recycled());
  EXPECT_EQ((*lease)->tracked_fd_count(), 0)
      << "previous tenant's leaked fd must be closed on recycle";
  std::remove(path.c_str());
}

TEST(InstancePool, ClosedFdsAreUntracked) {
  HostWorld w = MakeWorld();
  // Guest dups stderr and closes the duplicate: net zero tracked fds.
  auto module = w.cache->Load(WrapModule(R"(
    (memory 2)
    (func (export "main") (result i32)
      (local $fd i64)
      (local.set $fd (call $dup (i64.const 2)))
      (if (i64.lt_s (local.get $fd) (i64.const 0)) (then (return (i32.const 1))))
      (drop (call $close (local.get $fd)))
      (i32.const 0))
  )"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  auto lease = w.pool->Acquire(*module, {"t"}, {});
  ASSERT_TRUE(lease.ok());
  wasm::RunResult r = w.runtime->RunMain(**lease);
  ASSERT_TRUE(r.ok_or_exit0());
  EXPECT_EQ((*lease)->tracked_fd_count(), 0);
}

// /proc/self/status's VmLck, in kB.
long LockedKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmLck:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

// The VmFlags of each /proc/self/smaps VMA that overlaps [lo, hi), as
// " flag flag ... " so a flag matches as " xx ".
std::vector<std::string> VmFlagsIn(uintptr_t lo, uintptr_t hi) {
  std::ifstream in("/proc/self/smaps");
  std::vector<std::string> flags;
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    unsigned long long start = 0;
    unsigned long long end = 0;
    if (std::sscanf(line.c_str(), "%llx-%llx ", &start, &end) == 2) {
      inside = start < hi && end > lo;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      flags.push_back(line.substr(8) + " ");
    }
  }
  return flags;
}

// A guest cannot set attributes on its slab. A lock would outlive the run
// and spend the host's RLIMIT_MEMLOCK, and mapping advice would survive the
// pool's reset into the slot's next tenant. The second guest does not lock,
// so its slab's reset is the same-size MADV_DONTNEED that once kept `hg`.
TEST(InstancePool, SlabAttributesStayTheHosts) {
  const std::string kAdvise = R"(
      ;; madvise(0, 128 KiB) with MADV_HUGEPAGE (14), then MADV_RANDOM (1)
      (i64.or (local.get $r)
        (i64.or (call $madvise (i64.const 0) (i64.const 131072) (i64.const 14))
                (call $madvise (i64.const 0) (i64.const 131072) (i64.const 1)))))
  )";
  const std::string kHead = R"(
    (import "wali" "SYS_mlock" (func $mlock (param i64 i64) (result i64)))
    (import "wali" "SYS_madvise" (func $madvise (param i64 i64 i64) (result i64)))
    (memory 2 64)
    (func (export "main") (result i32)
      (local $r i64)
  )";
  const std::string kGuests[] = {
      kHead + "(local.set $r (call $mlock (i64.const 0) (i64.const 65536)))" +
          "(i32.wrap_i64 " + kAdvise + ")",
      kHead + "(i32.wrap_i64 " + kAdvise + ")",
  };
  for (const std::string& guest : kGuests) {
    SCOPED_TRACE(guest);
    HostWorld w = MakeWorld();
    auto module = w.cache->Load(WrapModule(guest));
    ASSERT_TRUE(module.ok()) << module.status().ToString();
    long locked_before = LockedKb();
    uintptr_t lo = 0;
    uintptr_t hi = 0;
    {
      auto lease = w.pool->Acquire(*module, {"tenant-a"}, {});
      ASSERT_TRUE(lease.ok()) << lease.status().ToString();
      wasm::RunResult r = w.runtime->RunMain(**lease);
      ASSERT_TRUE(r.ok()) << r.trap_message;
      ASSERT_EQ(r.values.size(), 1u);
      EXPECT_EQ(r.values[0].i32(), 0u) << "mlock and madvise answer 0";
      EXPECT_EQ(LockedKb(), locked_before) << "the guest's mlock reached the kernel";
      lo = reinterpret_cast<uintptr_t>((*lease)->memory->base());
      hi = lo + (*lease)->memory->max_pages() * wasm::kWasmPageSize;
    }
    auto lease = w.pool->Acquire(*module, {"tenant-b"}, {});
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    ASSERT_TRUE(lease->recycled());
    std::vector<std::string> flags = VmFlagsIn(lo, hi);
    ASSERT_FALSE(flags.empty()) << "no VMA found for the slab";
    for (const std::string& f : flags) {
      for (const char* guest_set : {" lo ", " hg ", " nh ", " rr ", " sr "}) {
        EXPECT_EQ(f.find(guest_set), std::string::npos)
            << "slab VMA carries" << guest_set << "after the reset: " << f;
      }
    }
  }
}

// This process's native disposition for `signo`.
struct sigaction NativeAction(int signo) {
  struct sigaction sa;
  EXPECT_EQ(sigaction(signo, nullptr, &sa), 0);
  return sa;
}

TEST(SigTableNative, UnboundTableLeavesNativeDefault) {
  // A pooled tenant's dispositions are data: neither SIG_IGN nor a handler
  // reaches the host's native table, before or after the slot's reset.
  wali::SigTable table;
  wali::SigEntry e;
  e.handler = wali::kSigIgn;
  ASSERT_EQ(table.SetAction(SIGUSR2, e, nullptr), 0);
  e.handler = 2;  // a funcref
  ASSERT_EQ(table.SetAction(SIGUSR1, e, nullptr), 0);
  EXPECT_EQ(NativeAction(SIGUSR2).sa_handler, SIG_DFL);
  EXPECT_EQ(NativeAction(SIGUSR1).sa_handler, SIG_DFL);
  table.Reset();
  EXPECT_EQ(table.GetAction(SIGUSR2).handler, wali::kSigDfl);
  EXPECT_EQ(table.GetAction(SIGUSR1).handler, wali::kSigDfl);
  EXPECT_EQ(NativeAction(SIGUSR2).sa_handler, SIG_DFL);
  EXPECT_EQ(NativeAction(SIGUSR1).sa_handler, SIG_DFL);
}

TEST(SigTableNative, BoundTableMirrorsAndUnbinds) {
  // The one table a single-run host binds mirrors its dispositions, and a
  // caught native signal lands in it; unbinding hands the host back SIG_DFL.
  wali::SigTable table;
  ASSERT_EQ(table.BindNative(), 0);
  EXPECT_TRUE(table.bound());
  wali::SigTable other;
  EXPECT_EQ(other.BindNative(), -EBUSY) << "two tables bound to one host";
  EXPECT_FALSE(other.bound());

  wali::SigEntry e;
  e.handler = wali::kSigIgn;
  ASSERT_EQ(table.SetAction(SIGUSR1, e, nullptr), 0);
  EXPECT_EQ(NativeAction(SIGUSR1).sa_handler, SIG_IGN);
  e.handler = 2;  // a funcref: the native trampoline
  ASSERT_EQ(table.SetAction(SIGUSR2, e, nullptr), 0);
  struct sigaction sa = NativeAction(SIGUSR2);
  ASSERT_NE(sa.sa_handler, SIG_DFL);
  ASSERT_NE(sa.sa_handler, SIG_IGN);
  EXPECT_NE(sa.sa_flags & SA_RESTART, 0);
  ASSERT_EQ(raise(SIGUSR2), 0);
  EXPECT_EQ(table.pending(), wali::SigBit(SIGUSR2));

  table.UnbindNative();
  EXPECT_FALSE(table.bound());
  EXPECT_EQ(NativeAction(SIGUSR1).sa_handler, SIG_DFL);
  EXPECT_EQ(NativeAction(SIGUSR2).sa_handler, SIG_DFL);
  EXPECT_EQ(other.BindNative(), 0) << "an unbound host takes a new binding";
}

// Engine-level reset hook (the primitive the pool builds on).
TEST(MemoryReset, ZeroesAndTruncates) {
  wasm::Limits limits;
  limits.min = 2;
  limits.max = 16;
  limits.has_max = true;
  auto mem = wasm::Memory::Create(limits);
  ASSERT_TRUE(mem.ok());
  ASSERT_GE((*mem)->Grow(6), 0);
  EXPECT_EQ((*mem)->size_pages(), 8u);
  (*mem)->At(100)[0] = 0x5a;
  (*mem)->At(5 * wasm::kWasmPageSize)[0] = 0x5a;
  ASSERT_TRUE((*mem)->ResetToPages(2).ok());
  EXPECT_EQ((*mem)->size_pages(), 2u);
  EXPECT_EQ((*mem)->At(100)[0], 0);
  ASSERT_TRUE((*mem)->ResetToPages(8).ok());
  EXPECT_EQ((*mem)->At(5 * wasm::kWasmPageSize)[0], 0)
      << "re-grown reset pages must read as zero";
  EXPECT_FALSE((*mem)->ResetToPages(17).ok()) << "cannot reset beyond reservation";
}

// The rows are written for 4 KiB OS pages: 16 per wasm page.
constexpr uint64_t kOsPage = 4096;

// The OS pages of `mem`'s whole reservation that mincore reports resident.
std::vector<uint64_t> ResidentOsPages(const wasm::Memory& mem) {
  const uint64_t bytes = mem.max_pages() * wasm::kWasmPageSize;
  std::vector<unsigned char> vec(bytes / kOsPage);
  std::vector<uint64_t> resident;
  if (mincore(mem.base(), bytes, vec.data()) != 0) {
    ADD_FAILURE() << "mincore: " << std::strerror(errno);
    return resident;
  }
  for (uint64_t i = 0; i < vec.size(); ++i) {
    if (vec[i] & 1) resident.push_back(i);
  }
  return resident;
}

std::vector<uint64_t> OsPages(uint64_t first, uint64_t count) {
  std::vector<uint64_t> pages;
  for (uint64_t i = 0; i < count; ++i) pages.push_back(first + i);
  return pages;
}

// One case of ResetToPages' rule. The last tenant runs in a memory of
// `before` wasm pages (a 16-page reservation, below any huge page): it fills
// each OS page in `written` with 0x5a and reads each in `read`, and with
// `forked` a child shares those pages copy-on-write across the reset.
// ResetToPages(`after`) must leave exactly `resident` resident: the last
// tenant's footprint below `after` when it is at most 16 OS pages, none
// otherwise. Every byte of the reservation must then read zero.
struct ResetCase {
  const char* name;
  uint64_t before;
  uint64_t after;
  std::vector<uint64_t> written;
  std::vector<uint64_t> read;
  bool forked;
  std::vector<uint64_t> resident;
};

const ResetCase kResetCases[] = {
    {"TwoDirtyPagesStayResident", 4, 4, {0, 17}, {}, false, {0, 17}},
    {"SixteenDirtyPagesStayResident", 4, 4, OsPages(0, 16), {}, false, OsPages(0, 16)},
    {"SeventeenDirtyPagesAreDropped", 4, 4, OsPages(0, 17), {}, false, {}},
    {"ResidentPagesBetweenHoles", 4, 4, {3, 4, 9, 40, 63}, {}, false, {3, 4, 9, 40, 63}},
    // Pages 40 and 100 lie above the new 2-page size.
    {"ShrinkDropsPagesAboveTheNewSize", 8, 2, {1, 40, 100}, {}, false, {1}},
    // A read maps the shared zero page, which mincore calls resident; the
    // memset gives the slot a private page.
    {"ReadOnlyTouchedPage", 4, 4, {1}, {3}, false, {1, 3}},
    // The memset breaks the sharing; the child keeps the old bytes.
    {"CopyOnWriteSharedAfterFork", 4, 4, {2, 5}, {}, true, {2, 5}},
};

void PrintTo(const ResetCase& tc, std::ostream* os) { *os << tc.name; }

class MemoryResetRule : public testing::TestWithParam<ResetCase> {};

TEST_P(MemoryResetRule, KeepsASmallFootprintAndZeroesEveryByte) {
  const ResetCase& tc = GetParam();
  if (sysconf(_SC_PAGESIZE) != static_cast<long>(kOsPage)) {
    GTEST_SKIP() << "the rows are written for 4 KiB OS pages";
  }
  wasm::Limits limits;
  limits.min = tc.before;
  limits.max = 16;
  limits.has_max = true;
  auto mem = wasm::Memory::Create(limits);
  ASSERT_TRUE(mem.ok());
  wasm::Memory& m = **mem;
  for (uint64_t page : tc.written) std::memset(m.At(page * kOsPage), 0x5a, kOsPage);
  for (uint64_t page : tc.read) {
    EXPECT_EQ(*static_cast<volatile uint8_t*>(m.At(page * kOsPage)), 0);
  }
  int gate[2] = {-1, -1};
  pid_t child = -1;
  if (tc.forked) {
    ASSERT_EQ(pipe(gate), 0);
    child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Holds the shared pages until the parent closes its end of the gate.
      char c;
      close(gate[1]);
      while (read(gate[0], &c, 1) < 0 && errno == EINTR) {
      }
      _exit(0);
    }
    close(gate[0]);
  }
  common::Status reset = m.ResetToPages(tc.after);
  std::vector<uint64_t> resident = ResidentOsPages(m);
  if (tc.forked) {
    close(gate[1]);
    int status = 0;
    EXPECT_EQ(waitpid(child, &status, 0), child);
  }
  ASSERT_TRUE(reset.ok()) << reset.ToString();
  EXPECT_EQ(m.size_pages(), tc.after);
  EXPECT_EQ(resident, tc.resident);
  ASSERT_EQ(m.Grow(m.max_pages() - tc.after), static_cast<int64_t>(tc.after));
  const uint64_t bytes = m.max_pages() * wasm::kWasmPageSize;
  EXPECT_EQ(FirstNonzero(m.base(), bytes), bytes) << "the last tenant's byte survived the reset";
}

INSTANTIATE_TEST_SUITE_P(Rows, MemoryResetRule, testing::ValuesIn(kResetCases),
                         [](const testing::TestParamInfo<ResetCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
