// Host-layer module cache and instance pool: content-hash dedup, LRU
// eviction, slot recycling, and — critically — the reset-state guarantees a
// recycled slot must give the next tenant (clean exit flags, empty signal
// table, reset mmap pool, re-zeroed and re-initialized linear memory).
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
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
// brk, scribbles a marker into linear memory, then exits via exit_group(7)
// (which sets exit_all on the process).
const char* kDirtyGuest = R"(
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
    (drop (call $exit_group (i64.const 7)))
    (i32.const 0))
)";

TEST(InstancePool, RecycledSlotStartsClean) {
  HostWorld w = MakeWorld();
  auto module = w.cache->Load(WrapModule(kDirtyGuest));
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
    // Linear memory: marker word re-zeroed, size back at the declared min.
    ASSERT_NE(p.memory, nullptr);
    EXPECT_EQ(p.memory->size_pages(), 2u);
    uint32_t marker;
    std::memcpy(&marker, p.memory->At(4096), sizeof(marker));
    EXPECT_EQ(marker, 0u) << "previous tenant's write leaked through the reset";
  }

  host::InstancePool::Stats s = w.pool->stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
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

TEST(SigTableReset, SigIgnRestoredToDefault) {
  // A tenant that SIG_IGNs a signal must not leave the native disposition
  // ignored for the next tenant in the slot.
  {
    wali::SigTable table;
    wali::SigEntry e;
    e.handler = wali::kSigIgn;
    ASSERT_EQ(table.SetAction(SIGUSR2, e, nullptr), 0);
    struct sigaction sa;
    ASSERT_EQ(sigaction(SIGUSR2, nullptr, &sa), 0);
    EXPECT_EQ(sa.sa_handler, SIG_IGN);
    table.Reset();
  }
  struct sigaction sa;
  ASSERT_EQ(sigaction(SIGUSR2, nullptr, &sa), 0);
  EXPECT_EQ(sa.sa_handler, SIG_DFL);
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

}  // namespace
