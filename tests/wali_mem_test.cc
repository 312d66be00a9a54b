// WALI memory-management syscalls: anonymous and file-backed mmap inside the
// sandbox, file maps as private copies, munmap-to-zeros, mremap, brk, the
// PROT restrictions of §3.6, the invariant that no guest mmap, mprotect or
// madvise can make linear memory fault the host, and Linux's rule that
// memory mmap, mremap and brk hand out reads as zeros.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "tests/wali_test_util.h"

namespace {

using wali_test::ExpectWaliMain;
using wali_test::RunWali;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/wali_mem_" + std::to_string(getpid()) + "_" + name;
}

TEST(WaliMem, AnonymousMmapReadWrite) {
  // mmap(0, 8192, RW, ANON|PRIVATE) then store/load through the mapping.
  std::string body = R"(
    (memory 2 256)
    (func (export "main") (result i32)
      (local $p i64)
      (local.set $p (call $mmap (i64.const 0) (i64.const 8192) (i64.const 3)
                          (i64.const 0x22) (i64.const -1) (i64.const 0)))
      (if (i64.lt_s (local.get $p) (i64.const 0)) (then (return (i32.const 1))))
      (i32.store (i32.wrap_i64 (local.get $p)) (i32.const 0x12345678))
      (if (i32.ne (i32.load (i32.wrap_i64 (local.get $p))) (i32.const 0x12345678))
        (then (return (i32.const 2))))
      ;; fresh anonymous maps are zero-filled beyond what we wrote
      (if (i32.ne (i32.load offset=4096 (i32.wrap_i64 (local.get $p))) (i32.const 0))
        (then (return (i32.const 3))))
      (i32.const 0))
  )";
  ExpectWaliMain(body, 0);
}

TEST(WaliMem, FileBackedMmapCopiesTheFile) {
  std::string path = TempPath("mapfile");
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  // One page of 'A' then "WALI".
  for (int i = 0; i < 4096; ++i) fputc('A', f);
  fputs("WALI", f);
  fclose(f);
  std::string body = R"(
    (memory 2 256)
    (data (i32.const 64) ")" + path + R"(\00")" + R"()
    (func (export "main") (result i32)
      (local $fd i64) (local $p i64)
      (local.set $fd (call $open (i64.const 64) (i64.const 0) (i64.const 0)))
      (if (i64.lt_s (local.get $fd) (i64.const 0)) (then (return (i32.const 1))))
      ;; map the second page: mmap(0, 4096, READ, PRIVATE, fd, 4096)
      (local.set $p (call $mmap (i64.const 0) (i64.const 4096) (i64.const 1)
                          (i64.const 0x2) (local.get $fd) (i64.const 4096)))
      (if (i64.lt_s (local.get $p) (i64.const 0)) (then (return (i32.const 2))))
      ;; "WALI" little-endian = 0x494C4157
      (if (i32.ne (i32.load (i32.wrap_i64 (local.get $p))) (i32.const 0x494C4157))
        (then (return (i32.const 3))))
      (drop (call $close (local.get $fd)))
      (if (i64.ne (call $munmap (local.get $p) (i64.const 4096)) (i64.const 0))
        (then (return (i32.const 4))))
      ;; after munmap the sandbox page reads as zeros, never faults
      (if (i32.ne (i32.load (i32.wrap_i64 (local.get $p))) (i32.const 0))
        (then (return (i32.const 5))))
      (i32.const 0))
  )";
  ExpectWaliMain(body, 0);
  unlink(path.c_str());
}

// Every committed byte of linear memory stays anonymous, private and
// read-write, so no guest mmap, mprotect or madvise can make a later access
// fault the host. Each row maps (or tries to map) a 5-byte file holding
// "/dev" and its NUL; the first seven rows killed the host with SIGSEGV or
// SIGBUS while a file map was a MAP_FIXED map of the file itself.
struct InvariantCase {
  const char* name;
  const char* body;  // the rest of main after $fd is open; returns an i32
  uint32_t want;
  uint64_t mapped_after;  // MmapManager::bytes_in_use() after the run
};

const InvariantCase kInvariantCases[] = {
    {"StoreIntoProtReadFileMap", R"(
      (local.set $p (call $map (i64.const 4096) (i64.const 1) (local.get $fd)))
      (i32.store (local.get $p) (i32.const 0x12345678))
      (i32.ne (i32.load (local.get $p)) (i32.const 0x12345678)))",
     0, 4096},
    {"LoadFromProtNoneFileMap", R"(
      (local.set $p (call $map (i64.const 4096) (i64.const 0) (local.get $fd)))
      (i32.ne (i32.load (local.get $p)) (i32.const 0x7665642f)))",  // "/dev"
     0, 4096},
    // Linux raises SIGBUS past the file's end; the copy reads zeros there.
    {"LoadPastTheFileEnd", R"(
      (local.set $p (call $map (i64.const 65536) (i64.const 1) (local.get $fd)))
      (i32.or (i32.ne (i32.load (local.get $p)) (i32.const 0x7665642f))
              (i32.or (i32.load offset=4 (local.get $p))
                      (i32.load offset=8192 (local.get $p)))))",
     0, 65536},
    // The copy holds the file's bytes at mmap time.
    {"LoadAfterTruncatingTheFile", R"(
      (local.set $p (call $map (i64.const 4096) (i64.const 1) (local.get $fd)))
      (if (i64.ne (call $ftruncate (local.get $fd) (i64.const 0)) (i64.const 0))
        (then (return (i32.const 201))))
      (i32.ne (i32.load (local.get $p)) (i32.const 0x7665642f)))",
     0, 4096},
    // The anonymous map right after $p keeps the grow from happening in
    // place, so MmapManager::Reallocate copies the map.
    {"MremapMovesProtNoneFileMap", R"(
      (local.set $p (call $map (i64.const 4096) (i64.const 0) (local.get $fd)))
      (drop (call $map (i64.const 4096) (i64.const 3) (i64.const -1)))
      (local.set $r (call $mremap (i64.extend_i32_u (local.get $p)) (i64.const 4096)
                          (i64.const 65536) (i64.const 1) (i64.const 0)))
      (if (i64.lt_s (local.get $r) (i64.const 0)) (then (return (i32.const 202))))
      (if (i64.eq (local.get $r) (i64.extend_i32_u (local.get $p)))
        (then (return (i32.const 203))))
      (i32.ne (i32.load (i32.wrap_i64 (local.get $r))) (i32.const 0x7665642f)))",
     0, 4096 + 65536},
    {"OpenPathInProtNoneFileMap", R"(
      (local.set $p (call $map (i64.const 4096) (i64.const 0) (local.get $fd)))
      (local.set $r (call $open (i64.extend_i32_u (local.get $p)) (i64.const 0)
                          (i64.const 0)))
      (if (i64.lt_s (local.get $r) (i64.const 0))
        (then (return (i32.wrap_i64 (i64.sub (i64.const 0) (local.get $r))))))
      (drop (call $close (local.get $r)))
      (i32.const 0))",
     0, 4096},
    // MADV_GUARD_INSTALL (102): a load from a guard page raises SIGSEGV.
    {"MadviseGuardInstall", R"(
      (local.set $p (call $map (i64.const 4096) (i64.const 3) (i64.const -1)))
      (local.set $r (call $madvise (i64.extend_i32_u (local.get $p)) (i64.const 4096)
                          (i64.const 102)))
      (drop (i32.load (local.get $p)))
      (i32.wrap_i64 (i64.sub (i64.const 0) (local.get $r))))",
     EINVAL, 4096},
    // MADV_WILLNEED (3) and MADV_DONTNEED (4) pass through, and the dropped
    // page reads as zeros; MADV_DONTFORK (10) is not on the allowlist.
    {"MadviseAllowlist", R"(
      (local.set $p (call $map (i64.const 4096) (i64.const 3) (i64.const -1)))
      (i32.store (local.get $p) (i32.const 7))
      (if (i64.ne (call $madvise (i64.extend_i32_u (local.get $p)) (i64.const 4096)
                        (i64.const 3))
                  (i64.const 0))
        (then (return (i32.const 205))))
      (if (i64.ne (call $madvise (i64.extend_i32_u (local.get $p)) (i64.const 4096)
                        (i64.const 4))
                  (i64.const 0))
        (then (return (i32.const 206))))
      (if (i32.ne (i32.load (local.get $p)) (i32.const 0))
        (then (return (i32.const 207))))
      (i32.wrap_i64 (i64.sub (i64.const 0)
        (call $madvise (i64.extend_i32_u (local.get $p)) (i64.const 4096)
              (i64.const 10)))))",
     EINVAL, 4096},
    // MAP_PRIVATE|MAP_FIXED (0x12) at 2^64 - 4096: the hint's end wrapped
    // past 2^64 through the pool's range check, and the file copy then
    // wrote below linear memory.
    {"FixedMapAtTheTopOfTheAddressSpace", R"(
      (i32.wrap_i64 (i64.sub (i64.const 0)
        (call $mmap (i64.const -4096) (i64.const 4096) (i64.const 1) (i64.const 0x12)
              (local.get $fd) (i64.const 0)))))",
     ENOMEM, 0},
    // A length near 2^64 wrapped the same check and was handed out.
    {"MapNearlyTwoToTheSixtyFourBytes", R"(
      (i32.wrap_i64 (i64.sub (i64.const 0)
        (call $mmap (i64.const 0) (i64.const -8192) (i64.const 3) (i64.const 0x22)
              (i64.const -1) (i64.const 0)))))",
     ENOMEM, 0},
    // MAP_SHARED_VALIDATE (3), then MAP_SHARED (1).
    {"SharedFileMap", R"(
      (if (i64.ne (call $mmap (i64.const 0) (i64.const 4096) (i64.const 1) (i64.const 3)
                        (local.get $fd) (i64.const 0))
                  (i64.const -19))
        (then (return (i32.const 204))))
      (i32.wrap_i64 (i64.sub (i64.const 0)
        (call $mmap (i64.const 0) (i64.const 4096) (i64.const 1) (i64.const 1)
              (local.get $fd) (i64.const 0)))))",
     ENODEV, 0},
    {"PipeFileMap", R"(
      (drop (call $pipe2 (i64.const 256) (i64.const 0)))
      (local.set $r (call $mmap (i64.const 0) (i64.const 4096) (i64.const 1) (i64.const 2)
                          (i64.load32_s (i32.const 256)) (i64.const 0)))
      (drop (call $close (i64.load32_s (i32.const 256))))
      (drop (call $close (i64.load32_s (i32.const 260))))
      (i32.wrap_i64 (i64.sub (i64.const 0) (local.get $r))))",
     ENODEV, 0},
    {"DirectoryFileMap", R"(
      (local.set $r (call $open (i64.const 32) (i64.const 0) (i64.const 0)))  ;; "/dev"
      (local.set $p (i32.wrap_i64 (i64.sub (i64.const 0)
        (call $mmap (i64.const 0) (i64.const 4096) (i64.const 1) (i64.const 2)
              (local.get $r) (i64.const 0)))))
      (drop (call $close (local.get $r)))
      (local.get $p))",
     ENODEV, 0},
    {"ClosedFdFileMap", R"(
      (drop (call $close (local.get $fd)))
      (i32.wrap_i64 (i64.sub (i64.const 0)
        (call $mmap (i64.const 0) (i64.const 4096) (i64.const 1) (i64.const 2)
              (local.get $fd) (i64.const 0)))))",
     EBADF, 0},
};

class WaliMemInvariant : public testing::TestWithParam<InvariantCase> {};

TEST_P(WaliMemInvariant, GuestCannotFaultTheHost) {
  const InvariantCase& tc = GetParam();
  std::string path = TempPath(tc.name);
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fwrite("/dev", 1, 5, f), 5u);
  fclose(f);
  // $map: mmap(0, len, prot, MAP_PRIVATE, fd, 0), trapping on failure.
  std::string body = R"(
    (import "wali" "SYS_ftruncate" (func $ftruncate (param i64 i64) (result i64)))
    (import "wali" "SYS_madvise" (func $madvise (param i64 i64 i64) (result i64)))
    (memory 2 256)
    (data (i32.const 32) "/dev\00")
    (data (i32.const 64) ")" + path + R"(\00")
    (func $map (param $len i64) (param $prot i64) (param $fd i64) (result i32)
      (local $p i64)
      (local.set $p (call $mmap (i64.const 0) (local.get $len) (local.get $prot)
                          (i64.const 2) (local.get $fd) (i64.const 0)))
      (if (i64.lt_s (local.get $p) (i64.const 0)) (then (unreachable)))
      (i32.wrap_i64 (local.get $p)))
    (func (export "main") (result i32)
      (local $fd i64) (local $p i32) (local $r i64)
      (local.set $fd (call $open (i64.const 64) (i64.const 2) (i64.const 0)))
      (if (i64.lt_s (local.get $fd) (i64.const 0)) (then (return (i32.const 200))))
  )" + tc.body + ")";
  wali_test::WaliWorld world = RunWali(body);
  ASSERT_EQ(world.result.trap, wasm::TrapKind::kNone)
      << wasm::TrapKindName(world.result.trap) << " " << world.result.trap_message;
  ASSERT_EQ(world.result.values.size(), 1u);
  EXPECT_EQ(world.result.values[0].i32(), tc.want);
  EXPECT_EQ(world.process->mmap.bytes_in_use(), tc.mapped_after)
      << "a failed map must release its pool range";
  unlink(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Rows, WaliMemInvariant, testing::ValuesIn(kInvariantCases),
                         [](const testing::TestParamInfo<InvariantCase>& info) {
                           return std::string(info.param.name);
                         });

// Linux's rule for mmap, mremap and brk: memory handed out reads as zeros.
// Each row fills memory with 0x5a (90) or a marker and must answer 0; each
// once answered 90, or 100 where a live map was handed out again.
struct FreshBytesCase {
  const char* name;
  const char* body;  // the rest of main; returns an i32
};

const FreshBytesCase kFreshBytesCases[] = {
    // A shrink releases its tail, so the regrown tail is fresh.
    {"MremapShrinkThenRegrow", R"(
      (local.set $p (call $anon (i64.const 65536)))
      (memory.fill (local.get $p) (i32.const 0x5a) (i32.const 65536))
      (if (i64.ne (call $mremap (i64.extend_i32_u (local.get $p)) (i64.const 65536)
                        (i64.const 4096) (i64.const 0) (i64.const 0))
                  (i64.extend_i32_u (local.get $p)))
        (then (return (i32.const 201))))
      (if (i64.ne (call $mremap (i64.extend_i32_u (local.get $p)) (i64.const 4096)
                        (i64.const 65536) (i64.const 0) (i64.const 0))
                  (i64.extend_i32_u (local.get $p)))
        (then (return (i32.const 202))))
      (i32.load8_u offset=8192 (local.get $p)))"},
    {"BrkRegrow", R"(
      (local.set $b (call $brk (i64.const 0)))
      (if (i64.ne (call $brk (i64.add (local.get $b) (i64.const 65536)))
                  (i64.add (local.get $b) (i64.const 65536)))
        (then (return (i32.const 201))))
      (memory.fill (i32.wrap_i64 (local.get $b)) (i32.const 0x5a) (i32.const 65536))
      (if (i64.ne (call $brk (local.get $b)) (local.get $b))
        (then (return (i32.const 202))))
      (drop (call $brk (i64.add (local.get $b) (i64.const 65536))))
      (i32.load8_u offset=8192 (i32.wrap_i64 (local.get $b))))"},
    // memory.grow takes pages above the pool's first map; the next map is
    // handed the same pages.
    {"MapOverGrownMemory", R"(
      (local.set $p (call $anon (i64.const 65536)))
      (if (i32.lt_s (memory.grow (i32.const 4)) (i32.const 0))
        (then (return (i32.const 201))))
      (memory.fill (i32.add (local.get $p) (i32.const 65536)) (i32.const 0x5a)
                   (i32.const 65536))
      (local.set $q (call $anon (i64.const 65536)))
      (if (i32.ne (local.get $q) (i32.add (local.get $p) (i32.const 65536)))
        (then (return (i32.const 202))))
      (i32.load8_u offset=100 (local.get $q)))"},
    // The 64 KiB map after $p makes the grow move; brk's region then takes
    // the range the move left.
    {"BrkOverMremapSource", R"(
      (local.set $p (call $anon (i64.const 1048576)))
      (drop (call $anon (i64.const 65536)))
      (memory.fill (local.get $p) (i32.const 0x5a) (i32.const 1048576))
      (local.set $r (call $mremap (i64.extend_i32_u (local.get $p)) (i64.const 1048576)
                          (i64.const 2097152) (i64.const 1) (i64.const 0)))
      (if (i32.or (i64.lt_s (local.get $r) (i64.const 0))
                  (i64.eq (local.get $r) (i64.extend_i32_u (local.get $p))))
        (then (return (i32.const 201))))
      (local.set $b (call $brk (i64.const 0)))
      (if (i64.ne (local.get $b) (i64.extend_i32_u (local.get $p)))
        (then (return (i32.const 202))))
      (drop (call $brk (i64.add (local.get $b) (i64.const 4096))))
      (i32.load8_u offset=100 (local.get $p)))"},
    // Growing part of a mapping cannot stay in place (Linux: -ENOMEM without
    // MREMAP_MAYMOVE), so the rest of the mapping stays live.
    {"MremapGrowsPartOfAMapping", R"(
      (local.set $p (call $anon (i64.const 262144)))
      (i32.store8 offset=204800 (local.get $p) (i32.const 77))
      (local.set $r (call $mremap (i64.extend_i32_u (local.get $p)) (i64.const 65536)
                          (i64.const 131072) (i64.const 0) (i64.const 0)))
      (local.set $q (call $anon (i64.const 131072)))
      (if (i32.ne (i32.load8_u offset=204800 (local.get $p)) (i32.const 77))
        (then (return (i32.const 100))))
      (if (i64.ne (local.get $r) (i64.const -12)) (then (return (i32.const 203))))
      (i32.lt_u (local.get $q) (i32.add (local.get $p) (i32.const 262144))))"},
};

class WaliMemFreshBytes : public testing::TestWithParam<FreshBytesCase> {};

TEST_P(WaliMemFreshBytes, HandedOutMemoryReadsZero) {
  // $anon: mmap(0, len, RW, MAP_PRIVATE|MAP_ANONYMOUS, -1, 0), trapping on
  // failure.
  std::string body = R"(
    (memory 2 64)
    (func $anon (param $len i64) (result i32)
      (local $p i64)
      (local.set $p (call $mmap (i64.const 0) (local.get $len) (i64.const 3)
                          (i64.const 0x22) (i64.const -1) (i64.const 0)))
      (if (i64.lt_s (local.get $p) (i64.const 0)) (then (unreachable)))
      (i32.wrap_i64 (local.get $p)))
    (func (export "main") (result i32)
      (local $p i32) (local $q i32) (local $b i64) (local $r i64)
  )" + std::string(GetParam().body) + ")";
  ExpectWaliMain(body, 0);
}

INSTANTIATE_TEST_SUITE_P(Rows, WaliMemFreshBytes, testing::ValuesIn(kFreshBytesCases),
                         [](const testing::TestParamInfo<FreshBytesCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(WaliMem, MmapRejectsExec) {
  // PROT_EXEC mappings are impossible by construction (§3.6).
  std::string body = R"(
    (memory 2 64)
    (func (export "main") (result i32)
      (i32.wrap_i64
        (i64.sub (i64.const 0)
          (call $mmap (i64.const 0) (i64.const 4096) (i64.const 7)
                (i64.const 0x22) (i64.const -1) (i64.const 0)))))
  )";
  ExpectWaliMain(body, EPERM);
}

TEST(WaliMem, MremapGrows) {
  std::string body = R"(
    (memory 2 256)
    (func (export "main") (result i32)
      (local $p i64) (local $q i64)
      (local.set $p (call $mmap (i64.const 0) (i64.const 4096) (i64.const 3)
                          (i64.const 0x22) (i64.const -1) (i64.const 0)))
      (if (i64.lt_s (local.get $p) (i64.const 0)) (then (return (i32.const 1))))
      (i32.store (i32.wrap_i64 (local.get $p)) (i32.const 777))
      ;; mremap(p, 4096, 65536, MREMAP_MAYMOVE)
      (local.set $q (call $mremap (local.get $p) (i64.const 4096) (i64.const 65536)
                          (i64.const 1) (i64.const 0)))
      (if (i64.lt_s (local.get $q) (i64.const 0)) (then (return (i32.const 2))))
      ;; contents preserved across the move/grow
      (if (i32.ne (i32.load (i32.wrap_i64 (local.get $q))) (i32.const 777))
        (then (return (i32.const 3))))
      ;; tail of the grown mapping is writable
      (i32.store offset=65000 (i32.wrap_i64 (local.get $q)) (i32.const 5))
      (i32.const 0))
  )";
  ExpectWaliMain(body, 0);
}

TEST(WaliMem, BrkEmulation) {
  std::string body = R"(
    (memory 2 256)
    (func (export "main") (result i32)
      (local $cur i64) (local $next i64)
      (local.set $cur (call $brk (i64.const 0)))
      (if (i64.le_s (local.get $cur) (i64.const 0)) (then (return (i32.const 1))))
      (local.set $next (call $brk (i64.add (local.get $cur) (i64.const 65536))))
      (if (i64.ne (local.get $next) (i64.add (local.get $cur) (i64.const 65536)))
        (then (return (i32.const 2))))
      ;; heap memory is usable
      (i32.store (i32.wrap_i64 (local.get $cur)) (i32.const 99))
      (if (i32.ne (i32.load (i32.wrap_i64 (local.get $cur))) (i32.const 99))
        (then (return (i32.const 3))))
      ;; brk(0) now reports the new break
      (if (i64.ne (call $brk (i64.const 0)) (local.get $next))
        (then (return (i32.const 4))))
      (i32.const 0))
  )";
  ExpectWaliMain(body, 0);
}

TEST(WaliMem, MunmapBelowPoolRejected) {
  // Unmapping module data (below the allocation pool) must be refused.
  std::string body = R"(
    (memory 2 64)
    (func (export "main") (result i32)
      (i32.wrap_i64
        (i64.sub (i64.const 0)
                 (call $munmap (i64.const 4096) (i64.const 4096)))))
  )";
  ExpectWaliMain(body, EINVAL);
}

TEST(WaliMem, PoolExhaustionReturnsEnomem) {
  // Max memory 4 pages = 256 KiB; asking for 1 MiB must fail cleanly.
  std::string body = R"(
    (memory 2 4)
    (func (export "main") (result i32)
      (i32.wrap_i64
        (i64.sub (i64.const 0)
          (call $mmap (i64.const 0) (i64.const 1048576) (i64.const 3)
                (i64.const 0x22) (i64.const -1) (i64.const 0)))))
  )";
  ExpectWaliMain(body, ENOMEM);
}

TEST(WaliMem, MmapManagerInvariants) {
  // Direct unit coverage of the pool allocator.
  wasm::Limits limits;
  limits.min = 2;
  limits.max = 64;
  limits.has_max = true;
  auto mem = wasm::Memory::Create(limits);
  ASSERT_TRUE(mem.ok());
  wali::MmapManager mgr;
  mgr.Bind(mem->get());
  uint64_t a = mgr.Allocate(10000, 0, false);
  ASSERT_NE(a, 0u);
  EXPECT_EQ(a % wali::kMmapPageSize, 0u);
  uint64_t b = mgr.Allocate(4096, 0, false);
  ASSERT_NE(b, 0u);
  EXPECT_TRUE(mgr.IsMapped(a, 10000));
  EXPECT_TRUE(mgr.IsMapped(b, 4096));
  // Release the first; its space is reusable.
  EXPECT_TRUE(mgr.Release(a, 10000));
  EXPECT_FALSE(mgr.IsMapped(a, 4096));
  uint64_t c = mgr.Allocate(4096, 0, false);
  EXPECT_EQ(c, a);  // first-fit reuses the gap
  // Fixed mapping over an in-use range replaces it (MAP_FIXED semantics).
  uint64_t f = mgr.Allocate(8192, b, true);
  EXPECT_EQ(f, b);
  // Partial release keeps the tails.
  uint64_t big = mgr.Allocate(5 * 4096, 0, false);
  ASSERT_NE(big, 0u);
  EXPECT_TRUE(mgr.Release(big + 4096, 4096));
  EXPECT_TRUE(mgr.IsMapped(big, 4096));
  EXPECT_FALSE(mgr.IsMapped(big + 4096, 4096));
  EXPECT_TRUE(mgr.IsMapped(big + 2 * 4096, 3 * 4096));
}

}  // namespace
