// WALI filesystem syscalls end-to-end: guests do real file I/O through the
// thin interface; checks passthrough results, zero-copy reads/writes, the
// portable kstat layout, errno convention, EFAULT on bad pointers, and the
// /proc/self/mem interposition (paper §3.2, §3.5, §3.6).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "tests/wali_test_util.h"

namespace {

using wali_test::ExpectWaliMain;
using wali_test::RunWali;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/wali_fs_" + std::to_string(getpid()) + "_" + name;
}

// Writes "hello\n" to a file, closes, reopens, reads it back, compares.
TEST(WaliFs, WriteReadRoundtrip) {
  std::string path = TempPath("roundtrip");
  std::string body = R"(
    (memory 2)
    (data (i32.const 64) ")" + path + R"(\00")" + R"()
    (data (i32.const 256) "hello\n")
    (func (export "main") (result i32)
      (local $fd i64)
      ;; open(path, O_WRONLY|O_CREAT|O_TRUNC, 0644) = flags 0x241
      (local.set $fd (call $open (i64.const 64) (i64.const 0x241) (i64.const 0x1a4)))
      (if (i64.lt_s (local.get $fd) (i64.const 0)) (then (return (i32.const 1))))
      (if (i64.ne (call $write (local.get $fd) (i64.const 256) (i64.const 6))
                  (i64.const 6))
        (then (return (i32.const 2))))
      (drop (call $close (local.get $fd)))
      ;; reopen read-only
      (local.set $fd (call $open (i64.const 64) (i64.const 0) (i64.const 0)))
      (if (i64.lt_s (local.get $fd) (i64.const 0)) (then (return (i32.const 3))))
      (if (i64.ne (call $read (local.get $fd) (i64.const 512) (i64.const 64))
                  (i64.const 6))
        (then (return (i32.const 4))))
      (drop (call $close (local.get $fd)))
      ;; compare bytes
      (if (i32.ne (i32.load (i32.const 512)) (i32.load (i32.const 256)))
        (then (return (i32.const 5))))
      (i32.const 0))
  )";
  ExpectWaliMain(body, 0);
  // Host-side verification of the guest's write.
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[16] = {0};
  ASSERT_EQ(fread(buf, 1, 6, f), 6u);
  EXPECT_EQ(std::string(buf, 6), "hello\n");
  fclose(f);
  unlink(path.c_str());
}

TEST(WaliFs, StatPortableLayout) {
  std::string path = TempPath("statfile");
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("0123456789", f);  // size 10
  fclose(f);
  // WaliKStat layout: size is at offset 48 (see wabi::WaliKStat).
  std::string body = R"(
    (memory 2)
    (data (i32.const 64) ")" + path + R"(\00")" + R"()
    (func (export "main") (result i32)
      (if (i64.ne (call $stat (i64.const 64) (i64.const 1024)) (i64.const 0))
        (then (return (i32.const 1))))
      ;; return the file size from the portable kstat record
      (i32.wrap_i64 (i64.load offset=48 (i32.const 1024))))
  )";
  ExpectWaliMain(body, 10);
  unlink(path.c_str());
}

TEST(WaliFs, ErrnoConventionOnMissingFile) {
  // open of a nonexistent file returns -ENOENT (=-2).
  std::string body = R"(
    (memory 2)
    (data (i32.const 64) "/definitely/not/a/file\00")
    (func (export "main") (result i32)
      (i32.wrap_i64
        (i64.sub (i64.const 0)
                 (call $open (i64.const 64) (i64.const 0) (i64.const 0)))))
  )";
  ExpectWaliMain(body, ENOENT);
}

// An empty path names no file, so the kernel answers -ENOENT; the filter
// must not anchor it to the working directory and open that instead.
struct EmptyPathCase {
  const char* name;
  const char* call;  // an i64 expression over the empty string at 64
};

const EmptyPathCase kEmptyPathCases[] = {
    {"Open", "(call $open (i64.const 64) (i64.const 0) (i64.const 0))"},
    {"OpenatCwd",
     "(call $openat (i64.const -100) (i64.const 64) (i64.const 0) (i64.const 0))"},
};

class WaliFsEmptyPath : public testing::TestWithParam<EmptyPathCase> {};

TEST_P(WaliFsEmptyPath, AnswersEnoent) {
  std::string body = R"(
    (memory 1)
    (func (export "main") (result i32)
      (i32.wrap_i64 (i64.sub (i64.const 0) )" +
                     std::string(GetParam().call) + ")))";
  ExpectWaliMain(body, ENOENT);
}

INSTANTIATE_TEST_SUITE_P(Rows, WaliFsEmptyPath, testing::ValuesIn(kEmptyPathCases),
                         [](const testing::TestParamInfo<EmptyPathCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(WaliFs, EfaultOnBadPointer) {
  // write(1, huge_addr, 8) -> -EFAULT because the buffer is out of bounds.
  std::string body = R"(
    (memory 1)
    (func (export "main") (result i32)
      (i32.wrap_i64
        (i64.sub (i64.const 0)
                 (call $write (i64.const 1) (i64.const 0x7FFFFFFF) (i64.const 8)))))
  )";
  ExpectWaliMain(body, EFAULT);
}

TEST(WaliFs, ProcSelfMemBlocked) {
  // §3.6: /proc/self/mem is interposed and refused with EACCES.
  std::string body = R"(
    (memory 1)
    (data (i32.const 64) "/proc/self/mem\00")
    (func (export "main") (result i32)
      (i32.wrap_i64
        (i64.sub (i64.const 0)
                 (call $open (i64.const 64) (i64.const 0) (i64.const 0)))))
  )";
  ExpectWaliMain(body, EACCES);
}

TEST(WaliFs, ProcSelfMemDotDotSpellingBlocked) {
  // Regression: the interposition must normalize `.`/`..` segments before
  // matching, or /proc/self/../self/mem walks straight around the filter.
  std::string body = R"(
    (memory 1)
    (data (i32.const 64) "/proc/self/../self/mem\00")
    (func (export "main") (result i32)
      (i32.wrap_i64
        (i64.sub (i64.const 0)
                 (call $open (i64.const 64) (i64.const 0) (i64.const 0)))))
  )";
  ExpectWaliMain(body, EACCES);
}

TEST(WaliFs, PathAllowedNormalizesEvasiveSpellings) {
  // Direct unit coverage of the filter across evasive spellings.
  EXPECT_FALSE(wali::PathAllowed("/proc/self/mem"));
  EXPECT_FALSE(wali::PathAllowed("/proc/self/../self/mem"));
  EXPECT_FALSE(wali::PathAllowed("/proc//self//mem"));
  EXPECT_FALSE(wali::PathAllowed("/proc/self/./mem"));
  EXPECT_FALSE(wali::PathAllowed("/etc/../proc/self/mem"));
  EXPECT_FALSE(wali::PathAllowed("/proc/1234/maps"));
  EXPECT_FALSE(wali::PathAllowed("/proc/self/task/77/mem"));
  EXPECT_FALSE(wali::PathAllowed("/proc/self/map_files"));
  EXPECT_FALSE(wali::PathAllowed("/proc/self/map_files/0-0"));
  EXPECT_FALSE(wali::PathAllowed("/proc/self/pagemap"));

  EXPECT_TRUE(wali::PathAllowed("/proc/self/cmdline"));
  EXPECT_TRUE(wali::PathAllowed("/proc/self/status"));
  EXPECT_TRUE(wali::PathAllowed("/proc/cpuinfo"));
  EXPECT_TRUE(wali::PathAllowed("/tmp/mem"));
  EXPECT_TRUE(wali::PathAllowed("/proc/self/mem/..")) << "resolves to /proc/self";
  EXPECT_TRUE(wali::PathAllowed("relative/path"));
}

TEST(WaliFs, RelativePathsAnchoredAtCwd) {
  // ../../proc/self/mem resolves against the cwd exactly like the kernel
  // would; enough `..`s clamp at the root from any depth.
  std::string deep;
  for (int i = 0; i < 16; ++i) deep += "../";
  EXPECT_FALSE(wali::PathAllowed(deep + "proc/self/mem"));
  EXPECT_TRUE(wali::PathAllowed(deep + "tmp/ok"));
}

TEST(WaliFs, PathAllowedAtResolvesDirfd) {
  // The two-step escape: open /proc/self (allowed), then openat(fd, "mem").
  int dirfd = ::open("/proc/self", O_RDONLY | O_DIRECTORY);
  ASSERT_GE(dirfd, 0);
  EXPECT_FALSE(wali::PathAllowedAt(dirfd, "mem"));
  EXPECT_FALSE(wali::PathAllowedAt(dirfd, "task/1/mem"));
  EXPECT_TRUE(wali::PathAllowedAt(dirfd, "status"));
  ::close(dirfd);
  EXPECT_TRUE(wali::PathAllowedAt(AT_FDCWD, "somefile"));
  EXPECT_FALSE(wali::PathAllowedAt(AT_FDCWD, "/proc/self/mem"));
}

TEST(WaliFs, OpenatDirfdEscapeBlockedEndToEnd) {
  // Guest opens /proc/self, then tries openat(dirfd, "mem"): the second
  // step must fail with EACCES even though both strings look innocent.
  std::string body = R"(
    (memory 1)
    (data (i32.const 64) "/proc/self\00")
    (data (i32.const 96) "mem\00")
    (func (export "main") (result i32)
      (local $dirfd i64)
      ;; O_RDONLY|O_DIRECTORY = 0x10000 in the portable flag space may vary;
      ;; plain O_RDONLY works for open(2) on a directory.
      (local.set $dirfd (call $open (i64.const 64) (i64.const 0) (i64.const 0)))
      (if (i64.lt_s (local.get $dirfd) (i64.const 0)) (then (return (i32.const 1))))
      (i32.wrap_i64
        (i64.sub (i64.const 0)
                 (call $openat (local.get $dirfd) (i64.const 96)
                               (i64.const 0) (i64.const 0)))))
  )";
  ExpectWaliMain(body, EACCES);
}

TEST(WaliFs, NormalizePathLexicalRules) {
  EXPECT_EQ(wali::NormalizePath("/proc/self/../self/mem"), "/proc/self/mem");
  EXPECT_EQ(wali::NormalizePath("/a//b/./c"), "/a/b/c");
  EXPECT_EQ(wali::NormalizePath("/../.."), "/");
  EXPECT_EQ(wali::NormalizePath("a/../b"), "b");
  EXPECT_EQ(wali::NormalizePath("../a"), "../a");
  EXPECT_EQ(wali::NormalizePath(""), ".");
  EXPECT_EQ(wali::NormalizePath("/"), "/");
}

TEST(WaliFs, SymlinkToBlockedTargetRefused) {
  // A guest must not mint a symlink at /proc/self/mem and open it through
  // the innocent-looking link path: symlink creation itself is filtered.
  std::string link = TempPath("mem_link");
  std::string body = R"(
    (import "wali" "SYS_symlink" (func $symlink (param i64 i64) (result i64)))
    (memory 1)
    (data (i32.const 64) "/proc/self/mem\00")
    (data (i32.const 128) ")" + link + R"(\00")
    (func (export "main") (result i32)
      (i32.wrap_i64 (i64.sub (i64.const 0)
        (call $symlink (i64.const 64) (i64.const 128)))))
  )";
  ExpectWaliMain(body, EACCES);
}

TEST(WaliFs, ProcCmdlineStillAllowed) {
  // Interposition is surgical: other /proc entries pass through.
  std::string body = R"(
    (memory 1)
    (data (i32.const 64) "/proc/self/cmdline\00")
    (func (export "main") (result i32)
      (local $fd i64)
      (local.set $fd (call $open (i64.const 64) (i64.const 0) (i64.const 0)))
      (if (i64.lt_s (local.get $fd) (i64.const 0)) (then (return (i32.const 1))))
      (drop (call $close (local.get $fd)))
      (i32.const 0))
  )";
  ExpectWaliMain(body, 0);
}

TEST(WaliFs, MkdirRmdirUnlink) {
  std::string dir = TempPath("dir");
  std::string body = R"(
    (memory 1)
    (data (i32.const 64) ")" + dir + R"(\00")" + R"()
    (func (export "main") (result i32)
      (if (i64.ne (call $mkdir (i64.const 64) (i64.const 0x1ed)) (i64.const 0))
        (then (return (i32.const 1))))
      (if (i64.ne (call $rmdir (i64.const 64)) (i64.const 0))
        (then (return (i32.const 2))))
      ;; second rmdir must fail with -ENOENT
      (if (i64.ne (call $rmdir (i64.const 64)) (i64.const -2))
        (then (return (i32.const 3))))
      (i32.const 0))
  )";
  ExpectWaliMain(body, 0);
}

TEST(WaliFs, PipeAndDup) {
  // pipe2 -> write through dup'ed fd -> read from the other end.
  std::string body = R"(
    (memory 1)
    (data (i32.const 256) "xyz!")
    (func (export "main") (result i32)
      (local $r i64) (local $w i64) (local $w2 i64)
      (if (i64.ne (call $pipe2 (i64.const 64) (i64.const 0)) (i64.const 0))
        (then (return (i32.const 1))))
      (local.set $r (i64.extend_i32_u (i32.load (i32.const 64))))
      (local.set $w (i64.extend_i32_u (i32.load (i32.const 68))))
      (local.set $w2 (call $dup (local.get $w)))
      (if (i64.lt_s (local.get $w2) (i64.const 0)) (then (return (i32.const 2))))
      (if (i64.ne (call $write (local.get $w2) (i64.const 256) (i64.const 4))
                  (i64.const 4))
        (then (return (i32.const 3))))
      (if (i64.ne (call $read (local.get $r) (i64.const 512) (i64.const 16))
                  (i64.const 4))
        (then (return (i32.const 4))))
      (if (i32.ne (i32.load (i32.const 512)) (i32.load (i32.const 256)))
        (then (return (i32.const 5))))
      (drop (call $close (local.get $r)))
      (drop (call $close (local.get $w)))
      (drop (call $close (local.get $w2)))
      (i32.const 0))
  )";
  ExpectWaliMain(body, 0);
}

TEST(WaliFs, GetcwdReturnsPath) {
  std::string body = R"(
    (memory 1)
    (func (export "main") (result i32)
      (local $r i64)
      (local.set $r (call $getcwd (i64.const 1024) (i64.const 512)))
      (if (i64.lt_s (local.get $r) (i64.const 0)) (then (return (i32.const 0))))
      ;; first byte of an absolute path is '/'
      (i32.load8_u (i32.const 1024)))
  )";
  ExpectWaliMain(body, '/');
}

TEST(WaliFs, BadFdReturnsEbadf) {
  std::string body = R"(
    (memory 1)
    (func (export "main") (result i32)
      (i32.wrap_i64
        (i64.sub (i64.const 0)
                 (call $write (i64.const 987654) (i64.const 0) (i64.const 1)))))
  )";
  ExpectWaliMain(body, EBADF);
}

TEST(WaliFs, SyscallTraceCountsCalls) {
  std::string body = R"(
    (memory 1)
    (func (export "main") (result i32)
      (local $i i32)
      (loop $l
        (drop (call $getpid))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br_if $l (i32.lt_u (local.get $i) (i32.const 25))))
      (i32.const 0))
  )";
  auto world = RunWali(body);
  ASSERT_NE(world.process, nullptr);
  int id = world.runtime->SyscallId("getpid");
  ASSERT_GE(id, 0);
  EXPECT_EQ(world.process->trace.count(static_cast<uint32_t>(id)), 25u);
  EXPECT_GE(world.process->trace.total_calls(), 25u);
}

}  // namespace
