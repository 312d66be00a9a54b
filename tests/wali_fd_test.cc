// wali::FdTable, the one record of a WALI process's host fds: which fds the
// guest minted and the cached blocking class of each. Each row of
// WaliFdTable covers one way the table is written or read: an fd effect
// applied by the dispatch wrapper, a registry row that mints, a recycle, a
// reused number, and concurrent guest threads.
#include <gtest/gtest.h>

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/wali/fd_table.h"
#include "tests/wali_test_util.h"

namespace {

using wali::FdEffect;
using wali::FdTable;

bool IsOpen(int fd) { return ::fcntl(fd, F_GETFD) >= 0; }

// A host pipe the test owns, closed at scope exit.
struct HostPipe {
  int fds[2] = {-1, -1};
  HostPipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~HostPipe() {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  int r() const { return fds[0]; }
  int w() const { return fds[1]; }
};

// Imports a row's guest may use beyond the shared prelude.
const char* kFdImports = R"(
  (import "wali" "SYS_pipe" (func $pipe (param i64) (result i64)))
  (import "wali" "SYS_dup2" (func $dup2 (param i64 i64) (result i64)))
  (import "wali" "SYS_dup3" (func $dup3 (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_accept4" (func $accept4 (param i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_epoll_create1" (func $epoll_create1 (param i64) (result i64)))
  (import "wali" "SYS_eventfd2" (func $eventfd2 (param i64 i64) (result i64)))
)";

// Opens a listener on an autobound abstract AF_UNIX address and a client
// connected to it; stores both at 600 and 604 and leaves the listener in $l.
const char* kListenAndConnect = R"(
  (local.set $l (call $socket (i64.const 1) (i64.const 1) (i64.const 0)))
  (i32.store16 (i32.const 700) (i32.const 1))  ;; sun_family = AF_UNIX
  (drop (call $bind (local.get $l) (i64.const 700) (i64.const 2)))  ;; autobind
  (drop (call $listen (local.get $l) (i64.const 4)))
  (i32.store (i32.const 760) (i32.const 110))
  (drop (call $getsockname (local.get $l) (i64.const 800) (i64.const 760)))
  (local.set $c (call $socket (i64.const 1) (i64.const 1) (i64.const 0)))
  (drop (call $connect (local.get $c) (i64.const 800) (i64.load32_u (i32.const 760))))
  (i32.store (i32.const 600) (i32.wrap_i64 (local.get $l)))
  (i32.store (i32.const 604) (i32.wrap_i64 (local.get $c)))
)";

// The u32 fds a guest stored at 600, 604, ...
std::vector<int> StoredFds(wali::WaliProcess& proc, int count) {
  std::vector<int> fds(static_cast<size_t>(count));
  std::memcpy(fds.data(), proc.memory->base() + 600, fds.size() * sizeof(int));
  return fds;
}

wali_test::WaliWorld RunFdGuest(const std::string& main_body) {
  return wali_test::RunWali(std::string(kFdImports) + R"(
    (memory 1)
    (data (i32.const 2048) "/dev/null\00")
    (func (export "main") (result i32)
      (local $l i64) (local $c i64))" + main_body + R"(
      (i32.const 0)))");
}

// A registry row that mints: its guest stores the `count` fds it minted at
// 600, and the table must own exactly those.
struct MintCase {
  std::string name;
  std::string body;
  int count;
};

std::string StoreAt600(const std::string& call) {
  return "(i32.store (i32.const 600) (i32.wrap_i64 " + call + "))";
}

std::vector<MintCase> MintCases() {
  const std::string accept = std::string(kListenAndConnect) + "(i32.store (i32.const 608) ";
  return {
      {"Open", StoreAt600("(call $open (i64.const 2048) (i64.const 0) (i64.const 0))"), 1},
      {"Openat",
       StoreAt600("(call $openat (i64.const -100) (i64.const 2048) (i64.const 0) "
                  "(i64.const 0))"),
       1},
      {"Dup", StoreAt600("(call $dup (i64.const 2))"), 1},
      {"Dup2", StoreAt600("(call $dup2 (i64.const 2) (i64.const 100))"), 1},
      {"Dup3", StoreAt600("(call $dup3 (i64.const 2) (i64.const 101) (i64.const 0x80000))"), 1},
      {"FcntlDupfd", StoreAt600("(call $fcntl (i64.const 2) (i64.const 0) (i64.const 50))"), 1},
      {"FcntlDupfdCloexec",
       StoreAt600("(call $fcntl (i64.const 2) (i64.const 1030) (i64.const 50))"), 1},
      {"Socket", StoreAt600("(call $socket (i64.const 1) (i64.const 1) (i64.const 0))"), 1},
      {"Accept",
       accept + "(i32.wrap_i64 (call $accept (local.get $l) (i64.const 0) (i64.const 0))))",
       3},
      {"Accept4",
       accept + "(i32.wrap_i64 (call $accept4 (local.get $l) (i64.const 0) (i64.const 0) "
                "(i64.const 0))))",
       3},
      {"EpollCreate1", StoreAt600("(call $epoll_create1 (i64.const 0))"), 1},
      {"Eventfd2", StoreAt600("(call $eventfd2 (i64.const 0) (i64.const 0))"), 1},
      {"Pipe", "(drop (call $pipe (i64.const 600)))", 2},
      {"Pipe2", "(drop (call $pipe2 (i64.const 600) (i64.const 0)))", 2},
      {"Socketpair",
       "(drop (call $socketpair (i64.const 1) (i64.const 1) (i64.const 0) (i64.const 600)))", 2},
  };
}

void ExpectMints(const MintCase& mc) {
  wali_test::WaliWorld world = RunFdGuest(mc.body);
  ASSERT_TRUE(world.result.ok()) << world.result.trap_message;
  std::vector<int> minted = StoredFds(*world.process, mc.count);
  for (int fd : minted) {
    ASSERT_GT(fd, 2) << "the call failed with " << -fd;
    EXPECT_TRUE(IsOpen(fd)) << "fd " << fd;
  }
  std::sort(minted.begin(), minted.end());
  EXPECT_EQ(world.process->fds.Owned(), minted);
}

// Runs `main_body` with the fd gates able to park, as under async I/O, after
// `before` has seen the fresh process.
std::unique_ptr<wali::WaliProcess> RunParkable(
    wali::WaliRuntime& rt, const std::string& main_body,
    const std::function<void(wali::WaliProcess&)>& before = {}) {
  auto parsed = wasm::ParseAndValidateWat(std::string("(module ") + wali_test::kPrelude +
                                          kFdImports + R"(
    (memory 1)
    (func (export "main") (result i32))" + main_body + R"(
      (i32.const 0))))");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return nullptr;
  auto proc = rt.CreateProcess(*parsed, {"fd"}, {});
  EXPECT_TRUE(proc.ok()) << proc.status().ToString();
  if (!proc.ok()) return nullptr;
  if (before) before(**proc);
  wali::WaliRuntime::MainContinuation cont;
  wasm::RunResult r = rt.RunMain(**proc, rt.exec_options(), &cont);
  EXPECT_TRUE(r.ok()) << wasm::TrapKindName(r.trap) << " " << r.trap_message;
  return std::move(*proc);
}

// A syscall that mints a pair (pipe2 or socketpair), as a WAT statement
// storing the pair at %d, and the classes its two ends must read.
struct PairMinter {
  const char* call;
  short want_first;
  short want_second;
};

const PairMinter kPipe2 = {"(drop (call $pipe2 (i64.const %d) (i64.const 0)))", POLLIN,
                           POLLOUT};
const PairMinter kSocketpair = {
    "(drop (call $socketpair (i64.const 1) (i64.const 1) (i64.const 0) (i64.const %d)))",
    POLLIN | POLLOUT, POLLIN | POLLOUT};

std::string MintPairAt(const PairMinter& m, int at) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), m.call, at);
  return buf;
}

// The pair stored at `at` reused `want_fds`, and each end reads its class.
void ExpectPairClasses(wali::WaliProcess& proc, int at, const PairMinter& m,
                       const std::vector<int>& want_fds) {
  int got[2];
  std::memcpy(got, proc.memory->base() + at, sizeof(got));
  ASSERT_EQ(std::vector<int>(got, got + 2), want_fds) << "the numbers were not reused";
  EXPECT_EQ(proc.fds.BlockingClass(got[0]), m.want_first) << "fd " << got[0];
  EXPECT_EQ(proc.fds.BlockingClass(got[1]), m.want_second) << "fd " << got[1];
}

// The guest closes a pair, reads the freed number (-EBADF), then mints a new
// pair on the same numbers.
void ReuseAfterGuestBadRead(const PairMinter& m) {
  wasm::Linker linker;
  wali::WaliRuntime rt(&linker);
  auto proc = RunParkable(rt, MintPairAt(m, 600) + R"(
      (drop (call $close (i64.load32_u (i32.const 600))))
      (drop (call $close (i64.load32_u (i32.const 604))))
      (i32.store (i32.const 616) (i32.wrap_i64
        (call $read (i64.load32_u (i32.const 600)) (i64.const 1024) (i64.const 1))))
  )" + MintPairAt(m, 608));
  ASSERT_NE(proc, nullptr);
  int first[2];
  int bad_read = 0;
  std::memcpy(first, proc->memory->base() + 600, sizeof(first));
  std::memcpy(&bad_read, proc->memory->base() + 616, sizeof(bad_read));
  ASSERT_EQ(bad_read, -EBADF);
  ExpectPairClasses(*proc, 608, m, {first[0], first[1]});
}

// The two lowest free numbers were classified while the host held them
// (directories, class 0), and the host closed them behind the table's back.
void ReuseAfterHostHeldNumber(const PairMinter& m) {
  wasm::Linker linker;
  wali::WaliRuntime rt(&linker);
  std::vector<int> held;
  auto proc = RunParkable(rt, MintPairAt(m, 608), [&](wali::WaliProcess& p) {
    for (int i = 0; i < 2; ++i) {
      held.push_back(::open("/", O_RDONLY | O_DIRECTORY));
      EXPECT_EQ(p.fds.BlockingClass(held.back()), 0) << "a directory never blocks";
    }
    for (int fd : held) {
      ::close(fd);
    }
  });
  ASSERT_NE(proc, nullptr);
  ExpectPairClasses(*proc, 608, m, held);
}

struct FdRow {
  std::string name;
  std::function<void()> run;
};

std::vector<FdRow> FdRows() {
  std::vector<FdRow> rows = {
      // One row per fd effect, applied as the dispatch wrapper does.
      {"EffectNoneChangesNothing",
       [] {
         HostPipe p;
         FdTable t;
         const uint64_t args[] = {static_cast<uint64_t>(p.r())};
         t.Apply(FdEffect::kNone, args, p.w());
         EXPECT_TRUE(t.Owned().empty());
       }},
      {"EffectMintsOwnsTheAnswer",
       [] {
         HostPipe p;
         FdTable t;
         const uint64_t args[] = {0};
         t.Apply(FdEffect::kMints, args, -EMFILE);
         EXPECT_TRUE(t.Owned().empty()) << "a failed mint owns nothing";
         t.Apply(FdEffect::kMints, args, p.r());
         EXPECT_EQ(t.Owned(), std::vector<int>{p.r()});
         t.Release();
       }},
      {"EffectMintsPairLeavesItToTheHandler",
       [] {
         FdTable t;
         const uint64_t args[] = {0};
         t.Apply(FdEffect::kMintsPair, args, 0);
         EXPECT_TRUE(t.Owned().empty());
       }},
      {"EffectClosesForgets",
       [] {
         HostPipe p;
         FdTable t;
         t.Mint(p.r());
         EXPECT_EQ(t.BlockingClass(p.r()), POLLIN);
         const uint64_t args[] = {static_cast<uint64_t>(p.r())};
         t.Apply(FdEffect::kCloses, args, 0);
         EXPECT_TRUE(t.Owned().empty());
         EXPECT_TRUE(IsOpen(p.r())) << "the table forgets; the handler closes";
       }},
      {"CloseForgetsEvenWhenItFails",
       [] {
         HostPipe p;
         FdTable t;
         t.Mint(p.r());
         t.Mint(p.w());
         const uint64_t args_r[] = {static_cast<uint64_t>(p.r())};
         const uint64_t args_w[] = {static_cast<uint64_t>(p.w())};
         t.Apply(FdEffect::kCloses, args_r, -EINTR);
         t.Apply(FdEffect::kCloses, args_w, -EIO);
         EXPECT_TRUE(t.Owned().empty());
       }},
      {"EffectFcntlMintsOnlyDupfd",
       [] {
         HostPipe p;
         FdTable t;
         const uint64_t getfl[] = {static_cast<uint64_t>(p.r()), F_GETFL, 0};
         t.Apply(FdEffect::kFcntl, getfl, O_RDONLY);
         EXPECT_TRUE(t.Owned().empty());
         for (uint64_t cmd : {F_DUPFD, F_DUPFD_CLOEXEC}) {
           int dup = ::fcntl(p.r(), static_cast<int>(cmd), 3);
           ASSERT_GE(dup, 3);
           const uint64_t args[] = {static_cast<uint64_t>(p.r()), cmd, 3};
           t.Apply(FdEffect::kFcntl, args, dup);
         }
         EXPECT_EQ(t.Owned().size(), 2u);
         t.CloseAll();
       }},
      {"FcntlSetflReclassifies",
       [] {
         HostPipe p;
         FdTable t;
         EXPECT_EQ(t.BlockingClass(p.r()), POLLIN);
         ASSERT_EQ(::fcntl(p.r(), F_SETFL, O_NONBLOCK), 0);
         EXPECT_EQ(t.BlockingClass(p.r()), POLLIN) << "cached until the effect";
         const uint64_t args[] = {static_cast<uint64_t>(p.r()), F_SETFL, O_NONBLOCK};
         t.Apply(FdEffect::kFcntl, args, 0);
         EXPECT_EQ(t.BlockingClass(p.r()), 0);
       }},
      {"IoctlFionbioReclassifies",
       [] {
         HostPipe p;
         FdTable t;
         EXPECT_EQ(t.BlockingClass(p.w()), POLLOUT);
         int on = 1;
         ASSERT_EQ(::ioctl(p.w(), FIONBIO, &on), 0);
         const uint64_t fionread[] = {static_cast<uint64_t>(p.w()), FIONREAD, 0};
         t.Apply(FdEffect::kIoctl, fionread, 0);
         EXPECT_EQ(t.BlockingClass(p.w()), POLLOUT) << "only FIONBIO flips O_NONBLOCK";
         const uint64_t fionbio[] = {static_cast<uint64_t>(p.w()), FIONBIO, 0};
         t.Apply(FdEffect::kIoctl, fionbio, 0);
         EXPECT_EQ(t.BlockingClass(p.w()), 0);
       }},
      {"RecycleClosesOwnedFdsAndDropsEveryClass",
       [] {
         wasm::Linker linker;
         wali::WaliRuntime rt(&linker);
         auto parsed = wasm::ParseAndValidateWat(
             "(module (memory 1) (func (export \"main\") (result i32) (i32.const 0)))");
         ASSERT_TRUE(parsed.ok());
         auto proc = rt.CreateProcess(*parsed, {"fd"}, {});
         ASSERT_TRUE(proc.ok());
         wali::WaliProcess& p = **proc;
         HostPipe host;
         int owned[2];
         ASSERT_EQ(::pipe(owned), 0);
         p.fds.Mint(owned[0]);
         p.fds.Mint(owned[1]);
         EXPECT_EQ(p.fds.BlockingClass(host.r()), POLLIN);
         EXPECT_GT(p.fds.size(), 0u);
         p.ResetForReuse({"next"}, {});
         EXPECT_FALSE(IsOpen(owned[0]));
         EXPECT_FALSE(IsOpen(owned[1]));
         EXPECT_TRUE(IsOpen(host.r())) << "the guest never owned it";
         EXPECT_TRUE(p.fds.Owned().empty());
         EXPECT_EQ(p.fds.size(), 0u) << "every class is dropped";
       }},
      {"BadFdLeavesTheSizeUnchanged",
       [] {
         FdTable t;
         HostPipe p;
         EXPECT_EQ(t.BlockingClass(p.r()), POLLIN);
         const size_t size = t.size();
         EXPECT_EQ(t.BlockingClass(1 << 20), 0);
         EXPECT_EQ(t.BlockingClass(-1), 0);
         EXPECT_EQ(t.size(), size);
       }},
      {"Pipe2ReuseAfterGuestBadRead", [] { ReuseAfterGuestBadRead(kPipe2); }},
      {"Pipe2ReuseAfterHostHeldNumber", [] { ReuseAfterHostHeldNumber(kPipe2); }},
      {"SocketpairReuseAfterGuestBadRead", [] { ReuseAfterGuestBadRead(kSocketpair); }},
      {"SocketpairReuseAfterHostHeldNumber",
       [] { ReuseAfterHostHeldNumber(kSocketpair); }},
      // Guest threads mint and close fds while the main run's gates classify
      // others: one table, three threads. The classifier probes only fds
      // held open throughout, since TSan reports an fstat racing the pipe or
      // close of the same fd in another thread; the table's own state is
      // what the three threads share.
      {"ThreeThreadsMintCloseClassify",
       [] {
         FdTable t;
         HostPipe held[4];
         std::mutex mu;
         std::vector<int> minted;
         std::atomic<bool> minting{true};
         std::atomic<bool> closing{true};
         std::thread minter([&] {
           for (int i = 0; i < 300; ++i) {
             int fds[2];
             if (::pipe(fds) != 0) {
               ADD_FAILURE() << "pipe failed";
               break;
             }
             t.Mint(fds[0]);
             t.Mint(fds[1]);
             EXPECT_EQ(t.BlockingClass(fds[0]), POLLIN);
             std::lock_guard<std::mutex> lock(mu);
             minted.insert(minted.end(), fds, fds + 2);
           }
           minting.store(false);
         });
         std::thread closer([&] {
           while (true) {
             const bool last = !minting.load();
             int fd = -1;
             {
               std::lock_guard<std::mutex> lock(mu);
               if (!minted.empty()) {
                 fd = minted.back();
                 minted.pop_back();
               }
             }
             if (fd < 0 && last) {
               break;
             }
             if (fd < 0) {
               std::this_thread::yield();
               continue;
             }
             const uint64_t args[] = {static_cast<uint64_t>(fd)};
             t.Apply(FdEffect::kCloses, args, ::close(fd));
           }
           closing.store(false);
         });
         std::thread classifier([&] {
           while (closing.load()) {
             for (const HostPipe& p : held) {
               EXPECT_EQ(t.BlockingClass(p.r()), POLLIN);
               EXPECT_EQ(t.BlockingClass(p.w()), POLLOUT);
             }
           }
         });
         minter.join();
         closer.join();
         classifier.join();
         EXPECT_TRUE(t.Owned().empty());
         // Every close forgot its number, so no class outlives its file.
         for (int fd = 3; fd < 64; ++fd) {
           FdTable fresh;
           EXPECT_EQ(t.BlockingClass(fd), fresh.BlockingClass(fd)) << fd;
         }
       }},
  };
  for (const MintCase& mc : MintCases()) {
    rows.push_back({mc.name + "Mints", [mc] { ExpectMints(mc); }});
  }
  return rows;
}

class WaliFdTable : public testing::TestWithParam<FdRow> {};

TEST_P(WaliFdTable, Row) { GetParam().run(); }

INSTANTIATE_TEST_SUITE_P(Rows, WaliFdTable, testing::ValuesIn(FdRows()),
                         [](const testing::TestParamInfo<FdRow>& info) {
                           return info.param.name;
                         });

}  // namespace
