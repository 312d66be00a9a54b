// Control flow: blocks/loops/if, branching with values, br_table, calls,
// call_indirect signature checks (paper Table 1 'bash' note), recursion depth
// and fuel limits.
#include <gtest/gtest.h>

#include "tests/wat_test_util.h"

namespace {

using wasm::ExecOptions;
using wasm::TrapKind;
using wasm::Value;
using wasm_test::ExpectI32;
using wasm_test::ExpectTrap;
using wasm_test::RunWat;

TEST(Control, IfElse) {
  const char* wat = R"((module
    (func (export "pick") (param i32) (result i32)
      (if (result i32) (local.get 0)
        (then (i32.const 10))
        (else (i32.const 20))))
  ))";
  ExpectI32(wat, "pick", {Value::I32(1)}, 10);
  ExpectI32(wat, "pick", {Value::I32(0)}, 20);
}

TEST(Control, PlainFormLoopSum) {
  // sum 1..n with plain (non-folded) instructions.
  const char* wat = R"((module
    (func (export "sum") (param $n i32) (result i32)
      (local $acc i32) (local $i i32)
      block $exit
        loop $top
          local.get $i
          local.get $n
          i32.ge_u
          br_if $exit
          local.get $i
          i32.const 1
          i32.add
          local.tee $i
          local.get $acc
          i32.add
          local.set $acc
          br $top
        end
      end
      local.get $acc)
  ))";
  ExpectI32(wat, "sum", {Value::I32(0)}, 0);
  ExpectI32(wat, "sum", {Value::I32(1)}, 1);
  ExpectI32(wat, "sum", {Value::I32(10)}, 55);
  ExpectI32(wat, "sum", {Value::I32(1000)}, 500500);
}

TEST(Control, BlockWithResultAndBr) {
  const char* wat = R"((module
    (func (export "f") (param i32) (result i32)
      block $b (result i32)
        i32.const 1
        local.get 0
        br_if $b
        drop
        i32.const 2
      end)
  ))";
  ExpectI32(wat, "f", {Value::I32(1)}, 1);
  ExpectI32(wat, "f", {Value::I32(0)}, 2);
}

TEST(Control, BrTable) {
  const char* wat = R"((module
    (func (export "classify") (param i32) (result i32)
      block $default
        block $two
          block $one
            block $zero
              local.get 0
              br_table $zero $one $two $default
            end
            i32.const 100
            return
          end
          i32.const 101
          return
        end
        i32.const 102
        return
      end
      i32.const 103)
  ))";
  ExpectI32(wat, "classify", {Value::I32(0)}, 100);
  ExpectI32(wat, "classify", {Value::I32(1)}, 101);
  ExpectI32(wat, "classify", {Value::I32(2)}, 102);
  ExpectI32(wat, "classify", {Value::I32(3)}, 103);
  ExpectI32(wat, "classify", {Value::I32(1000)}, 103);
}

TEST(Control, NestedLoopsBreakOuter) {
  const char* wat = R"((module
    (func (export "f") (result i32)
      (local $i i32) (local $j i32) (local $count i32)
      block $out
        loop $outer
          local.get $i i32.const 10 i32.ge_u br_if $out
          i32.const 0 local.set $j
          loop $inner
            local.get $j i32.const 10 i32.ge_u
            if
              local.get $i i32.const 1 i32.add local.set $i
              br $outer
            end
            local.get $count i32.const 1 i32.add local.set $count
            local.get $j i32.const 1 i32.add local.set $j
            br $inner
          end
        end
      end
      local.get $count)
  ))";
  ExpectI32(wat, "f", {}, 100);
}

TEST(Control, RecursionFibAndStackLimit) {
  const char* wat = R"((module
    (func $fib (export "fib") (param i32) (result i32)
      (if (result i32) (i32.lt_u (local.get 0) (i32.const 2))
        (then (local.get 0))
        (else (i32.add
          (call $fib (i32.sub (local.get 0) (i32.const 1)))
          (call $fib (i32.sub (local.get 0) (i32.const 2)))))))
    (func $inf (export "inf") (result i32) (call $inf))
  ))";
  ExpectI32(wat, "fib", {Value::I32(10)}, 55);
  ExpectI32(wat, "fib", {Value::I32(20)}, 6765);
  ExpectTrap(wat, "inf", {}, TrapKind::kStackExhausted);
}

TEST(Control, FuelLimitStopsRunawayLoop) {
  const char* wat = R"((module
    (func (export "spin")
      loop $l br $l end)
  ))";
  ExecOptions opts;
  opts.fuel = 10000;
  auto r = RunWat(wat, "spin", {}, opts);
  EXPECT_EQ(r.trap, TrapKind::kFuelExhausted);
  EXPECT_GE(r.executed_instrs, 10000u);
}

TEST(Control, UnreachableTraps) {
  ExpectTrap("(module (func (export \"f\") unreachable))", "f", {},
             TrapKind::kUnreachable);
}

TEST(Control, CallIndirectDispatch) {
  const char* wat = R"((module
    (type $binop (func (param i32 i32) (result i32)))
    (table 4 funcref)
    (func $add (type $binop) (i32.add (local.get 0) (local.get 1)))
    (func $sub (type $binop) (i32.sub (local.get 0) (local.get 1)))
    (func $mul (type $binop) (i32.mul (local.get 0) (local.get 1)))
    (elem (i32.const 0) $add $sub $mul)
    (func (export "dispatch") (param i32 i32 i32) (result i32)
      (call_indirect (type $binop) (local.get 1) (local.get 2) (local.get 0)))
  ))";
  ExpectI32(wat, "dispatch", {Value::I32(0), Value::I32(7), Value::I32(3)}, 10);
  ExpectI32(wat, "dispatch", {Value::I32(1), Value::I32(7), Value::I32(3)}, 4);
  ExpectI32(wat, "dispatch", {Value::I32(2), Value::I32(7), Value::I32(3)}, 21);
}

TEST(Control, CallIndirectTraps) {
  // The paper (§4.1) notes WALI surfaces latent type-safety bugs in C code as
  // call_indirect signature mismatch traps — exercise all three trap kinds.
  const char* wat = R"((module
    (type $binop (func (param i32 i32) (result i32)))
    (type $unop (func (param i32) (result i32)))
    (table 4 funcref)
    (func $neg (type $unop) (i32.sub (i32.const 0) (local.get 0)))
    (elem (i32.const 0) $neg)
    (func (export "oob") (result i32)
      (call_indirect (type $binop) (i32.const 1) (i32.const 2) (i32.const 99)))
    (func (export "null") (result i32)
      (call_indirect (type $binop) (i32.const 1) (i32.const 2) (i32.const 2)))
    (func (export "sigmismatch") (result i32)
      (call_indirect (type $binop) (i32.const 1) (i32.const 2) (i32.const 0)))
    (func (export "okay") (result i32)
      (call_indirect (type $unop) (i32.const 5) (i32.const 0)))
  ))";
  ExpectTrap(wat, "oob", {}, TrapKind::kIndirectOob);
  ExpectTrap(wat, "null", {}, TrapKind::kIndirectNull);
  ExpectTrap(wat, "sigmismatch", {}, TrapKind::kIndirectSigMismatch);
  ExpectI32(wat, "okay", {}, static_cast<uint32_t>(-5));
}

TEST(Control, SelectAndDrop) {
  const char* wat = R"((module
    (func (export "sel") (param i32) (result i32)
      (select (i32.const 11) (i32.const 22) (local.get 0)))
    (func (export "dropper") (result i32)
      i32.const 1 i32.const 2 drop)
  ))";
  ExpectI32(wat, "sel", {Value::I32(1)}, 11);
  ExpectI32(wat, "sel", {Value::I32(0)}, 22);
  ExpectI32(wat, "dropper", {}, 1);
}

TEST(Control, GlobalsMutation) {
  const char* wat = R"((module
    (global $counter (mut i32) (i32.const 100))
    (global $k i32 (i32.const 7))
    (func (export "bump") (result i32)
      (global.set $counter (i32.add (global.get $counter) (global.get $k)))
      (global.get $counter))
  ))";
  wasm_test::WatFixture fx = wasm_test::Instantiate(wat);
  ASSERT_NE(fx.instance, nullptr);
  auto r1 = fx.instance->CallExport("bump", {});
  EXPECT_EQ(r1.values[0].i32(), 107u);
  auto r2 = fx.instance->CallExport("bump", {});
  EXPECT_EQ(r2.values[0].i32(), 114u);
}

TEST(Control, StartFunctionRuns) {
  const char* wat = R"((module
    (global $g (mut i32) (i32.const 0))
    (func $init (global.set $g (i32.const 42)))
    (start $init)
    (func (export "get") (result i32) (global.get $g))
  ))";
  ExpectI32(wat, "get", {}, 42);
}

TEST(Control, HostFunctionImport) {
  const char* wat = R"((module
    (import "env" "mul3" (func $mul3 (param i32) (result i32)))
    (func (export "f") (param i32) (result i32)
      (call $mul3 (i32.add (local.get 0) (i32.const 1))))
  ))";
  auto fx = wasm_test::Instantiate(wat, [](wasm::Linker& linker) {
    wasm::FuncType t;
    t.params = {wasm::ValType::kI32};
    t.results = {wasm::ValType::kI32};
    linker.DefineHostFunc("env", "mul3", t,
                          [](wasm::ExecContext&, const uint64_t* args, uint64_t* results) {
                            results[0] = static_cast<uint32_t>(args[0] * 3);
                            return wasm::TrapKind::kNone;
                          });
  });
  ASSERT_NE(fx.instance, nullptr);
  auto r = fx.instance->CallExport("f", {Value::I32(5)});
  ASSERT_EQ(r.trap, TrapKind::kNone);
  EXPECT_EQ(r.values[0].i32(), 18u);
}

TEST(Control, ValidatorRejectsBadModules) {
  // Type mismatch: i64 where i32 expected.
  auto bad1 = wasm::ParseAndValidateWat(
      "(module (func (result i32) (i64.const 1)))");
  EXPECT_FALSE(bad1.ok());
  // Branch depth out of range.
  auto bad2 = wasm::ParseAndValidateWat("(module (func br 3))");
  EXPECT_FALSE(bad2.ok());
  // Unknown local.
  auto bad3 = wasm::ParseAndValidateWat("(module (func (local.get 0) drop))");
  EXPECT_FALSE(bad3.ok());
  // Stack underflow.
  auto bad4 = wasm::ParseAndValidateWat("(module (func i32.add drop))");
  EXPECT_FALSE(bad4.ok());
  // if with result but no else.
  auto bad5 = wasm::ParseAndValidateWat(
      "(module (func (result i32) (i32.const 1) (if (result i32) (then (i32.const 2)))))");
  EXPECT_FALSE(bad5.ok());
  // Memory op without memory.
  auto bad6 = wasm::ParseAndValidateWat(
      "(module (func (result i32) (i32.load (i32.const 0))))");
  EXPECT_FALSE(bad6.ok());
  // global.get of an i64 import initializing an i32 global.
  auto bad7 = wasm::ParseAndValidateWat(
      "(module (import \"env\" \"g\" (global $g64 i64))"
      " (global i32 (global.get $g64)))");
  EXPECT_FALSE(bad7.ok());
  // ... or as an elem segment's i32 offset: instantiated against an i64
  // global holding ~0, the offset wrapped the table bounds check and the
  // segment was written far outside the table.
  auto bad8 = wasm::ParseAndValidateWat(
      "(module (import \"env\" \"g\" (global $g64 i64)) (table 1 funcref)"
      " (func $f) (elem (global.get $g64) $f))");
  EXPECT_FALSE(bad8.ok());
}

}  // namespace
