// Linear memory: loads/stores of all widths, bounds checks including
// offset-overflow cases, grow semantics, data segments, memory.copy/fill,
// and the Memory mmap hooks WALI relies on.
#include <gtest/gtest.h>

#include <cstring>

#include "tests/wat_test_util.h"

namespace {

using wasm::Limits;
using wasm::Memory;
using wasm::TrapKind;
using wasm::Value;
using wasm_test::ExpectI32;
using wasm_test::ExpectI64;
using wasm_test::ExpectTrap;
using wasm_test::RunWat;

const char* kMemWat = R"((module
  (memory 1 4)
  (data (i32.const 16) "\01\02\03\04\05\06\07\08")
  (func (export "load8_u") (param i32) (result i32) (i32.load8_u (local.get 0)))
  (func (export "load8_s") (param i32) (result i32) (i32.load8_s (local.get 0)))
  (func (export "load16_u") (param i32) (result i32) (i32.load16_u (local.get 0)))
  (func (export "load32") (param i32) (result i32) (i32.load (local.get 0)))
  (func (export "load64") (param i32) (result i64) (i64.load (local.get 0)))
  (func (export "load32_off") (param i32) (result i32) (i32.load offset=12 (local.get 0)))
  (func (export "store32") (param i32 i32) (i32.store (local.get 0) (local.get 1)))
  (func (export "store8") (param i32 i32) (i32.store8 (local.get 0) (local.get 1)))
  (func (export "store64") (param i32 i64) (i64.store (local.get 0) (local.get 1)))
  (func (export "size") (result i32) memory.size)
  (func (export "grow") (param i32) (result i32) (memory.grow (local.get 0)))
  (func (export "fill") (param i32 i32 i32)
    (memory.fill (local.get 0) (local.get 1) (local.get 2)))
  (func (export "copy") (param i32 i32 i32)
    (memory.copy (local.get 0) (local.get 1) (local.get 2)))
))";

TEST(Memory, DataSegmentAndLoads) {
  ExpectI32(kMemWat, "load8_u", {Value::I32(16)}, 1);
  ExpectI32(kMemWat, "load8_u", {Value::I32(23)}, 8);
  ExpectI32(kMemWat, "load16_u", {Value::I32(16)}, 0x0201);
  ExpectI32(kMemWat, "load32", {Value::I32(16)}, 0x04030201);
  ExpectI64(kMemWat, "load64", {Value::I32(16)}, 0x0807060504030201ull);
  ExpectI32(kMemWat, "load32_off", {Value::I32(4)}, 0x04030201);
  // Untouched memory reads as zero.
  ExpectI32(kMemWat, "load32", {Value::I32(1000)}, 0);
}

TEST(Memory, SignExtension) {
  wasm_test::WatFixture fx = wasm_test::Instantiate(kMemWat);
  ASSERT_NE(fx.instance, nullptr);
  fx.instance->CallExport("store8", {Value::I32(100), Value::I32(0xFF)});
  auto r = fx.instance->CallExport("load8_s", {Value::I32(100)});
  EXPECT_EQ(r.values[0].i32(), 0xFFFFFFFFu);
  auto r2 = fx.instance->CallExport("load8_u", {Value::I32(100)});
  EXPECT_EQ(r2.values[0].i32(), 0xFFu);
}

TEST(Memory, StoreLoadRoundtrip64) {
  wasm_test::WatFixture fx = wasm_test::Instantiate(kMemWat);
  ASSERT_NE(fx.instance, nullptr);
  fx.instance->CallExport("store64", {Value::I32(512), Value::I64(0xDEADBEEFCAFEF00Dull)});
  auto r = fx.instance->CallExport("load64", {Value::I32(512)});
  EXPECT_EQ(r.values[0].i64(), 0xDEADBEEFCAFEF00Dull);
}

TEST(Memory, OutOfBoundsTraps) {
  // One page = 65536 bytes.
  ExpectTrap(kMemWat, "load32", {Value::I32(65533)}, TrapKind::kMemOutOfBounds);
  ExpectI32(kMemWat, "load32", {Value::I32(65532)}, 0);
  ExpectTrap(kMemWat, "load8_u", {Value::I32(65536)}, TrapKind::kMemOutOfBounds);
  ExpectTrap(kMemWat, "store32", {Value::I32(65533), Value::I32(1)},
             TrapKind::kMemOutOfBounds);
  // Offset + addr overflow must not wrap around.
  ExpectTrap(kMemWat, "load32_off", {Value::I32(0xFFFFFFFF)}, TrapKind::kMemOutOfBounds);
}

TEST(Memory, GrowSemantics) {
  wasm_test::WatFixture fx = wasm_test::Instantiate(kMemWat);
  ASSERT_NE(fx.instance, nullptr);
  EXPECT_EQ(fx.instance->CallExport("size", {}).values[0].i32(), 1u);
  EXPECT_EQ(fx.instance->CallExport("grow", {Value::I32(2)}).values[0].i32(), 1u);
  EXPECT_EQ(fx.instance->CallExport("size", {}).values[0].i32(), 3u);
  // Growing past max (4) fails with -1.
  EXPECT_EQ(fx.instance->CallExport("grow", {Value::I32(5)}).values[0].i32(),
            0xFFFFFFFFu);
  EXPECT_EQ(fx.instance->CallExport("grow", {Value::I32(1)}).values[0].i32(), 3u);
  // Newly grown pages are zeroed and accessible.
  auto r = fx.instance->CallExport("load32", {Value::I32(3 * 65536)});
  EXPECT_EQ(r.trap, TrapKind::kNone);
  EXPECT_EQ(r.values[0].i32(), 0u);
}

TEST(Memory, FillAndCopy) {
  wasm_test::WatFixture fx = wasm_test::Instantiate(kMemWat);
  ASSERT_NE(fx.instance, nullptr);
  fx.instance->CallExport("fill", {Value::I32(200), Value::I32(0xAB), Value::I32(8)});
  EXPECT_EQ(fx.instance->CallExport("load32", {Value::I32(200)}).values[0].i32(),
            0xABABABABu);
  fx.instance->CallExport("copy", {Value::I32(300), Value::I32(16), Value::I32(8)});
  EXPECT_EQ(fx.instance->CallExport("load64", {Value::I32(300)}).values[0].i64(),
            0x0807060504030201ull);
  // Overlapping copy behaves like memmove.
  fx.instance->CallExport("copy", {Value::I32(17), Value::I32(16), Value::I32(7)});
  EXPECT_EQ(fx.instance->CallExport("load8_u", {Value::I32(18)}).values[0].i32(), 2u);
  // OOB copy traps.
  auto r = fx.instance->CallExport("copy",
                                   {Value::I32(65530), Value::I32(0), Value::I32(100)});
  EXPECT_EQ(r.trap, TrapKind::kMemOutOfBounds);
}

TEST(MemoryObject, CreateRespectsLimits) {
  Limits l;
  l.min = 2;
  l.max = 8;
  l.has_max = true;
  auto mem = Memory::Create(l);
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ((*mem)->size_pages(), 2u);
  EXPECT_EQ((*mem)->max_pages(), 8u);
  EXPECT_EQ((*mem)->Grow(6), 2);
  EXPECT_EQ((*mem)->Grow(1), -1);
  // Base never moves across grows (WALI zero-copy requirement).
  Limits l2;
  l2.min = 1;
  auto m2 = Memory::Create(l2);
  ASSERT_TRUE(m2.ok());
  uint8_t* base = (*m2)->base();
  (*m2)->Grow(10);
  EXPECT_EQ((*m2)->base(), base);
}

TEST(MemoryObject, InBoundsEdgeCases) {
  Limits l;
  l.min = 1;
  l.max = 1;
  l.has_max = true;
  auto mem = Memory::Create(l);
  ASSERT_TRUE(mem.ok());
  EXPECT_TRUE((*mem)->InBounds(0, 65536));
  EXPECT_FALSE((*mem)->InBounds(0, 65537));
  EXPECT_TRUE((*mem)->InBounds(65536, 0));
  EXPECT_FALSE((*mem)->InBounds(65537, 0));
  EXPECT_FALSE((*mem)->InBounds(UINT64_MAX, 1));
}

TEST(MemoryObject, ZeroDropsPages) {
  Limits l;
  l.min = 2;
  auto memOr = Memory::Create(l);
  ASSERT_TRUE(memOr.ok());
  auto mem = *memOr;
  std::memset(mem->At(65536), 0x5A, 8192);
  EXPECT_EQ(mem->Zero(65536, 4096), 0);
  EXPECT_EQ(mem->At(65536)[0], 0);
  EXPECT_EQ(mem->At(65536)[4095], 0);
  EXPECT_EQ(mem->At(65536)[4096], 0x5A) << "Zero must stop at the range's end";
  // The part past the committed size is skipped, not an error.
  EXPECT_EQ(mem->Zero(65536, 1 << 20), 0);
  EXPECT_EQ(mem->At(65536)[4096], 0);
  EXPECT_EQ(mem->Zero(UINT64_MAX, 4096), 0);
}

TEST(MemoryObject, WaitNotEqualReturnsImmediately) {
  Limits l;
  l.min = 1;
  auto mem = Memory::Create(l);
  ASSERT_TRUE(mem.ok());
  *reinterpret_cast<uint32_t*>((*mem)->At(64)) = 7;
  EXPECT_EQ((*mem)->Wait32(64, 8, -1), 1);          // value != expected
  EXPECT_EQ((*mem)->Wait32(64, 7, 1000000), 2);     // times out (1ms)
  EXPECT_EQ((*mem)->Notify(64, 1), 0u);             // nobody waiting
}

// Parameterized sweep over page counts: grow-to-cover math.
class GrowToCover : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GrowToCover, CoversRequestedEnd) {
  Limits l;
  l.min = 1;
  l.max = 64;
  l.has_max = true;
  auto mem = Memory::Create(l);
  ASSERT_TRUE(mem.ok());
  uint64_t end = GetParam();
  ASSERT_TRUE((*mem)->GrowToCover(end));
  EXPECT_GE((*mem)->size_bytes(), end);
  EXPECT_EQ((*mem)->size_bytes() % wasm::kWasmPageSize, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GrowToCover,
                         ::testing::Values(1, 65536, 65537, 131072, 200000,
                                           1048576, 64 * 65536));

}  // namespace
