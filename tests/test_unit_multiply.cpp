/**
 * @file
 * CoruscantUnit multiplication: both strategies, constant
 * multiplication via CSD, lane packing, and cycle counts.
 */

#include <gtest/gtest.h>

#include "core/coruscant_unit.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

DeviceParams
smallParams(std::size_t trd, std::size_t wires = 64)
{
    DeviceParams p = DeviceParams::withTrd(trd);
    p.wiresPerDbc = wires;
    return p;
}

BitVector
packLanes(std::size_t width, std::size_t lane_w,
          const std::vector<std::uint64_t> &values)
{
    BitVector row(width);
    for (std::size_t i = 0; i < values.size(); ++i)
        row.insertUint64(i * lane_w, lane_w, values[i]);
    return row;
}

struct MulCase
{
    std::size_t trd;
    std::size_t bits;
    MulStrategy strategy;
};

class MulSweep : public ::testing::TestWithParam<MulCase>
{};

TEST_P(MulSweep, RandomProductsAreExact)
{
    auto [trd, n, strategy] = GetParam();
    std::size_t lane_w = 2 * n;
    std::size_t wires = lane_w * 2; // two lanes
    CoruscantUnit unit(smallParams(trd, wires));
    Rng rng(trd * 77 + n);
    for (int iter = 0; iter < 30; ++iter) {
        std::uint64_t mask = (1ULL << n) - 1;
        std::uint64_t a0 = rng.next() & mask, a1 = rng.next() & mask;
        std::uint64_t b0 = rng.next() & mask, b1 = rng.next() & mask;
        auto a = packLanes(wires, lane_w, {a0, a1});
        auto b = packLanes(wires, lane_w, {b0, b1});
        auto p = unit.multiply(a, b, n, strategy);
        EXPECT_EQ(p.sliceUint64(0, lane_w), a0 * b0)
            << a0 << " * " << b0;
        EXPECT_EQ(p.sliceUint64(lane_w, lane_w), a1 * b1)
            << a1 << " * " << b1;
    }
}

INSTANTIATE_TEST_SUITE_P(
    TrdBitsStrategySweep, MulSweep,
    ::testing::Values(
        MulCase{7, 8, MulStrategy::OptimizedCsa},
        MulCase{7, 8, MulStrategy::Arbitrary},
        MulCase{7, 4, MulStrategy::OptimizedCsa},
        MulCase{7, 16, MulStrategy::OptimizedCsa},
        MulCase{5, 8, MulStrategy::OptimizedCsa},
        MulCase{5, 8, MulStrategy::Arbitrary},
        MulCase{4, 8, MulStrategy::OptimizedCsa},
        MulCase{3, 8, MulStrategy::OptimizedCsa},
        MulCase{3, 8, MulStrategy::Arbitrary},
        MulCase{3, 4, MulStrategy::OptimizedCsa}),
    [](const ::testing::TestParamInfo<MulCase> &info) {
        return "trd" + std::to_string(info.param.trd) + "_n" +
               std::to_string(info.param.bits) +
               (info.param.strategy == MulStrategy::OptimizedCsa
                    ? "_csa"
                    : "_arb");
    });

TEST(UnitMultiply, EdgeValues)
{
    CoruscantUnit unit(smallParams(7, 32));
    for (auto [a, b] : std::vector<std::pair<std::uint64_t,
                                             std::uint64_t>>{
             {0, 0}, {0, 255}, {255, 0}, {1, 255}, {255, 255},
             {128, 2}, {85, 3}}) {
        auto ar = packLanes(32, 16, {a, 0});
        auto br = packLanes(32, 16, {b, 0});
        auto p = unit.multiply(ar, br, 8);
        EXPECT_EQ(p.sliceUint64(0, 16), a * b) << a << " * " << b;
    }
}

TEST(UnitMultiply, CsaCycleCountMatchesPaperTrd7)
{
    // Paper Table III: 8-bit multiply at TRD = 7 = 64 cycles.
    // Breakdown (see unit_multiply.cpp): 17 partial-product cycles,
    // 1 alignment + 4 reduction, 10 + 32 final addition.
    CoruscantUnit unit(smallParams(7, 16));
    auto a = packLanes(16, 16, {200});
    auto b = packLanes(16, 16, {123});
    unit.resetCosts();
    unit.multiply(a, b, 8, MulStrategy::OptimizedCsa, 16);
    EXPECT_EQ(unit.ledger().cycles(), 64u);
}

TEST(UnitMultiply, CsaFasterThanArbitrary)
{
    CoruscantUnit unit(smallParams(7, 16));
    auto a = packLanes(16, 16, {200});
    auto b = packLanes(16, 16, {123});
    unit.resetCosts();
    unit.multiply(a, b, 8, MulStrategy::OptimizedCsa, 16);
    auto csa = unit.ledger().cycles();
    unit.resetCosts();
    unit.multiply(a, b, 8, MulStrategy::Arbitrary, 16);
    auto arb = unit.ledger().cycles();
    EXPECT_LT(csa, arb);
}

TEST(UnitMultiply, Trd3SlowerThanTrd7)
{
    // Paper Table III: 105 vs 64 cycles (1.64x); the emergent model
    // must preserve the ordering and rough magnitude.
    auto run = [](std::size_t trd) {
        CoruscantUnit unit(smallParams(trd, 16));
        auto a = packLanes(16, 16, {200});
        auto b = packLanes(16, 16, {123});
        unit.resetCosts();
        unit.multiply(a, b, 8, MulStrategy::OptimizedCsa, 16);
        return unit.ledger().cycles();
    };
    auto c7 = run(7);
    auto c3 = run(3);
    EXPECT_GT(c3, c7);
    EXPECT_GT(static_cast<double>(c3) / static_cast<double>(c7), 1.2);
}

TEST(UnitMultiply, ConstantPaperExample20061)
{
    // Paper Sec. III-D.1: 20061 * A in two addition steps.
    CoruscantUnit unit(smallParams(7, 64));
    auto a = packLanes(64, 32, {417, 1000});
    auto p = unit.multiplyByConstant(a, 20061, 16);
    EXPECT_EQ(p.sliceUint64(0, 32), 417u * 20061u);
    EXPECT_EQ(p.sliceUint64(32, 32), 1000u * 20061u);
}

TEST(UnitMultiply, ConstantSweep)
{
    CoruscantUnit unit(smallParams(7, 32));
    Rng rng(55);
    for (std::uint64_t c : {0ULL, 1ULL, 2ULL, 3ULL, 7ULL, 15ULL, 16ULL,
                            255ULL, 129ULL, 515ULL}) {
        std::uint64_t a = rng.next() & 0xFF;
        auto ar = packLanes(32, 16, {a, 0});
        auto p = unit.multiplyByConstant(ar, c, 8);
        EXPECT_EQ(p.sliceUint64(0, 16), (a * c) & 0xFFFF)
            << a << " * " << c;
    }
}

TEST(UnitMultiply, ConstantPowerOfTwoNeedsNoAddition)
{
    CoruscantUnit unit(smallParams(7, 16));
    auto a = packLanes(16, 16, {77});
    unit.resetCosts();
    auto p = unit.multiplyByConstant(a, 8, 8, 16);
    EXPECT_EQ(p.sliceUint64(0, 16), 77u * 8u);
    // Shift-only: no TR should have been issued.
    EXPECT_EQ(unit.ledger().entry(Cost::Tr).count, 0u);
}

TEST(UnitMultiply, ConstantCheaperThanArbitraryForSparseConstants)
{
    CoruscantUnit unit(smallParams(7, 16));
    auto a = packLanes(16, 16, {99});
    unit.resetCosts();
    unit.multiplyByConstant(a, 129, 8, 16); // weight-2 CSD
    auto constant_cycles = unit.ledger().cycles();
    unit.resetCosts();
    auto b = packLanes(16, 16, {129});
    unit.multiply(a, b, 8, MulStrategy::OptimizedCsa, 16);
    auto arbitrary_cycles = unit.ledger().cycles();
    EXPECT_LT(constant_cycles, arbitrary_cycles);
}

TEST(UnitMultiply, RejectsBadLaneConfig)
{
    CoruscantUnit unit(smallParams(7, 16));
    BitVector a(16), b(16);
    EXPECT_THROW(unit.multiply(a, b, 5, MulStrategy::OptimizedCsa, 16),
                 FatalError); // 16 % 10 != 0
    EXPECT_THROW(unit.multiply(a, b, 0), FatalError);
    EXPECT_THROW(unit.multiply(a, b, 33), FatalError);
}

} // namespace
} // namespace coruscant
