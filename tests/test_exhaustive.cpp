/**
 * @file
 * Exhaustive small-width sweeps: every input combination of 4-bit
 * multiplication and of 4-bit addition at the adder's full arity,
 * across TRD values — leaves no corner of the arithmetic untested.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/coruscant_unit.hpp"

namespace coruscant {
namespace {

DeviceParams
params(std::size_t trd, std::size_t wires)
{
    DeviceParams p = DeviceParams::withTrd(trd);
    p.wiresPerDbc = wires;
    return p;
}

class ExhaustiveMul : public ::testing::TestWithParam<
                          std::tuple<std::size_t, MulStrategy>>
{};

TEST_P(ExhaustiveMul, AllFourBitPairs)
{
    auto [trd, strategy] = GetParam();
    CoruscantUnit unit(params(trd, 8));
    for (std::uint64_t a = 0; a < 16; ++a) {
        for (std::uint64_t b = 0; b < 16; ++b) {
            auto prod = unit.multiply(BitVector::fromUint64(8, a),
                                      BitVector::fromUint64(8, b), 4,
                                      strategy);
            ASSERT_EQ(prod.toUint64(), a * b)
                << a << " * " << b << " trd=" << trd;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTrds, ExhaustiveMul,
    ::testing::Combine(::testing::Values(3u, 4u, 5u, 6u, 7u),
                       ::testing::Values(MulStrategy::OptimizedCsa,
                                         MulStrategy::Arbitrary)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::size_t, MulStrategy>> &info) {
        return "trd" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) == MulStrategy::OptimizedCsa
                    ? "_csa"
                    : "_arb");
    });

class ExhaustiveAdd : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(ExhaustiveAdd, AllThreeOperandFourBitCombos)
{
    // Every tuple of maxAddOperands() 4-bit operands (16^5 at TRD 7),
    // one tuple per 8-bit lane of a wide unit, so no sum is truncated.
    // Tuples with trailing zero operands cover every smaller count.
    const std::size_t trd = GetParam();
    const std::size_t arity = DeviceParams::withTrd(trd).maxAddOperands();
    const std::uint64_t tuples = std::uint64_t{1} << (4 * arity);
    const std::size_t lanes = std::min<std::uint64_t>(tuples, 512);
    CoruscantUnit unit(params(trd, 8 * lanes));
    // Operand j of tuple t is t's 4-bit digit j; word i of a row holds
    // the lanes of tuples base + 8i .. base + 8i + 7.
    auto digit = [](std::uint64_t t, std::size_t j) {
        return (t >> (4 * j)) & 0xf;
    };
    std::vector<BitVector> ops(arity, BitVector(8 * lanes));
    for (std::uint64_t base = 0; base < tuples; base += lanes) {
        auto lanesOf = [&](std::size_t i, auto value) {
            std::uint64_t word = 0;
            for (std::size_t k = 0; k < 8; ++k)
                word |= value(base + 8 * i + k) << (8 * k);
            return word;
        };
        for (std::size_t j = 0; j < arity; ++j)
            ops[j].setWords([&](std::size_t i) {
                return lanesOf(i, [&](std::uint64_t t) {
                    return digit(t, j);
                });
            });
        const BitVector sum = unit.add(ops, 8);
        for (std::size_t i = 0; i < sum.numWords(); ++i) {
            const std::uint64_t want = lanesOf(i, [&](std::uint64_t t) {
                std::uint64_t total = 0;
                for (std::size_t j = 0; j < arity; ++j)
                    total += digit(t, j);
                return total;
            });
            ASSERT_EQ(sum.word(i), want)
                << std::hex << "tuples from 0x" << base + 8 * i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllTrds, ExhaustiveAdd,
                         ::testing::Values(3u, 4u, 5u, 6u, 7u),
                         [](const ::testing::TestParamInfo<std::size_t>
                                &info) {
                             return "trd" + std::to_string(info.param);
                         });

TEST(ExhaustiveAdd, AllTwoOperandFiveBitPairsTrd3)
{
    CoruscantUnit unit(params(3, 8));
    for (std::uint64_t a = 0; a < 32; ++a) {
        for (std::uint64_t b = 0; b < 32; ++b) {
            auto sum = unit.add({BitVector::fromUint64(8, a),
                                 BitVector::fromUint64(8, b)},
                                8);
            ASSERT_EQ(sum.toUint64(), a + b) << a << "+" << b;
        }
    }
}

TEST(ExhaustiveBulk, AllThreeOperandBitPatterns)
{
    // Every 3-operand column pattern (each wire independently draws
    // all 8 combinations) for every op at every TRD.
    for (std::size_t trd : {3u, 5u, 7u}) {
        CoruscantUnit unit(params(trd, 8));
        // Wire w gets pattern w (bit0->op0, bit1->op1, bit2->op2).
        BitVector r0(8), r1(8), r2(8);
        for (std::size_t w = 0; w < 8; ++w) {
            r0.set(w, w & 1);
            r1.set(w, w & 2);
            r2.set(w, w & 4);
        }
        auto and_r = unit.bulkBitwise(BulkOp::And, {r0, r1, r2});
        auto or_r = unit.bulkBitwise(BulkOp::Or, {r0, r1, r2});
        auto xor_r = unit.bulkBitwise(BulkOp::Xor, {r0, r1, r2});
        for (std::size_t w = 0; w < 8; ++w) {
            bool a = w & 1, b = w & 2, c = w & 4;
            EXPECT_EQ(and_r.get(w), a && b && c) << w;
            EXPECT_EQ(or_r.get(w), a || b || c) << w;
            EXPECT_EQ(xor_r.get(w), (a ^ b ^ c) != 0) << w;
        }
    }
}

TEST(ExhaustiveMax, AllTwoCandidateFourBitPairs)
{
    CoruscantUnit unit(params(7, 4));
    for (std::uint64_t a = 0; a < 16; ++a) {
        for (std::uint64_t b = 0; b < 16; ++b) {
            auto mx = unit.maxOfRows({BitVector::fromUint64(4, a),
                                      BitVector::fromUint64(4, b)},
                                     4);
            ASSERT_EQ(mx.toUint64(), std::max(a, b))
                << "max(" << a << "," << b << ")";
        }
    }
}

} // namespace
} // namespace coruscant
