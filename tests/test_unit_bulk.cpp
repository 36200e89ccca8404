/**
 * @file
 * CoruscantUnit bulk-bitwise operations against golden models, swept
 * over operand counts and TRD values.
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

/** Golden multi-operand bitwise result. */
BitVector
golden(BulkOp op, const std::vector<BitVector> &ops)
{
    BitVector acc = ops[0];
    for (std::size_t i = 1; i < ops.size(); ++i) {
        switch (op) {
          case BulkOp::And:
          case BulkOp::Nand:
            acc &= ops[i];
            break;
          case BulkOp::Or:
          case BulkOp::Nor:
          case BulkOp::Not:
            acc |= ops[i];
            break;
          case BulkOp::Xor:
          case BulkOp::Xnor:
            acc ^= ops[i];
            break;
          default:
            ADD_FAILURE() << "unsupported";
        }
    }
    if (op == BulkOp::Nand || op == BulkOp::Nor || op == BulkOp::Xnor ||
        op == BulkOp::Not) {
        acc = ~acc;
    }
    return acc;
}

struct BulkCase
{
    std::size_t trd;
    std::size_t operands;
};

class BulkSweep : public ::testing::TestWithParam<BulkCase>
{};

TEST_P(BulkSweep, MatchesGoldenForAllOps)
{
    auto [trd, m] = GetParam();
    CoruscantUnit unit(smallParams(trd));
    Rng rng(trd * 100 + m);
    for (BulkOp op : {BulkOp::And, BulkOp::Nand, BulkOp::Or, BulkOp::Nor,
                      BulkOp::Xor, BulkOp::Xnor}) {
        for (int iter = 0; iter < 10; ++iter) {
            std::vector<BitVector> ops;
            for (std::size_t i = 0; i < m; ++i) {
                BitVector row(unit.width());
                for (std::size_t w = 0; w < row.size(); ++w)
                    row.set(w, rng.nextBool());
                ops.push_back(std::move(row));
            }
            EXPECT_EQ(unit.bulkBitwise(op, ops), golden(op, ops))
                << bulkOpName(op) << " m=" << m << " trd=" << trd;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    OperandAndTrdSweep, BulkSweep,
    ::testing::Values(BulkCase{3, 1}, BulkCase{3, 2}, BulkCase{3, 3},
                      BulkCase{5, 2}, BulkCase{5, 4}, BulkCase{5, 5},
                      BulkCase{7, 2}, BulkCase{7, 3}, BulkCase{7, 5},
                      BulkCase{7, 7}),
    [](const ::testing::TestParamInfo<BulkCase> &info) {
        return "trd" + std::to_string(info.param.trd) + "_m" +
               std::to_string(info.param.operands);
    });

TEST(UnitBulk, NotInvertsSingleOperand)
{
    CoruscantUnit unit(smallParams(7));
    auto a = BitVector::fromUint64(64, 0xDEADBEEFCAFEF00D);
    auto r = unit.bulkBitwise(BulkOp::Not, {a});
    EXPECT_EQ(r, ~a);
}

TEST(UnitBulk, MajRequiresFullWindow)
{
    CoruscantUnit unit(smallParams(7));
    std::vector<BitVector> seven(7, BitVector(64, true));
    EXPECT_EQ(unit.bulkBitwise(BulkOp::Maj, seven).popcount(), 64u);
    std::vector<BitVector> three(3, BitVector(64, true));
    EXPECT_THROW(unit.bulkBitwise(BulkOp::Maj, three), FatalError);
}

TEST(UnitBulk, RejectsTooManyOperands)
{
    CoruscantUnit unit(smallParams(3));
    std::vector<BitVector> four(4, BitVector(64));
    EXPECT_THROW(unit.bulkBitwise(BulkOp::Or, four), FatalError);
}

TEST(UnitBulk, SingleTrRegardlessOfOperandCount)
{
    // The headline claim: a 7-operand AND costs one TR, not six
    // two-operand steps.
    CoruscantUnit unit(smallParams(7));
    std::vector<BitVector> ops(7, BitVector(64, true));
    unit.resetCosts();
    unit.bulkBitwise(BulkOp::And, ops);
    auto &by = unit.ledger();
    ASSERT_NE(by.entry(Cost::Tr).count, 0u);
    EXPECT_EQ(by.entry(Cost::Tr).count, 1u);
}

TEST(UnitBulk, WriteBackStoresResult)
{
    CoruscantUnit unit(smallParams(7));
    auto a = BitVector::fromUint64(64, 0xF0F0);
    auto b = BitVector::fromUint64(64, 0xFF00);
    auto r = unit.bulkBitwise(BulkOp::And, {a, b}, 0, true);
    EXPECT_EQ(r.toUint64(), 0xF000u);
    // Result is resident in the left-port row.
    auto p = DeviceParams::coruscantDefault();
    EXPECT_EQ(unit.peekRow(p.leftPortRow()), r);
}

TEST(UnitBulk, CostsScaleWithActiveWires)
{
    CoruscantUnit unit(smallParams(7, 128));
    std::vector<BitVector> ops(2, BitVector(128, true));
    unit.resetCosts();
    unit.bulkBitwise(BulkOp::Or, ops, 16);
    double e16 = unit.ledger().energyPj();
    unit.resetCosts();
    unit.bulkBitwise(BulkOp::Or, ops, 128);
    double e128 = unit.ledger().energyPj();
    EXPECT_NEAR(e128 / e16, 8.0, 1e-9);
}

} // namespace
} // namespace coruscant
