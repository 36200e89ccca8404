/**
 * @file
 * CoruscantUnit bulk-bitwise operations against golden models, swept
 * over operand counts and TRD values.
 */

#include <gtest/gtest.h>

#include "core/coruscant_unit.hpp"
#include "obs/metrics.hpp"
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

/** @p n random rows of @p width bits. */
std::vector<BitVector>
randomRows(Rng &rng, std::size_t n, std::size_t width)
{
    std::vector<BitVector> rows;
    for (std::size_t i = 0; i < n; ++i) {
        BitVector row(width);
        for (std::size_t w = 0; w < width; ++w)
            row.set(w, rng.nextBool());
        rows.push_back(std::move(row));
    }
    return rows;
}

/** Pointers to the rows of @p rows, for the span form. */
std::vector<const BitVector *>
pointersTo(const std::vector<BitVector> &rows)
{
    std::vector<const BitVector *> out;
    for (const BitVector &row : rows)
        out.push_back(&row);
    return out;
}

/** Equal ledgers: totals and every category, energy compared exactly. */
void
expectSameLedger(const CostLedger &a, const CostLedger &b)
{
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.energyPj(), b.energyPj());
    for (std::size_t i = 0; i < kCostCategories; ++i) {
        const Cost c = static_cast<Cost>(i);
        EXPECT_EQ(a.entry(c).cycles, b.entry(c).cycles) << i;
        EXPECT_EQ(a.entry(c).energyPj, b.entry(c).energyPj) << i;
        EXPECT_EQ(a.entry(c).count, b.entry(c).count) << i;
    }
}

/** Every data row of two units, read with peekRow. */
void
expectSameRows(const CoruscantUnit &a, const CoruscantUnit &b)
{
    for (std::size_t r = 0; r < a.rows(); ++r)
        EXPECT_EQ(a.peekRow(r), b.peekRow(r)) << "row " << r;
}

TEST(UnitBulk, SpanFormMatchesVectorForm)
{
    // Both forms on two fresh units, with TR faults off and on (the
    // faulty pair draws from equal seeds): the same result, charges,
    // counters and window.
    for (std::size_t trd : {3u, 5u, 7u}) {
        for (double pfault : {0.0, 0.05}) {
            Rng rng(trd * 1000 + (pfault > 0));
            for (BulkOp op : {BulkOp::And, BulkOp::Nand, BulkOp::Or,
                              BulkOp::Nor, BulkOp::Xor, BulkOp::Xnor,
                              BulkOp::Not, BulkOp::Maj}) {
                for (std::size_t m = 1; m <= trd; ++m) {
                    if ((op == BulkOp::Not && m != 1) ||
                        (op == BulkOp::Maj && m != trd))
                        continue;
                    for (bool use_tw : {false, true}) {
                        for (bool write_back : {false, true}) {
                            SCOPED_TRACE(::testing::Message()
                                         << bulkOpName(op) << " trd=" << trd
                                         << " m=" << m << " pfault=" << pfault
                                         << " tw=" << use_tw
                                         << " wb=" << write_back);
                            const auto ops = randomRows(rng, m, 64);
                            CoruscantUnit by_vec(smallParams(trd), pfault, 9);
                            CoruscantUnit by_span(smallParams(trd), pfault, 9);
                            obs::ComponentMetrics vec_metrics, span_metrics;
                            by_vec.attachMetrics(&vec_metrics);
                            by_span.attachMetrics(&span_metrics);
                            const BitVector want = by_vec.bulkBitwise(
                                op, ops, 0, write_back, use_tw);
                            const BitVector got = by_span.bulkBitwise(
                                op, pointersTo(ops), 0, write_back, use_tw);
                            EXPECT_EQ(got, want);
                            expectSameLedger(by_span.ledger(), by_vec.ledger());
                            for (std::size_t c = 0; c < obs::kCounterKinds;
                                 ++c) {
                                const auto counter = static_cast<obs::Counter>(c);
                                EXPECT_EQ(span_metrics.get(counter),
                                          vec_metrics.get(counter))
                                    << obs::counterName(counter);
                            }
                            EXPECT_EQ(span_metrics.energyPj(),
                                      vec_metrics.energyPj());
                            EXPECT_EQ(by_span.injectedFaults(),
                                      by_vec.injectedFaults());
                            expectSameRows(by_span, by_vec);
                        }
                    }
                }
            }
        }
    }
}

TEST(UnitBulk, PadsAreRestagedOnEveryCall)
{
    // Each call on one unit equals the same call on a fresh unit: the
    // padding of a call is written whatever the window held before.
    constexpr std::size_t trd = 7;
    Rng rng(77);
    CoruscantUnit reused(smallParams(trd));
    const std::pair<BulkOp, std::size_t> calls[] = {
        {BulkOp::And, trd}, {BulkOp::And, 2}, {BulkOp::Nand, 1}};
    for (const auto &[op, m] : calls) {
        SCOPED_TRACE(::testing::Message() << bulkOpName(op) << " m=" << m);
        const auto ops = randomRows(rng, m, 64);
        CoruscantUnit fresh(smallParams(trd));
        reused.resetCosts();
        const BitVector got = reused.bulkBitwise(op, pointersTo(ops));
        EXPECT_EQ(got, fresh.bulkBitwise(op, pointersTo(ops)));
        EXPECT_EQ(got, golden(op, ops));
        expectSameLedger(reused.ledger(), fresh.ledger());
        expectSameRows(reused, fresh);
    }
}

} // namespace
} // namespace coruscant
