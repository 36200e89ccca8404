/**
 * @file
 * Ambit and ELP2IM functional and cost tests.
 */

#include <gtest/gtest.h>

#include "arch/timing.hpp"
#include "baselines/dram_pim.hpp"
#include "oracle/ambit.hpp"
#include "oracle/dram_subarray.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

BitVector
randomRow(Rng &rng, std::size_t width)
{
    BitVector row(width);
    for (std::size_t w = 0; w < width; ++w)
        row.set(w, rng.nextBool());
    return row;
}

/** @p a op @p b, folded by @p unit into a copy of @p a. */
BitVector
folded(DramPimUnit &unit, BulkOp op, BitVector a, const BitVector &b)
{
    unit.fold(op, a, b);
    return a;
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

/**
 * @p n DRAM commands of @p activations row activations each, then a
 * precharge, charged to @p what at the paper's Table II DRAM timing
 * and ~0.9 nJ per activation.
 */
CostLedger
commands(Cost what, unsigned activations, std::size_t n)
{
    const DdrTiming t = DdrTiming::dram();
    CostLedger ledger;
    for (std::size_t i = 0; i < n; ++i)
        ledger.charge(what, activations * t.tRas + t.tRp,
                      activations * 909.0);
    return ledger;
}

TEST(DramSubarray, TripleRowActivateIsDestructiveMajority)
{
    DramSubarray s(4, 8);
    s.setRow(0, BitVector::fromUint64(8, 0b11001100));
    s.setRow(1, BitVector::fromUint64(8, 0b10101010));
    s.setRow(2, BitVector::fromUint64(8, 0b11110000));
    auto maj = s.tripleRowActivate(0, 1, 2);
    EXPECT_EQ(maj.toUint64(), 0b11101000u);
    // Destructive: all three rows now hold the majority.
    EXPECT_EQ(s.row(0).toUint64(), 0b11101000u);
    EXPECT_EQ(s.row(1).toUint64(), 0b11101000u);
    EXPECT_EQ(s.row(2).toUint64(), 0b11101000u);
}

TEST(DramSubarray, RowCloneAndDcc)
{
    DramSubarray s(4, 8);
    s.setRow(0, BitVector::fromUint64(8, 0xA5));
    s.rowClone(0, 3);
    EXPECT_EQ(s.row(3).toUint64(), 0xA5u);
    EXPECT_EQ(s.readInverted(3).toUint64(), 0x5Au);
}

class DramPimFunctional
    : public ::testing::TestWithParam<bool> // true = Ambit
{
  protected:
    DramPimUnit
    make(std::size_t bits)
    {
        if (GetParam())
            return AmbitUnit(bits);
        return Elp2ImUnit(bits);
    }
};

TEST_P(DramPimFunctional, TwoOperandTruthTables)
{
    DramPimUnit unit = make(64);
    Rng rng(17);
    for (int iter = 0; iter < 20; ++iter) {
        auto a = randomRow(rng, 64);
        auto b = randomRow(rng, 64);
        EXPECT_EQ(folded(unit, BulkOp::And, a, b), a & b);
        EXPECT_EQ(folded(unit, BulkOp::Or, a, b), a | b);
        EXPECT_EQ(folded(unit, BulkOp::Xor, a, b), a ^ b);
        EXPECT_EQ(folded(unit, BulkOp::Nand, a, b), ~(a & b));
        EXPECT_EQ(folded(unit, BulkOp::Nor, a, b), ~(a | b));
        EXPECT_EQ(folded(unit, BulkOp::Xnor, a, b), ~(a ^ b));
        EXPECT_EQ(unit.bulkNot(a), ~a);
    }
}

TEST_P(DramPimFunctional, MultiOperandComposition)
{
    DramPimUnit unit = make(32);
    Rng rng(23);
    std::vector<BitVector> ops;
    for (int i = 0; i < 5; ++i)
        ops.push_back(randomRow(rng, 32));
    BitVector and_all = ops[0];
    BitVector xor_all = ops[0];
    for (int i = 1; i < 5; ++i) {
        and_all &= ops[i];
        xor_all ^= ops[i];
    }
    EXPECT_EQ(unit.bulkMulti(BulkOp::And, ops), and_all);
    EXPECT_EQ(unit.bulkMulti(BulkOp::Xor, ops), xor_all);
    EXPECT_EQ(unit.bulkMulti(BulkOp::Nand, ops), ~and_all);
}

TEST_P(DramPimFunctional, OpsWithoutATwoOperandStepChargeNothing)
{
    // NOT and MAJ have no two-operand step: a fold or a multi-row
    // NOT is rejected before any command is charged.
    DramPimUnit unit = make(64);
    BitVector acc(64, true);
    const BitVector b(64, false);
    const std::vector<BitVector> rows(2, b);
    EXPECT_THROW(unit.fold(BulkOp::Not, acc, b), FatalError);
    EXPECT_THROW(unit.fold(BulkOp::Maj, acc, b), FatalError);
    EXPECT_THROW(unit.bulkMulti(BulkOp::Not, rows), FatalError);
    EXPECT_EQ(acc, BitVector(64, true));
    expectSameLedger(unit.ledger(), CostLedger());
}

TEST_P(DramPimFunctional, SpanFormMatchesVectorForm)
{
    // Every op with a DRAM form, the inverting ones included, over one
    // to five operands whose spans end at a random bit, from empty to a
    // word past the row: the span form, into one accumulator kept
    // across every call, equals the vector form on the rows so built
    // (zero past a span's end, cut at the row), with equal ledgers.
    for (std::size_t width : {1u, 64u, 100u, 577u, 65536u}) {
        Rng rng(width + 5 * GetParam());
        const std::size_t n_words = (width + 63) / 64;
        DramPimUnit by_words = make(width);
        BitVector acc(width);
        for (BulkOp op : {BulkOp::And, BulkOp::Or, BulkOp::Xor, BulkOp::Nand,
                          BulkOp::Nor, BulkOp::Xnor, BulkOp::Not}) {
            for (std::size_t m = 1; m <= 5; ++m) {
                if (op == BulkOp::Not && m != 1)
                    continue;
                SCOPED_TRACE(::testing::Message()
                             << bulkOpName(op) << " width=" << width
                             << " m=" << m);
                std::vector<BitVector> sources;
                std::vector<WordSpan> spans;
                std::vector<BitVector> rows;
                for (std::size_t i = 0; i < m; ++i) {
                    BitVector source(rng.nextBelow(64 * n_words + 65));
                    source.setWords([&rng](std::size_t) { return rng.next(); });
                    sources.push_back(std::move(source));
                }
                for (const BitVector &source : sources) {
                    spans.push_back(source.words());
                    BitVector row(width);
                    for (std::size_t w = 0;
                         w < std::min(width, source.size()); ++w)
                        row.set(w, source.get(w));
                    rows.push_back(std::move(row));
                }
                DramPimUnit by_rows = make(width);
                by_words.resetCosts();
                const BitVector want = by_rows.bulkMulti(op, rows);
                by_words.bulkMulti(op, spans, acc);
                EXPECT_EQ(acc, want);
                expectSameLedger(by_words.ledger(), by_rows.ledger());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BothDesigns, DramPimFunctional,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool> &i) {
                             return i.param ? "Ambit" : "Elp2Im";
                         });

TEST(DramPimCosts, Elp2ImFasterThanAmbit)
{
    // ELP2IM's published advantage is ~3.2x over Ambit for bitmap-scan
    // style two-operand operations.
    AmbitUnit ambit(64);
    Elp2ImUnit elp(64);
    BitVector a(64, true), b(64, true);
    folded(ambit, BulkOp::And, a, b);
    folded(elp, BulkOp::And, a, b);
    double ratio = static_cast<double>(ambit.ledger().cycles()) /
                   static_cast<double>(elp.ledger().cycles());
    EXPECT_GT(ratio, 2.8);
    EXPECT_LT(ratio, 3.8);
}

TEST(DramPimCosts, AmbitAapCounts)
{
    EXPECT_EQ(AmbitUnit::aapCount(BulkOp::And), 4u);
    EXPECT_EQ(AmbitUnit::aapCount(BulkOp::Nor), 5u);
    EXPECT_EQ(AmbitUnit::aapCount(BulkOp::Xor), 7u);
    EXPECT_EQ(AmbitUnit::aapCount(BulkOp::Not), 3u);
    EXPECT_THROW(AmbitUnit::aapCount(BulkOp::Maj), FatalError);
}

TEST(DramPimCosts, MultiOperandCostGrowsLinearly)
{
    // k-operand AND costs (k-1) two-operand steps in DRAM PIM — the
    // contrast with CORUSCANT's single TR.
    Elp2ImUnit elp(64);
    std::vector<BitVector> ops(5, BitVector(64, true));
    elp.bulkMulti(BulkOp::And, ops);
    auto c5 = elp.ledger().cycles();
    elp.resetCosts();
    std::vector<BitVector> ops2(2, BitVector(64, true));
    elp.bulkMulti(BulkOp::And, ops2);
    auto c2 = elp.ledger().cycles();
    EXPECT_EQ(c5, 4 * c2);
}

TEST(AmbitOracle, SequencesMatchTheUnit)
{
    // Ambit's RowClone/TRA/DCC choreography, Ambit's unit and
    // ELP2IM's unit compute the same row; each unit charges its
    // design's command count for the op and nothing else.
    Rng rng(41);
    for (std::size_t width : {1u, 63u, 64u, 65u, 512u, 65536u}) {
        for (BulkOp op : {BulkOp::And, BulkOp::Or, BulkOp::Nand,
                          BulkOp::Nor, BulkOp::Xor, BulkOp::Xnor,
                          BulkOp::Not}) {
            SCOPED_TRACE(::testing::Message()
                         << bulkOpName(op) << " width=" << width);
            const BitVector a = randomRow(rng, width);
            const BitVector b = randomRow(rng, width);
            AmbitOracle oracle(width);
            AmbitUnit ambit(width);
            Elp2ImUnit elp(width);
            BitVector want = a, by_ambit = a, by_elp = a;
            if (op == BulkOp::Not) {
                want = oracle.bulkNot(a);
                by_ambit = ambit.bulkNot(a);
                by_elp = elp.bulkNot(a);
            } else {
                oracle.fold(op, want, b);
                ambit.fold(op, by_ambit, b);
                elp.fold(op, by_elp, b);
            }
            EXPECT_EQ(by_ambit, want);
            EXPECT_EQ(by_elp, by_ambit);
            expectSameLedger(ambit.ledger(),
                             commands(Cost::Aap, 2, AmbitUnit::aapCount(op)));
            expectSameLedger(elp.ledger(),
                             commands(Cost::Ap, 1, Elp2ImUnit::phaseCount(op)));
        }
    }
}

} // namespace
} // namespace coruscant
