/**
 * @file
 * CoruscantUnit bulk-bitwise operations against golden models, swept
 * over operand counts and TRD values.
 */

#include <gtest/gtest.h>

#include <algorithm>

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

/** The words of each row of @p rows, for the word-span form. */
std::vector<WordSpan>
wordsOf(const std::vector<BitVector> &rows)
{
    std::vector<WordSpan> out;
    for (const BitVector &row : rows)
        out.push_back(row.words());
    return out;
}

/**
 * Two units after the same call: equal charges, counters (energy
 * compared exactly), injected faults and data rows.
 */
void
expectSameUnits(const CoruscantUnit &a, const obs::ComponentMetrics &am,
                const CoruscantUnit &b, const obs::ComponentMetrics &bm)
{
    expectSameLedger(a.ledger(), b.ledger());
    for (std::size_t c = 0; c < obs::kCounterKinds; ++c) {
        const auto counter = static_cast<obs::Counter>(c);
        EXPECT_EQ(am.get(counter), bm.get(counter))
            << obs::counterName(counter);
    }
    EXPECT_EQ(am.energyPj(), bm.energyPj());
    EXPECT_EQ(a.injectedFaults(), b.injectedFaults());
    expectSameRows(a, b);
}

TEST(UnitBulk, SpanFormMatchesVectorForm)
{
    // The vector and word-span forms on fresh units,
    // with TR faults off and on (the faulty units draw from equal
    // seeds): the same result, charges, counters and window.
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
                            CoruscantUnit by_words(smallParams(trd), pfault,
                                                   9);
                            obs::ComponentMetrics vec_metrics, words_metrics;
                            by_vec.attachMetrics(&vec_metrics);
                            by_words.attachMetrics(&words_metrics);
                            const BitVector want = by_vec.bulkBitwise(
                                op, ops, 0, write_back, use_tw);
                            EXPECT_EQ(by_words.bulkBitwise(op, wordsOf(ops),
                                                           0, write_back,
                                                           use_tw),
                                      want);
                            expectSameUnits(by_words, words_metrics, by_vec,
                                            vec_metrics);
                        }
                    }
                }
            }
        }
    }
}

TEST(UnitBulk, ChargesAreThePrimitiveChargesInOrder)
{
    // A bulk op charges, per operand, a TW or a port write and a
    // one-step shift, then the TR, each with the per-primitive
    // cycles and energy: the ledger and the counters' energy equal
    // those charges summed in that order, bit for bit.
    const DeviceParams dev = smallParams(7, 512);
    const double act = 512.0;
    Rng rng(31);
    for (bool use_tw : {false, true}) {
        for (std::size_t m = 1; m <= 7; ++m) {
            SCOPED_TRACE(::testing::Message() << "m=" << m << " tw=" << use_tw);
            CostLedger want;
            double want_pj = 0;
            auto charge = [&](Cost c, std::uint64_t cycles, double pj) {
                want.charge(c, cycles, pj);
                want_pj += pj;
            };
            for (std::size_t i = 0; i < m; ++i) {
                if (use_tw) {
                    charge(Cost::Tw, dev.twCycles, act * dev.twEnergyPj);
                } else {
                    charge(Cost::Write, dev.writeCycles,
                           act * dev.writeEnergyPj);
                    charge(Cost::Shift, 1 * dev.shiftCycles,
                           1.0 * act * dev.shiftEnergyPj);
                }
            }
            charge(Cost::Tr, dev.trCycles,
                   act * (dev.trEnergyPj(dev.trd) + dev.pimLogicEnergyPj));
            CoruscantUnit unit(dev);
            obs::ComponentMetrics metrics;
            unit.attachMetrics(&metrics);
            unit.bulkBitwise(BulkOp::And, randomRows(rng, m, 512), 0, false,
                             use_tw);
            expectSameLedger(unit.ledger(), want);
            EXPECT_EQ(metrics.energyPj(), want_pj);
        }
    }
}

TEST(UnitBulk, WordSpansAreZeroExtendedAndTruncated)
{
    // A word span shorter than the row stages as the row with zeros
    // past its end; a longer one, as its first words with the bits
    // past the row's width dropped.  Each call equals the vector form
    // on the rows so built, with faults off and on: the same result,
    // charges, counters, faults and window.
    for (std::size_t width : {64u, 100u, 577u}) {
        const std::size_t n_words = (width + 63) / 64;
        for (double pfault : {0.0, 0.05}) {
            Rng rng(width + (pfault > 0));
            for (BulkOp op : {BulkOp::And, BulkOp::Or, BulkOp::Xor}) {
                for (std::size_t m = 1; m <= 7; ++m) {
                    SCOPED_TRACE(::testing::Message()
                                 << bulkOpName(op) << " width=" << width
                                 << " m=" << m << " pfault=" << pfault);
                    // Sources a word longer than the row, with random
                    // bits throughout; operand i keeps (i + shift) %
                    // (n_words + 2) words, so every length from empty
                    // to the whole source turns up.
                    const auto sources = randomRows(rng, m, n_words * 64 + 64);
                    const std::size_t shift = rng.nextBelow(n_words + 2);
                    std::vector<WordSpan> spans;
                    std::vector<BitVector> rows;
                    for (std::size_t i = 0; i < m; ++i) {
                        const std::size_t keep = (i + shift) % (n_words + 2);
                        spans.push_back(sources[i].words().first(keep));
                        BitVector row(width);
                        for (std::size_t w = 0; w < std::min(width, keep * 64);
                             ++w)
                            row.set(w, sources[i].get(w));
                        rows.push_back(row);
                    }
                    CoruscantUnit by_vec(smallParams(7, width), pfault, 5);
                    CoruscantUnit by_words(smallParams(7, width), pfault, 5);
                    obs::ComponentMetrics vec_metrics, words_metrics;
                    by_vec.attachMetrics(&vec_metrics);
                    by_words.attachMetrics(&words_metrics);
                    const BitVector want = by_vec.bulkBitwise(op, rows);
                    EXPECT_EQ(by_words.bulkBitwise(op, spans), want);
                    if (pfault == 0.0) {
                        EXPECT_EQ(want, golden(op, rows));
                    }
                    expectSameUnits(by_words, words_metrics, by_vec,
                                    vec_metrics);
                }
            }
        }
    }
}

TEST(UnitBulk, SubarrayGangMatchesPerDbcUnits)
{
    // A subarray's 16 PIM DBCs side by side in one unit, as Fig. 12's
    // query steps them, against 16 units of 512 wires, each given its
    // slice of the same word spans.  Every wire's staging, TR and
    // write-back is its own, so the result rows and, after every call,
    // the data rows are bit-identical.  Each operand ends at a random
    // bit, from an empty span to a word past the gang's row, so the
    // last span is ragged and some DBCs see only zeros.
    constexpr std::size_t dbcs = 16;
    constexpr std::size_t dbc_wires = 512;
    constexpr std::size_t dbc_words = dbc_wires / 64;
    for (std::size_t trd : {3u, 5u, 7u}) {
        Rng rng(trd * 7919);
        CoruscantUnit gang(smallParams(trd, dbcs * dbc_wires));
        std::vector<CoruscantUnit> per_dbc;
        per_dbc.reserve(dbcs);
        for (std::size_t k = 0; k < dbcs; ++k)
            per_dbc.emplace_back(smallParams(trd, dbc_wires));
        for (BulkOp op : {BulkOp::And, BulkOp::Nand, BulkOp::Or, BulkOp::Nor,
                          BulkOp::Xor, BulkOp::Xnor, BulkOp::Not,
                          BulkOp::Maj}) {
            for (std::size_t m = 1; m <= trd; ++m) {
                if ((op == BulkOp::Not && m != 1) ||
                    (op == BulkOp::Maj && m != trd))
                    continue;
                for (bool write_back : {false, true}) {
                    SCOPED_TRACE(::testing::Message()
                                 << bulkOpName(op) << " trd=" << trd
                                 << " m=" << m << " wb=" << write_back);
                    std::vector<BitVector> sources;
                    for (std::size_t i = 0; i < m; ++i) {
                        const std::size_t bits =
                            rng.nextBelow(dbcs * dbc_wires + 65);
                        sources.push_back(randomRows(rng, 1, bits)[0]);
                    }
                    const std::vector<WordSpan> spans = wordsOf(sources);
                    const BitVector want =
                        gang.bulkBitwise(op, spans, 0, write_back);
                    for (std::size_t k = 0; k < dbcs; ++k) {
                        std::vector<WordSpan> slice;
                        for (const WordSpan &w : spans)
                            slice.push_back(w.subspan(
                                std::min(k * dbc_words, w.size())));
                        EXPECT_EQ(per_dbc[k].bulkBitwise(op, slice, 0,
                                                         write_back),
                                  want.slice(k * dbc_wires, dbc_wires))
                            << "DBC " << k;
                        for (std::size_t r = 0; r < gang.rows(); ++r)
                            EXPECT_EQ(per_dbc[k].peekRow(r),
                                      gang.peekRow(r).slice(k * dbc_wires,
                                                            dbc_wires))
                                << "DBC " << k << " row " << r;
                    }
                }
            }
        }
    }
}

TEST(UnitBulk, ReusedWideUnitMatchesFreshUnits)
{
    // One subarray-wide unit (8192 wires, so its count planes and rows
    // live on the heap) and one result row, both kept across every
    // op, operand count and write-back choice, against a fresh unit
    // per call: the same result, charges and data rows.  A plane word
    // or result word left over from an earlier call would show here.
    // Each operand ends at a random bit, from empty to a word past
    // the row.
    constexpr std::size_t wires = 8192;
    for (std::size_t trd : {3u, 5u, 7u}) {
        Rng rng(trd * 104729);
        CoruscantUnit reused(smallParams(trd, wires));
        BitVector result(wires);
        for (BulkOp op : {BulkOp::And, BulkOp::Nand, BulkOp::Or, BulkOp::Nor,
                          BulkOp::Xor, BulkOp::Xnor, BulkOp::Not,
                          BulkOp::Maj}) {
            for (std::size_t m = 1; m <= trd; ++m) {
                if ((op == BulkOp::Not && m != 1) ||
                    (op == BulkOp::Maj && m != trd))
                    continue;
                for (bool write_back : {false, true}) {
                    SCOPED_TRACE(::testing::Message()
                                 << bulkOpName(op) << " trd=" << trd
                                 << " m=" << m << " wb=" << write_back);
                    std::vector<BitVector> sources;
                    for (std::size_t i = 0; i < m; ++i) {
                        BitVector source(rng.nextBelow(wires + 65));
                        source.setWords(
                            [&rng](std::size_t) { return rng.next(); });
                        sources.push_back(std::move(source));
                    }
                    const std::vector<WordSpan> spans = wordsOf(sources);
                    CoruscantUnit fresh(smallParams(trd, wires));
                    const BitVector want =
                        fresh.bulkBitwise(op, spans, 0, write_back);
                    reused.resetCosts();
                    reused.bulkBitwise(op, spans, result, 0, write_back);
                    EXPECT_EQ(result, want);
                    expectSameLedger(reused.ledger(), fresh.ledger());
                    expectSameRows(reused, fresh);
                }
            }
        }
    }
}

TEST(UnitBulk, ResultRowOfAnotherWidthIsRejected)
{
    CoruscantUnit unit(smallParams(7, 64));
    const std::vector<BitVector> ops(2, BitVector(64, true));
    const std::vector<WordSpan> spans = wordsOf(ops);
    BitVector wrong(65);
    EXPECT_THROW(unit.bulkBitwise(BulkOp::And, spans, wrong), FatalError);
    expectSameLedger(unit.ledger(), CostLedger());
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
        const BitVector got = reused.bulkBitwise(op, ops);
        EXPECT_EQ(got, fresh.bulkBitwise(op, ops));
        EXPECT_EQ(got, golden(op, ops));
        expectSameLedger(reused.ledger(), fresh.ledger());
        expectSameRows(reused, fresh);
    }
}

} // namespace
} // namespace coruscant
