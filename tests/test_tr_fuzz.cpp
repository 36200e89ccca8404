/**
 * @file
 * Differential fuzz of the word-parallel transverse-read path against
 * the bit-serial reference.
 *
 * The row-wide read (DomainBlockCluster::transverseReadAll) counts
 * every wire at once with a vertical counter, and the CoruscantUnit
 * operations decode their outputs word-wide from its bit planes.  The
 * reference is one transverseReadWire() per wire followed by
 * evalPimLogic() / selectBulkOp() (tests/oracle/pim_decode), the
 * sense-amplifier decode of a single wire.  The segmented outer reads
 * (transverseReadOutsideWire) are checked against the data rows on
 * either side of the window.  Both
 * sides read random rows at random shift offsets, for TRD 3..7 and
 * widths around the 64-bit word size, with TR faults off and on; with
 * faults on the two sides share a seed and must draw the same faults.
 *
 * The carry chain of add()/addStepVoted() and the bit loop of
 * maxOfRows() sense a lane-strided subset of wires per step; their
 * reference is the bit-serial algorithm (one transverseReadWire() per
 * lane and bit position, one pokeBit() per output) replayed on a
 * cluster of its own.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "core/coruscant_unit.hpp"
#include "dwm/dbc.hpp"
#include "oracle/pim_decode.hpp"
#include "util/rng.hpp"

namespace coruscant {

/** Reaches the unit's cluster so the fuzz can shift and observe it. */
class CoruscantUnitTestPeer
{
  public:
    static DomainBlockCluster &dbc(CoruscantUnit &u) { return u.dbc; }
};

namespace {

constexpr std::size_t kTrds[] = {3, 4, 5, 6, 7};
constexpr std::size_t kWidths[] = {8, 100, 512};
constexpr double kFaultRates[] = {0.0, 0.05};
constexpr std::uint64_t kFaultSeed = 99;

DeviceParams
params(std::size_t trd, std::size_t width)
{
    DeviceParams p = DeviceParams::withTrd(trd);
    p.wiresPerDbc = width;
    return p;
}

BitVector
randomRow(Rng &rng, std::size_t width)
{
    BitVector row(width);
    for (std::size_t w = 0; w < width; ++w)
        row.set(w, rng.nextBool());
    return row;
}

std::vector<BitVector>
randomRows(Rng &rng, std::size_t n, std::size_t width)
{
    std::vector<BitVector> rows;
    for (std::size_t i = 0; i < n; ++i)
        rows.push_back(randomRow(rng, width));
    return rows;
}

/** Shift @p dbc (fault-free) until its offset is @p target. */
void
shiftTo(DomainBlockCluster &dbc, int target)
{
    while (dbc.shiftOffset() < target)
        dbc.shiftLeft();
    while (dbc.shiftOffset() > target)
        dbc.shiftRight();
}

/** A random offset within the cluster's shift range. */
int
randomOffset(Rng &rng, const DeviceParams &p)
{
    int lo = -static_cast<int>(p.rightOverhead());
    int hi = static_cast<int>(p.leftOverhead());
    return lo + static_cast<int>(rng.nextBelow(
                    static_cast<std::uint64_t>(hi - lo + 1)));
}

/**
 * The reference: an oracle cluster whose TR window holds @p window
 * (top to bottom from the left port), read one wire at a time.
 */
class Oracle
{
  public:
    Oracle(const DeviceParams &p, double fault_rate)
        : dbc(p), faults(fault_rate, kFaultSeed)
    {
        dbc.attachMetrics(&metrics);
    }

    std::vector<std::size_t>
    read(int offset, const std::vector<BitVector> &window)
    {
        shiftTo(dbc, offset);
        std::size_t ws = dbc.rowAtPort(Port::Left);
        for (std::size_t r = 0; r < window.size(); ++r)
            dbc.pokeRow(ws + r, window[r]);
        std::vector<std::size_t> counts;
        for (std::size_t w = 0; w < dbc.width(); ++w)
            counts.push_back(dbc.transverseReadWire(w, &faults));
        return counts;
    }

    std::uint64_t injected() const { return faults.injectedFaults(); }

    std::uint64_t
    faultsCounted() const
    {
        return metrics.get(obs::Counter::FaultsInjected);
    }

  private:
    DomainBlockCluster dbc;
    TrFaultModel faults;
    obs::ComponentMetrics metrics;
};

/** @p rows, then @p pad rows of @p pad_value, filling a TRD window. */
std::vector<BitVector>
windowOf(std::vector<BitVector> rows, std::size_t trd, std::size_t width,
         bool pad_value = false)
{
    while (rows.size() < trd)
        rows.emplace_back(width, pad_value);
    return rows;
}

TEST(TrFuzz, RowWideReadsMatchPerWireReads)
{
    Rng rng(31);
    for (double rate : kFaultRates) {
        for (std::size_t trd : kTrds) {
            for (std::size_t width : kWidths) {
                SCOPED_TRACE(::testing::Message()
                             << "rate " << rate << " trd " << trd
                             << " width " << width);
                DeviceParams p = params(trd, width);
                DomainBlockCluster dbc(p);
                obs::ComponentMetrics fast_m, ref_m;
                TrFaultModel fast(rate, kFaultSeed), ref(rate, kFaultSeed);
                for (int iter = 0; iter < 8; ++iter) {
                    shiftTo(dbc, randomOffset(rng, p));
                    for (std::size_t r = 0; r < dbc.rows(); ++r)
                        dbc.pokeRow(r, randomRow(rng, width));

                    dbc.attachMetrics(&fast_m);
                    auto counts = dbc.transverseReadAll(&fast);
                    dbc.attachMetrics(&ref_m);
                    ASSERT_EQ(counts.size(), width);
                    // Fault-free shifts within range keep every domain
                    // outside the data rows blank, so each outer
                    // segment holds exactly the data rows past its port.
                    const std::size_t ws = dbc.rowAtPort(Port::Left);
                    for (std::size_t w = 0; w < width; ++w) {
                        ASSERT_EQ(counts[w], dbc.transverseReadWire(w, &ref))
                            << "wire " << w;
                        std::size_t left = 0, right = 0;
                        for (std::size_t r = 0; r < ws; ++r)
                            left += dbc.peekBit(r, w);
                        for (std::size_t r = ws + trd; r < dbc.rows(); ++r)
                            right += dbc.peekBit(r, w);
                        ASSERT_EQ(dbc.transverseReadOutsideWire(w, Port::Left),
                                  left)
                            << "wire " << w;
                        ASSERT_EQ(dbc.transverseReadOutsideWire(w, Port::Right),
                                  right)
                            << "wire " << w;
                    }
                    EXPECT_EQ(fast.injectedFaults(), ref.injectedFaults());
                    EXPECT_EQ(fast_m.get(obs::Counter::FaultsInjected),
                              ref_m.get(obs::Counter::FaultsInjected));
                }
                if (rate > 0) {
                    EXPECT_GT(fast.injectedFaults(), 0u);
                }
            }
        }
    }
}

TEST(TrFuzz, WideWindowCountsMatchPerWireReads)
{
    // Windows of 8 to 32 rows need 4 to 6 count planes.  Shift faults
    // turn the ring under the window (injectShiftFault), so every
    // other read finds it straddling the ring's wrap: its rows sit at
    // both ends of the ring storage.
    constexpr std::size_t widths[] = {8, 100, 512, 700};
    Rng rng(53);
    for (double rate : kFaultRates) {
        for (std::size_t trd : {8u, 16u, 32u}) {
            for (std::size_t width : widths) {
                SCOPED_TRACE(::testing::Message()
                             << "rate " << rate << " trd " << trd
                             << " width " << width);
                DeviceParams p = params(trd, width);
                DomainBlockCluster dbc(p);
                obs::ComponentMetrics fast_m, ref_m;
                TrFaultModel fast(rate, kFaultSeed), ref(rate, kFaultSeed);
                // Ring slot of physical position 0, and the window's
                // first and last physical positions.
                const std::size_t ring = p.totalDomains();
                const std::size_t lo = p.leftOverhead() + p.leftPortRow();
                const std::size_t hi = p.leftOverhead() + p.rightPortRow();
                std::size_t head = 0;
                int straddled = 0;
                for (int iter = 0; iter < 8; ++iter) {
                    const int from = dbc.shiftOffset();
                    const int off = randomOffset(rng, p);
                    shiftTo(dbc, off);
                    head = (head + ring + off - from) % ring;
                    // Odd reads: any head.  Even reads: a head that
                    // wraps the window, head + lo < ring <= head + hi.
                    const std::size_t target =
                        iter % 2 ? rng.nextBelow(ring)
                                 : ring - hi + rng.nextBelow(hi - lo);
                    for (; head != target; head = (head + 1) % ring)
                        dbc.injectShiftFault(true);
                    straddled += head + lo < ring && ring <= head + hi;
                    for (std::size_t r = 0; r < dbc.rows(); ++r)
                        dbc.pokeRow(r, randomRow(rng, width));

                    // Each row-wide read draws its faults in wire
                    // order, as one pass of per-wire reads does.
                    dbc.attachMetrics(&fast_m);
                    CountPlanes planes = dbc.transverseReadPlanes(&fast);
                    dbc.attachMetrics(&ref_m);
                    ASSERT_EQ(planes.planes(),
                              static_cast<std::size_t>(std::bit_width(trd)));
                    for (std::size_t w = 0; w < width; ++w)
                        ASSERT_EQ(planes.count(w),
                                  dbc.transverseReadWire(w, &ref))
                            << "wire " << w;
                    dbc.attachMetrics(&fast_m);
                    auto counts = dbc.transverseReadAll(&fast);
                    dbc.attachMetrics(&ref_m);
                    ASSERT_EQ(counts.size(), width);
                    for (std::size_t w = 0; w < width; ++w)
                        ASSERT_EQ(counts[w], dbc.transverseReadWire(w, &ref))
                            << "wire " << w;
                    EXPECT_EQ(fast.injectedFaults(), ref.injectedFaults());
                    EXPECT_EQ(fast_m.get(obs::Counter::FaultsInjected),
                              ref_m.get(obs::Counter::FaultsInjected));
                }
                EXPECT_GE(straddled, 4);
                if (rate > 0) {
                    EXPECT_GT(fast.injectedFaults(), 0u);
                }
            }
        }
    }
}

TEST(TrFuzz, UnitOpsMatchPerWireDecode)
{
    const BulkOp ops[] = {BulkOp::And, BulkOp::Nand, BulkOp::Or,
                          BulkOp::Nor, BulkOp::Xor,  BulkOp::Xnor,
                          BulkOp::Not, BulkOp::Maj};
    Rng rng(47);
    for (double rate : kFaultRates) {
        for (std::size_t trd : kTrds) {
            for (std::size_t width : kWidths) {
                SCOPED_TRACE(::testing::Message()
                             << "rate " << rate << " trd " << trd
                             << " width " << width);
                DeviceParams p = params(trd, width);
                CoruscantUnit unit(p, rate, kFaultSeed);
                DomainBlockCluster &unit_dbc =
                    CoruscantUnitTestPeer::dbc(unit);
                obs::ComponentMetrics unit_m;
                unit_dbc.attachMetrics(&unit_m);
                Oracle oracle(p, rate);

                // Unit and oracle see the same sequence of TRs, so
                // their fault draws stay in step.
                auto check_faults = [&] {
                    EXPECT_EQ(unit.injectedFaults(), oracle.injected());
                    EXPECT_EQ(unit_m.get(obs::Counter::FaultsInjected),
                              oracle.faultsCounted());
                };

                for (int iter = 0; iter < 6; ++iter) {
                    for (BulkOp op : ops) {
                        std::size_t m =
                            op == BulkOp::Not   ? 1
                            : op == BulkOp::Maj ? trd
                                                : 1 + rng.nextBelow(trd);
                        auto operands = randomRows(rng, m, width);
                        int off = randomOffset(rng, p);
                        shiftTo(unit_dbc, off);
                        BitVector got = unit.bulkBitwise(
                            op, operands, 0, rng.nextBool(), rng.nextBool());
                        bool pad_ones =
                            op == BulkOp::And || op == BulkOp::Nand;
                        auto t = oracle.read(
                            off, windowOf(operands, trd, width, pad_ones));
                        for (std::size_t w = 0; w < width; ++w)
                            ASSERT_EQ(got.get(w),
                                      selectBulkOp(op, evalPimLogic(t[w], trd)))
                                << bulkOpName(op) << " wire " << w;
                        check_faults();
                    }

                    for (std::size_t n : {3, 5, 7}) {
                        if (n > trd)
                            continue;
                        auto replicas = randomRows(rng, n, width);
                        std::size_t act = 1 + rng.nextBelow(width);
                        int off = randomOffset(rng, p);
                        shiftTo(unit_dbc, off);
                        BitVector got = unit.nmrVote(replicas, act);
                        std::vector<BitVector> window = replicas;
                        std::size_t threshold = (n + 1) / 2;
                        if (trd == 7) {
                            for (std::size_t i = 0; i < (7 - n) / 2; ++i)
                                window.emplace_back(width, true);
                            threshold = 4;
                        }
                        auto t =
                            oracle.read(off, windowOf(window, trd, width));
                        for (std::size_t w = 0; w < width; ++w)
                            ASSERT_EQ(got.get(w),
                                      w < act && t[w] >= threshold)
                                << "N = " << n << " wire " << w;
                        check_faults();
                    }

                    const bool has_super = trd >= 5;
                    std::size_t m =
                        1 + rng.nextBelow(has_super ? trd : 3);
                    const std::size_t blocks[] = {1, 2, 3, 5, 8, 16, width};
                    std::size_t block = blocks[rng.nextBelow(7)];
                    auto rows = randomRows(rng, m, width);
                    int off = randomOffset(rng, p);
                    shiftTo(unit_dbc, off);
                    CsaRows got = unit.reduce(rows, block);
                    auto t = oracle.read(off, windowOf(rows, trd, width));
                    BitVector sum(width), carry(width), super_carry(width);
                    for (std::size_t w = 0; w < width; ++w) {
                        PimOutputs o = evalPimLogic(t[w], trd);
                        sum.set(w, o.sum);
                        if (o.carry && w + 1 < width &&
                            (w + 1) / block == w / block)
                            carry.set(w + 1, true);
                        if (has_super && o.superCarry && w + 2 < width &&
                            (w + 2) / block == w / block)
                            super_carry.set(w + 2, true);
                    }
                    EXPECT_EQ(got.sum, sum) << "block " << block;
                    EXPECT_EQ(got.carry, carry) << "block " << block;
                    EXPECT_EQ(got.superCarry, super_carry)
                        << "block " << block;
                    EXPECT_EQ(got.hasSuperCarry, has_super);
                    check_faults();
                }
                if (rate > 0) {
                    EXPECT_GT(unit.injectedFaults(), 0u);
                }
            }
        }
    }
}

/**
 * Bit-serial add / step-voted add / max on a cluster of its own: one
 * transverseReadWire() per lane and bit position and one pokeBit() or
 * row.set() per output bit, in lane order.
 */
class SerialUnit
{
  public:
    SerialUnit(const DeviceParams &p, double fault_rate)
        : dev(p), dbc(p), faults(fault_rate, kFaultSeed)
    {
        dbc.attachMetrics(&metrics);
    }

    BitVector
    add(int offset, const std::vector<BitVector> &operands,
        std::size_t block, std::size_t act, std::size_t samples)
    {
        const bool has_super = dev.trd >= 5;
        std::size_t ws = stage(offset, operands, has_super ? 1 : 0);
        const std::size_t s_row = ws, c_row = ws + dev.trd - 1;
        const std::size_t maj = (samples + 1) / 2;
        for (std::size_t k = 0; k < block; ++k) {
            for (std::size_t lane = 0; lane < act / block; ++lane) {
                std::size_t w = lane * block + k;
                std::size_t s = 0, c = 0, sc = 0;
                for (std::size_t r = 0; r < samples; ++r) {
                    PimOutputs o = evalPimLogic(
                        dbc.transverseReadWire(w, &faults), dev.trd);
                    s += o.sum;
                    c += o.carry;
                    sc += o.superCarry;
                }
                dbc.pokeBit(s_row, w, s >= maj);
                if (k + 1 < block)
                    dbc.pokeBit(c_row, w + 1, c >= maj);
                if (has_super && k + 2 < block)
                    dbc.pokeBit(s_row, w + 2, sc >= maj);
            }
        }
        return dbc.peekRow(s_row);
    }

    BitVector
    maxOf(int offset, const std::vector<BitVector> &candidates,
          std::size_t word_bits, std::size_t act)
    {
        stage(offset, candidates, 0);
        const std::size_t lanes = act / word_bits;
        for (std::size_t bit = word_bits; bit-- > 0;) {
            std::vector<bool> any_one(lanes);
            for (std::size_t lane = 0; lane < lanes; ++lane)
                any_one[lane] = dbc.transverseReadWire(
                                    lane * word_bits + bit, &faults) > 0;
            for (std::size_t rot = 0; rot < dev.trd; ++rot) {
                BitVector row = dbc.readRowAtPort(Port::Right);
                for (std::size_t lane = 0; lane < lanes; ++lane)
                    if (any_one[lane] && !row.get(lane * word_bits + bit))
                        for (std::size_t b = 0; b < word_bits; ++b)
                            row.set(lane * word_bits + b, false);
                dbc.transverseWriteRow(row);
            }
        }
        // The final OR read is the row-wide TR, checked wire by wire
        // in RowWideReadsMatchPerWireReads.
        BitVector all = dbc.transverseReadPlanes(&faults).atLeast(1);
        BitVector out(dbc.width());
        for (std::size_t w = 0; w < act; ++w)
            out.set(w, all.get(w));
        return out;
    }

    DeviceParams dev;
    DomainBlockCluster dbc;
    TrFaultModel faults;
    obs::ComponentMetrics metrics;

  private:
    /** Zero the window at @p offset, lay @p rows from slot @p first. */
    std::size_t
    stage(int offset, const std::vector<BitVector> &rows, std::size_t first)
    {
        shiftTo(dbc, offset);
        std::size_t ws = dbc.rowAtPort(Port::Left);
        for (std::size_t r = 0; r < dev.trd; ++r)
            dbc.pokeRow(ws + r, BitVector(dbc.width()));
        for (std::size_t i = 0; i < rows.size(); ++i)
            dbc.pokeRow(ws + first + i, rows[i]);
        return ws;
    }
};

TEST(TrFuzz, CarryChainAndMaxMatchBitSerial)
{
    Rng rng(83);
    const std::size_t blocks[] = {1, 2, 3, 5, 8, 16};
    for (double rate : kFaultRates) {
        for (std::size_t trd : kTrds) {
            for (std::size_t width : kWidths) {
                SCOPED_TRACE(::testing::Message()
                             << "rate " << rate << " trd " << trd
                             << " width " << width);
                DeviceParams p = params(trd, width);
                CoruscantUnit unit(p, rate, kFaultSeed);
                DomainBlockCluster &unit_dbc =
                    CoruscantUnitTestPeer::dbc(unit);
                obs::ComponentMetrics unit_m;
                unit_dbc.attachMetrics(&unit_m);
                SerialUnit ref(p, rate);

                for (int iter = 0; iter < 24; ++iter) {
                    std::size_t block = blocks[rng.nextBelow(6)];
                    while (block > width)
                        block = blocks[rng.nextBelow(6)];
                    std::size_t act =
                        block * (1 + rng.nextBelow(width / block));
                    int off = randomOffset(rng, p);
                    shiftTo(unit_dbc, off);
                    BitVector got, want;
                    std::string what;
                    switch (rng.nextBelow(3)) {
                      case 0: {
                        auto ops = randomRows(
                            rng, 1 + rng.nextBelow(p.maxAddOperands()),
                            width);
                        got = unit.add(ops, block, act);
                        want = ref.add(off, ops, block, act, 1);
                        what = "add";
                        break;
                      }
                      case 1: {
                        const std::size_t votes[] = {3, 5, 7};
                        std::size_t n = votes[rng.nextBelow(3)];
                        auto ops = randomRows(
                            rng, 1 + rng.nextBelow(p.maxAddOperands()),
                            width);
                        got = unit.addStepVoted(ops, block, n, act);
                        want = ref.add(off, ops, block, act, n);
                        what = "addStepVoted N = " + std::to_string(n);
                        break;
                      }
                      default: {
                        auto cands =
                            randomRows(rng, 1 + rng.nextBelow(trd), width);
                        got = unit.maxOfRows(cands, block, act,
                                             rng.nextBool());
                        want = ref.maxOf(off, cands, block, act);
                        what = "maxOfRows";
                        break;
                      }
                    }
                    SCOPED_TRACE(::testing::Message()
                                 << what << " block " << block << " act "
                                 << act);
                    ASSERT_EQ(got, want);
                    // Every row the chain wrote, not just the result.
                    for (std::size_t r = 0; r < p.domainsPerWire; ++r)
                        ASSERT_EQ(unit_dbc.peekRow(r), ref.dbc.peekRow(r))
                            << "row " << r;
                    ASSERT_EQ(unit.injectedFaults(),
                              ref.faults.injectedFaults());
                    ASSERT_EQ(unit_m.get(obs::Counter::FaultsInjected),
                              ref.metrics.get(obs::Counter::FaultsInjected));
                    ASSERT_EQ(unit_m.get(obs::Counter::TrPulses),
                              ref.metrics.get(obs::Counter::TrPulses));
                }
                if (rate > 0) {
                    EXPECT_GT(unit.injectedFaults(), 0u);
                }
            }
        }
    }
}

/** A row whose bits are each set with probability 7/8. */
BitVector
denseRow(Rng &rng, std::size_t width)
{
    BitVector row(width);
    for (std::size_t w = 0; w < width; ++w)
        row.set(w, rng.nextBelow(8) != 0);
    return row;
}

TEST(TrFuzz, CarryChainMatchesBitSerialWideAndDeep)
{
    // At TRD 7, five operands plus C and C' fill the window; dense rows
    // make the full count of 7 common, including the full window a
    // fault can only read one lower.  700 wires put every row on the
    // heap (past BitVector::inlineBits), so the step takes two runs of
    // words, and lanes cross word and run boundaries.
    constexpr std::size_t width = 700;
    static_assert(width > BitVector::inlineBits);
    const std::size_t blocks[] = {1, 3, 8, 64, 100, 350, width};
    Rng rng(97);
    for (double rate : kFaultRates) {
        SCOPED_TRACE(::testing::Message() << "rate " << rate);
        DeviceParams p = params(7, width);
        CoruscantUnit unit(p, rate, kFaultSeed);
        DomainBlockCluster &unit_dbc = CoruscantUnitTestPeer::dbc(unit);
        obs::ComponentMetrics unit_m;
        unit_dbc.attachMetrics(&unit_m);
        SerialUnit ref(p, rate);

        for (int iter = 0; iter < 14; ++iter) {
            std::size_t block = blocks[rng.nextBelow(7)];
            std::size_t act = block * (1 + rng.nextBelow(width / block));
            int off = randomOffset(rng, p);
            shiftTo(unit_dbc, off);
            std::vector<BitVector> ops(
                1 + rng.nextBelow(p.maxAddOperands()));
            const bool dense = rng.nextBool();
            for (BitVector &row : ops)
                row = dense ? denseRow(rng, width)
                            : randomRow(rng, width);
            std::size_t n = 1;
            BitVector got;
            if (rng.nextBool()) {
                got = unit.add(ops, block, act);
            } else {
                const std::size_t votes[] = {3, 5, 7};
                n = votes[rng.nextBelow(3)];
                got = unit.addStepVoted(ops, block, n, act);
            }
            BitVector want = ref.add(off, ops, block, act, n);
            SCOPED_TRACE(::testing::Message()
                         << "samples " << n << " block " << block
                         << " act " << act << " operands "
                         << ops.size() << (dense ? " dense" : ""));
            ASSERT_EQ(got, want);
            for (std::size_t r = 0; r < p.domainsPerWire; ++r)
                ASSERT_EQ(unit_dbc.peekRow(r), ref.dbc.peekRow(r))
                    << "row " << r;
            ASSERT_EQ(unit.injectedFaults(), ref.faults.injectedFaults());
            ASSERT_EQ(unit_m.get(obs::Counter::FaultsInjected),
                      ref.metrics.get(obs::Counter::FaultsInjected));
            ASSERT_EQ(unit_m.get(obs::Counter::TrPulses),
                      ref.metrics.get(obs::Counter::TrPulses));
        }
        if (rate > 0) {
            EXPECT_GT(unit.injectedFaults(), 0u);
        }
    }
}

} // namespace
} // namespace coruscant
