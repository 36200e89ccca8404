/**
 * @file
 * Unit tests for the domain-block cluster, including the equivalence
 * property against the reference per-wire Nanowire model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dwm/dbc.hpp"
#include "oracle/nanowire.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

DeviceParams
params(std::size_t wires = 16, std::size_t trd = 7)
{
    DeviceParams p = DeviceParams::withTrd(trd);
    p.wiresPerDbc = wires;
    return p;
}

TEST(Dbc, RowRoundTrip)
{
    DomainBlockCluster d(params());
    auto row = BitVector::fromUint64(16, 0xA5C3);
    d.pokeRow(5, row);
    EXPECT_EQ(d.peekRow(5), row);
    EXPECT_EQ(d.peekRow(6).popcount(), 0u);
}

TEST(Dbc, PortRowReadWrite)
{
    DomainBlockCluster d(params());
    auto row = BitVector::fromUint64(16, 0x1234);
    d.writeRowAtPort(Port::Left, row);
    EXPECT_EQ(d.readRowAtPort(Port::Left), row);
    EXPECT_EQ(d.peekRow(d.rowAtPort(Port::Left)), row);
}

TEST(Dbc, ShiftMovesRowsUnderPorts)
{
    DomainBlockCluster d(params());
    auto row = BitVector::fromUint64(16, 0xFFFF);
    std::size_t r = d.rowAtPort(Port::Left);
    d.pokeRow(r, row);
    d.shiftRight();
    // Data moved toward the right extremity: the row previously under
    // the left port is now one past it; row r-? under the port.
    EXPECT_EQ(d.rowAtPort(Port::Left), r - 1);
    EXPECT_EQ(d.peekRow(r), row); // logical row content unchanged
}

TEST(Dbc, TransverseReadPerWireCounts)
{
    DomainBlockCluster d(params(8, 7));
    std::size_t ws = d.rowAtPort(Port::Left);
    // Wire w gets w ones in the window.
    for (std::size_t w = 0; w < 8; ++w)
        for (std::size_t k = 0; k < w; ++k)
            d.pokeBit(ws + k, w, true);
    auto counts = d.transverseReadAll();
    for (std::size_t w = 0; w < 8; ++w) {
        EXPECT_EQ(counts[w], w);
        EXPECT_EQ(d.transverseReadWire(w), w);
    }
}

TEST(Dbc, TransverseWriteRowSegmentShift)
{
    DomainBlockCluster d(params(4, 3));
    std::size_t ws = d.rowAtPort(Port::Left);
    auto a = BitVector::fromUint64(4, 0b0001);
    auto b = BitVector::fromUint64(4, 0b0010);
    auto c = BitVector::fromUint64(4, 0b0100);
    d.pokeRow(ws + 0, a);
    d.pokeRow(ws + 1, b);
    d.pokeRow(ws + 2, c);
    auto x = BitVector::fromUint64(4, 0b1111);
    d.transverseWriteRow(x);
    EXPECT_EQ(d.peekRow(ws + 0), x);
    EXPECT_EQ(d.peekRow(ws + 1), a);
    EXPECT_EQ(d.peekRow(ws + 2), b); // c pushed out
}

/**
 * Property: a DBC behaves exactly like an array of independent
 * nanowires driven in lockstep, for a random sequence of operations.
 */
TEST(DbcProperty, EquivalentToNanowireArray)
{
    const std::size_t wires = 8;
    DeviceParams p = params(wires, 7);
    DeviceParams p1 = p;
    p1.wiresPerDbc = 1;

    DomainBlockCluster dbc(p);
    std::vector<Nanowire> ref;
    for (std::size_t w = 0; w < wires; ++w)
        ref.emplace_back(p1);

    Rng rng(2024);
    // Random initial contents.
    for (std::size_t r = 0; r < p.domainsPerWire; ++r) {
        for (std::size_t w = 0; w < wires; ++w) {
            bool b = rng.nextBool();
            dbc.pokeBit(r, w, b);
            ref[w].pokeRow(r, b);
        }
    }

    for (int step = 0; step < 500; ++step) {
        switch (rng.nextBelow(6)) {
          case 0:
            if (dbc.canShiftLeft()) {
                dbc.shiftLeft();
                for (auto &n : ref)
                    n.shiftLeft();
            }
            break;
          case 1:
            if (dbc.canShiftRight()) {
                dbc.shiftRight();
                for (auto &n : ref)
                    n.shiftRight();
            }
            break;
          case 2: {
            Port port = rng.nextBool() ? Port::Left : Port::Right;
            BitVector row(wires);
            for (std::size_t w = 0; w < wires; ++w)
                row.set(w, rng.nextBool());
            dbc.writeRowAtPort(port, row);
            for (std::size_t w = 0; w < wires; ++w)
                ref[w].writeAtPort(port, row.get(w));
            break;
          }
          case 3: {
            BitVector row(wires);
            for (std::size_t w = 0; w < wires; ++w)
                row.set(w, rng.nextBool());
            dbc.transverseWriteRow(row);
            for (std::size_t w = 0; w < wires; ++w)
                ref[w].transverseWrite(row.get(w));
            break;
          }
          case 4: {
            auto counts = dbc.transverseReadAll();
            for (std::size_t w = 0; w < wires; ++w)
                ASSERT_EQ(counts[w], ref[w].transverseRead())
                    << "step " << step << " wire " << w;
            break;
          }
          case 5: {
            Port port = rng.nextBool() ? Port::Left : Port::Right;
            auto row = dbc.readRowAtPort(port);
            for (std::size_t w = 0; w < wires; ++w)
                ASSERT_EQ(row.get(w), ref[w].readAtPort(port));
            break;
          }
        }
    }

    // Final state comparison.
    ASSERT_EQ(dbc.shiftOffset(), ref[0].shiftOffset());
    for (std::size_t r = 0; r < p.domainsPerWire; ++r)
        for (std::size_t w = 0; w < wires; ++w)
            ASSERT_EQ(dbc.peekBit(r, w), ref[w].peekRow(r))
                << "row " << r << " wire " << w;
}

/**
 * The cluster as a flat array of physical rows moved with std::rotate
 * on every pulse: the representation the ring replaces, kept here as
 * the reference for it.
 */
class RotateModel
{
  public:
    explicit RotateModel(const DeviceParams &params)
        : p(params), phys(params.totalDomains(), BitVector(params.wiresPerDbc))
    {
    }

    /** One physical move of every domain (a pulse or a fault). */
    void
    move(bool toward_left)
    {
        if (toward_left) {
            std::rotate(phys.begin(), phys.begin() + 1, phys.end());
            phys.back().fill(false);
        } else {
            std::rotate(phys.begin(), phys.end() - 1, phys.end());
            phys.front().fill(false);
        }
    }

    /** A controller pulse whose outcome @p faults decides. */
    void
    pulse(bool toward_left, ShiftFaultModel &faults)
    {
        offset += toward_left ? 1 : -1;
        ShiftOutcome o = faults.sample();
        if (o != ShiftOutcome::UnderShift)
            move(toward_left);
        if (o == ShiftOutcome::OverShift)
            move(toward_left);
    }

    BitVector &row(std::size_t r) { return phys[p.leftOverhead() + r - offset]; }

    std::size_t
    port(Port side) const
    {
        return p.leftOverhead() +
               (side == Port::Left ? p.leftPortRow() : p.rightPortRow());
    }

    /** Ones of @p wire over physical rows [lo, hi). */
    std::size_t
    count(std::size_t wire, std::size_t lo, std::size_t hi) const
    {
        std::size_t c = 0;
        for (std::size_t i = lo; i < hi; ++i)
            c += phys[i].get(wire);
        return c;
    }

    DeviceParams p;
    std::vector<BitVector> phys;
    int offset = 0;
};

BitVector
randomRowOf(Rng &rng, std::size_t wires)
{
    BitVector v(wires);
    for (std::size_t w = 0; w < wires; ++w)
        v.set(w, rng.nextBool());
    return v;
}

/** Every observable of @p d against the model. */
void
expectMatches(const DomainBlockCluster &d, const RotateModel &m)
{
    const std::size_t wires = d.width();
    auto window = d.transverseReadAll();
    const std::size_t lo = m.port(Port::Left);
    const std::size_t hi = m.port(Port::Right);
    for (std::size_t w = 0; w < wires; ++w) {
        ASSERT_EQ(window[w], m.count(w, lo, hi + 1)) << "wire " << w;
        ASSERT_EQ(d.transverseReadWire(w), window[w]) << "wire " << w;
        ASSERT_EQ(d.transverseReadOutsideWire(w, Port::Left),
                  m.count(w, 0, lo))
            << "wire " << w;
        ASSERT_EQ(d.transverseReadOutsideWire(w, Port::Right),
                  m.count(w, hi + 1, m.phys.size()))
            << "wire " << w;
    }
    for (std::size_t r = 0; r < d.rows(); ++r)
        ASSERT_EQ(d.peekRow(r), m.phys[m.p.leftOverhead() + r - m.offset])
            << "row " << r;
    EXPECT_EQ(d.readRowAtPort(Port::Left), m.phys[lo]);
    EXPECT_EQ(d.readRowAtPort(Port::Right), m.phys[hi]);
}

TEST(DbcProperty, RingMatchesRotatedRows)
{
    Rng rng(0x51f7);
    for (std::size_t trd : {3u, 5u, 7u}) {
        for (std::size_t wires : {8u, 73u, 577u}) {
            SCOPED_TRACE(::testing::Message()
                         << "trd " << trd << " wires " << wires);
            DeviceParams p = params(wires, trd);
            DomainBlockCluster d(p);
            RotateModel m(p);
            // Identical fault streams: both sides see the same
            // over- and under-shifts.
            ShiftFaultModel faults(0.2, 7), model_faults(0.2, 7);
            d.attachShiftFaults(&faults);
            for (int step = 0; step < 400; ++step) {
                switch (rng.nextBelow(7)) {
                  case 0:
                    if (d.canShiftLeft()) {
                        d.shiftLeft();
                        m.pulse(true, model_faults);
                    }
                    break;
                  case 1:
                    if (d.canShiftRight()) {
                        d.shiftRight();
                        m.pulse(false, model_faults);
                    }
                    break;
                  case 2: {
                    bool left = rng.nextBool();
                    d.injectShiftFault(left);
                    m.move(left);
                    break;
                  }
                  case 3: {
                    std::size_t r = rng.nextBelow(d.rows());
                    BitVector v = randomRowOf(rng, wires);
                    d.pokeRow(r, v);
                    m.row(r) = v;
                    break;
                  }
                  case 4: {
                    std::size_t r = rng.nextBelow(d.rows());
                    std::size_t w = rng.nextBelow(wires);
                    bool v = rng.nextBool();
                    d.pokeBit(r, w, v);
                    m.row(r).set(w, v);
                    break;
                  }
                  case 5: {
                    BitVector v = randomRowOf(rng, wires);
                    d.transverseWriteRow(v);
                    const std::size_t lo = m.port(Port::Left);
                    for (std::size_t i = m.port(Port::Right); i > lo; --i)
                        m.phys[i] = m.phys[i - 1];
                    m.phys[lo] = v;
                    break;
                  }
                  default: {
                    Port side = rng.nextBool() ? Port::Left : Port::Right;
                    BitVector v = randomRowOf(rng, wires);
                    d.writeRowAtPort(side, v);
                    m.phys[m.port(side)] = v;
                    break;
                  }
                }
                ASSERT_EQ(d.shiftOffset(), m.offset);
                expectMatches(d, m);
                if (HasFatalFailure())
                    return;
            }
            EXPECT_GT(faults.injectedFaults(), 0u);
        }
    }
}

/**
 * The carry chain one wire at a time: per step, every lane's wire is
 * sensed @p samples times through transverseReadWire() (majority per
 * count bit) before any output is poked in.
 */
void
serialCarryChain(DomainBlockCluster &d, const std::vector<std::size_t> &starts,
                 std::size_t block, std::size_t samples, TrFaultModel &faults,
                 bool has_super)
{
    const std::size_t s_row = d.rowAtPort(Port::Left);
    const std::size_t c_row = d.rowAtPort(Port::Right);
    for (std::size_t k = 0; k < block; ++k) {
        std::vector<std::size_t> counts;
        for (std::size_t start : starts) {
            std::size_t ones[CountPlanes::maxPlanes] = {};
            for (std::size_t r = 0; r < samples; ++r) {
                const std::size_t c = d.transverseReadWire(start + k, &faults);
                for (std::size_t b = 0; b < CountPlanes::maxPlanes; ++b)
                    ones[b] += (c >> b) & 1;
            }
            std::size_t voted = 0;
            for (std::size_t b = 0; b < CountPlanes::maxPlanes; ++b)
                voted |= std::size_t{2 * ones[b] > samples} << b;
            counts.push_back(voted);
        }
        for (std::size_t i = 0; i < starts.size(); ++i) {
            const std::size_t w = starts[i] + k;
            d.pokeBit(s_row, w, counts[i] & 1);
            if (k + 1 < block)
                d.pokeBit(c_row, w + 1, (counts[i] >> 1) & 1);
            if (has_super && k + 2 < block)
                d.pokeBit(s_row, w + 2, (counts[i] >> 2) & 1);
        }
    }
}

TEST(DbcProperty, CarryChainMatchesSerialChainAtEveryRingHead)
{
    // The chain counts the window's interior once; every ring head
    // puts the window's rows at every place in the ring, the wrap
    // included.  TRD 3 and 4 are the compact layout (no C').
    Rng rng(0xca77);
    for (std::size_t trd : {3u, 4u, 7u}) {
        for (std::size_t wires : {64u, 130u}) {
            for (std::size_t samples : {1u, 3u}) {
                SCOPED_TRACE(::testing::Message()
                             << "trd " << trd << " wires " << wires
                             << " samples " << samples);
                const DeviceParams p = params(wires, trd);
                const bool has_super = trd >= 5;
                const std::size_t block = 8;
                BitVector lane_starts(wires);
                std::vector<std::size_t> starts;
                for (std::size_t w = 0; w + block <= wires; w += block) {
                    lane_starts.set(w, true);
                    starts.push_back(w);
                }
                for (std::size_t head = 0; head < p.totalDomains(); ++head) {
                    DomainBlockCluster d(p), ref(p);
                    for (std::size_t h = 0; h < head; ++h) {
                        d.injectShiftFault(true);
                        ref.injectShiftFault(true);
                    }
                    for (std::size_t r = 0; r < d.rows(); ++r) {
                        const BitVector v = randomRowOf(rng, wires);
                        d.pokeRow(r, v);
                        ref.pokeRow(r, v);
                    }
                    TrFaultModel faults(0.1, head), ref_faults(0.1, head);
                    d.carryChain(lane_starts, block, samples, &faults,
                                 has_super);
                    serialCarryChain(ref, starts, block, samples, ref_faults,
                                     has_super);
                    for (std::size_t r = 0; r < d.rows(); ++r)
                        ASSERT_EQ(d.peekRow(r), ref.peekRow(r))
                            << "head " << head << " row " << r;
                    EXPECT_EQ(faults.injectedFaults(),
                              ref_faults.injectedFaults());
                }
            }
        }
    }
}

} // namespace
} // namespace coruscant
