/**
 * @file
 * TR-based shift-alignment guard: detection and correction of
 * one-position shifting faults.
 */

#include <gtest/gtest.h>

#include "dwm/alignment_guard.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

DeviceParams
params(std::size_t trd = 7, std::size_t wires = 8)
{
    DeviceParams p = DeviceParams::withTrd(trd);
    p.wiresPerDbc = wires;
    return p;
}

TEST(AlignmentGuard, RampCountChangesByOneBetweenPeaks)
{
    AlignmentGuard g(params());
    for (std::size_t s = 1; s + 7 < 25; ++s) {
        auto d = static_cast<long>(g.expectedCount(s + 1)) -
                 static_cast<long>(g.expectedCount(s));
        EXPECT_LE(std::abs(d), 1) << "s=" << s;
    }
    // Full window over a ramp crest counts TRD; over a trough, zero.
    EXPECT_EQ(g.expectedCount(0), 7u);
    EXPECT_EQ(g.expectedCount(7), 0u);
}

TEST(AlignmentGuard, AlignedClusterChecksClean)
{
    DomainBlockCluster dbc(params());
    AlignmentGuard g(params());
    g.install(dbc);
    for (std::size_t ws : {2u, 5u, 10u, 18u}) {
        dbc.alignRowToPort(ws, Port::Left);
        EXPECT_EQ(g.check(dbc), AlignmentStatus::Aligned) << ws;
    }
}

TEST(AlignmentGuard, DetectsInjectedFaultDirection)
{
    for (bool toward_left : {true, false}) {
        DomainBlockCluster dbc(params());
        AlignmentGuard g(params());
        g.install(dbc);
        dbc.alignRowToPort(3, Port::Left); // monotone ramp region
        dbc.injectShiftFault(toward_left);
        auto status = g.check(dbc);
        if (toward_left) {
            EXPECT_EQ(status, AlignmentStatus::OffByPlusOne);
        } else {
            EXPECT_EQ(status, AlignmentStatus::OffByMinusOne);
        }
    }
}

TEST(AlignmentGuard, CorrectionRestoresData)
{
    DomainBlockCluster dbc(params(7, 8));
    AlignmentGuard g(params(7, 8), 0);
    g.install(dbc);
    // User data on the non-guard wires.
    Rng rng(5);
    std::vector<std::uint8_t> snapshot;
    for (std::size_t r = 0; r < 32; ++r) {
        for (std::size_t w = 1; w < 8; ++w) {
            bool b = rng.nextBool();
            dbc.pokeBit(r, w, b);
            snapshot.push_back(b);
        }
    }
    dbc.alignRowToPort(4, Port::Left);
    dbc.injectShiftFault(true);
    ASSERT_NE(g.check(dbc), AlignmentStatus::Aligned);
    ASSERT_TRUE(g.correct(dbc).aligned);
    // Data rows intact after the corrective pulse.
    std::size_t i = 0;
    for (std::size_t r = 0; r < 32; ++r)
        for (std::size_t w = 1; w < 8; ++w)
            EXPECT_EQ(dbc.peekBit(r, w), snapshot[i++] != 0)
                << "row " << r << " wire " << w;
}

TEST(AlignmentGuard, PeakPositionsAreAmbiguous)
{
    DomainBlockCluster dbc(params());
    AlignmentGuard g(params());
    g.install(dbc);
    dbc.alignRowToPort(7, Port::Left); // trough of the ramp: both neighbors +1
    dbc.injectShiftFault(true);
    EXPECT_EQ(g.check(dbc), AlignmentStatus::Unknown);
}

TEST(AlignmentGuard, SurvivesLegalShifting)
{
    // Normal (tracked) shifts must never trip the guard.
    DomainBlockCluster dbc(params());
    AlignmentGuard g(params());
    g.install(dbc);
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        if (rng.nextBool() && dbc.canShiftLeft())
            dbc.shiftLeft();
        else if (dbc.canShiftRight())
            dbc.shiftRight();
        std::size_t ws = dbc.windowStartRow();
        if (ws + 7 <= 32) {
            EXPECT_EQ(g.check(dbc), AlignmentStatus::Aligned)
                << "step " << i;
        }
    }
}

TEST(AlignmentGuard, CorrectsEverySinglePositionMisalignment)
{
    // Property: from EVERY legal window position and EITHER fault
    // direction, correct() restores alignment.  At the two extreme
    // positions the offending shift pushes the outermost data row off
    // the wire — that row's contents (guard bit included) are lost,
    // but alignment is still restored and the damage reported.
    DeviceParams p = params();
    std::size_t last = p.domainsPerWire - p.trd;
    for (std::size_t ws = 0; ws <= last; ++ws) {
        for (bool toward_left : {true, false}) {
            DomainBlockCluster dbc(p);
            AlignmentGuard g(p);
            g.install(dbc);
            dbc.alignRowToPort(ws, Port::Left);
            dbc.injectShiftFault(toward_left);
            GuardCorrection r = g.correct(dbc);
            EXPECT_TRUE(r.aligned)
                << "ws=" << ws << " left=" << toward_left;
            EXPECT_TRUE(r.corrected)
                << "ws=" << ws << " left=" << toward_left;
            if (r.patternDamaged)
                g.install(dbc); // owner repairs the guard track
            EXPECT_EQ(g.check(dbc), AlignmentStatus::Aligned)
                << "ws=" << ws << " left=" << toward_left;
        }
    }
}

TEST(AlignmentGuard, CorrectionPreservesSurvivingData)
{
    // Same sweep, with user data: every row that was not physically
    // pushed off the wire must be bit-exact after correction.
    DeviceParams p = params(7, 8);
    std::size_t last = p.domainsPerWire - p.trd;
    for (std::size_t ws = 0; ws <= last; ++ws) {
        for (bool toward_left : {true, false}) {
            DomainBlockCluster dbc(p);
            AlignmentGuard g(p, 0);
            g.install(dbc);
            Rng rng(17 * ws + toward_left);
            std::vector<std::uint8_t> snapshot;
            for (std::size_t r = 0; r < p.domainsPerWire; ++r)
                for (std::size_t w = 1; w < p.wiresPerDbc; ++w) {
                    bool b = rng.nextBool();
                    dbc.pokeBit(r, w, b);
                    snapshot.push_back(b);
                }
            dbc.alignRowToPort(ws, Port::Left);
            dbc.injectShiftFault(toward_left);
            ASSERT_TRUE(g.correct(dbc).aligned)
                << "ws=" << ws << " left=" << toward_left;
            // The over-shift at maximum excursion destroys the edge
            // data row (documented residual); all other rows survive.
            bool row0_lost = toward_left && ws == last;
            bool rowN_lost = !toward_left && ws == 0;
            std::size_t i = 0;
            for (std::size_t r = 0; r < p.domainsPerWire; ++r)
                for (std::size_t w = 1; w < p.wiresPerDbc; ++w) {
                    bool expect = snapshot[i++] != 0;
                    if ((r == 0 && row0_lost) ||
                        (r == p.domainsPerWire - 1 && rowN_lost))
                        continue;
                    EXPECT_EQ(dbc.peekBit(r, w), expect)
                        << "ws=" << ws << " left=" << toward_left
                        << " row " << r << " wire " << w;
                }
        }
    }
}

TEST(AlignmentGuard, EdgeAliasResolvedBySegmentedOuterRead)
{
    // At the last window position an over-shift leaves the window
    // count unchanged (the domain entering from the overhead region is
    // blank, the one leaving carries a 0): only the segmented TR over
    // the outer-left segment sees the deficit.
    DeviceParams p = params();
    std::size_t last = p.domainsPerWire - p.trd;
    DomainBlockCluster dbc(p);
    AlignmentGuard g(p);
    g.install(dbc);
    dbc.alignRowToPort(last, Port::Left);
    std::size_t window_before = dbc.transverseReadWire(g.guardWire());
    dbc.injectShiftFault(true);
    EXPECT_EQ(dbc.transverseReadWire(g.guardWire()), window_before)
        << "window count alone must alias aligned here";
    EXPECT_EQ(g.check(dbc), AlignmentStatus::OffByPlusOne);
    EXPECT_TRUE(g.correct(dbc).aligned);
}

TEST(AlignmentGuard, WorksAtSmallTrd)
{
    DomainBlockCluster dbc(params(3, 4));
    AlignmentGuard g(params(3, 4));
    g.install(dbc);
    dbc.alignRowToPort(4, Port::Left);
    dbc.injectShiftFault(false);
    EXPECT_EQ(g.check(dbc), AlignmentStatus::OffByMinusOne);
    EXPECT_TRUE(g.correct(dbc).aligned);
}

} // namespace
} // namespace coruscant
