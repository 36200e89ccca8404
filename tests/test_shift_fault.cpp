/**
 * @file
 * Shifting-fault injection: the ShiftFaultModel sampler and its wiring
 * into the nanowire / DBC shift paths.
 */

#include <gtest/gtest.h>

#include "dwm/alignment_guard.hpp"
#include "dwm/dbc.hpp"
#include "dwm/shift_fault.hpp"
#include "oracle/nanowire.hpp"

namespace coruscant {
namespace {

DeviceParams
params(std::size_t trd = 7, std::size_t wires = 8)
{
    DeviceParams p = DeviceParams::withTrd(trd);
    p.wiresPerDbc = wires;
    return p;
}

TEST(ShiftFaultModel, DisabledModelNeverFires)
{
    ShiftFaultModel model; // default: probability 0
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(model.sample(), ShiftOutcome::Normal);
    EXPECT_EQ(model.injectedFaults(), 0u);
}

TEST(ShiftFaultModel, DeterministicForFixedSeed)
{
    ShiftFaultModel a(0.1, 42), b(0.1, 42);
    for (int i = 0; i < 5000; ++i)
        EXPECT_EQ(a.sample(), b.sample()) << "sample " << i;
    EXPECT_EQ(a.injectedFaults(), b.injectedFaults());
    EXPECT_EQ(a.overShifts(), b.overShifts());
    EXPECT_EQ(a.underShifts(), b.underShifts());
}

TEST(ShiftFaultModel, RatesTrackConfiguration)
{
    const int n = 20000;
    ShiftFaultModel model(0.1, 7, 0.75);
    for (int i = 0; i < n; ++i)
        model.sample();
    double rate = static_cast<double>(model.injectedFaults()) / n;
    EXPECT_NEAR(rate, 0.1, 0.02);
    double over = static_cast<double>(model.overShifts()) /
                  static_cast<double>(model.injectedFaults());
    EXPECT_NEAR(over, 0.75, 0.05);
}

TEST(ShiftFaultModel, CertainOverShiftMisalignsCluster)
{
    // With every pulse over-shifting, one tracked shift leaves the
    // cluster one position off its bookkeeping — which the guard sees.
    DomainBlockCluster dbc(params());
    AlignmentGuard g(params());
    g.install(dbc);
    dbc.alignRowToPort(3, Port::Left);
    ASSERT_EQ(g.check(dbc), AlignmentStatus::Aligned);
    ShiftFaultModel always(1.0, 1, /*over_fraction=*/1.0);
    dbc.attachShiftFaults(&always);
    dbc.shiftLeft();
    EXPECT_EQ(always.injectedFaults(), 1u);
    EXPECT_NE(g.check(dbc), AlignmentStatus::Aligned);
    dbc.attachShiftFaults(nullptr);
    EXPECT_TRUE(g.correct(dbc).aligned);
}

TEST(ShiftFaultModel, CertainUnderShiftMisalignsCluster)
{
    DomainBlockCluster dbc(params());
    AlignmentGuard g(params());
    g.install(dbc);
    dbc.alignRowToPort(3, Port::Left);
    ShiftFaultModel always(1.0, 1, /*over_fraction=*/0.0);
    dbc.attachShiftFaults(&always);
    dbc.shiftRight();
    EXPECT_EQ(always.underShifts(), 1u);
    EXPECT_NE(g.check(dbc), AlignmentStatus::Aligned);
    dbc.attachShiftFaults(nullptr);
    EXPECT_TRUE(g.correct(dbc).aligned);
}

TEST(ShiftFaultModel, NanowireShiftsSampleTheModel)
{
    DeviceParams p = params();
    Nanowire wire(p);
    for (std::size_t r = 0; r < p.domainsPerWire; ++r)
        wire.pokeRow(r, r % 2 == 0);
    ShiftFaultModel always(1.0, 3, 1.0);
    wire.attachShiftFaults(&always);
    wire.shiftLeft();
    EXPECT_EQ(always.injectedFaults(), 1u);
}

TEST(ShiftFaultModel, InjectedFaultMovesFrameWithoutBookkeeping)
{
    DomainBlockCluster dbc(params());
    for (std::size_t r = 0; r < dbc.rows(); ++r)
        dbc.pokeRow(r, BitVector::fromUint64(dbc.width(), r));
    int offset_before = dbc.shiftOffset();
    dbc.injectShiftFault(true);
    EXPECT_EQ(dbc.shiftOffset(), offset_before)
        << "a shifting fault must not update the controller state";
    // Frame-relative reads now return the neighbouring row's data.
    EXPECT_EQ(dbc.peekRow(3).toUint64(), 4u);
}

} // namespace
} // namespace coruscant
