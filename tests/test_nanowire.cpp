/**
 * @file
 * Unit tests for the single-nanowire device model.
 */

#include <gtest/gtest.h>

#include "oracle/nanowire.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

DeviceParams
smallParams(std::size_t trd = 7)
{
    DeviceParams p = DeviceParams::withTrd(trd);
    p.wiresPerDbc = 1;
    return p;
}

TEST(Nanowire, InitialAlignment)
{
    Nanowire w(smallParams());
    EXPECT_EQ(w.shiftOffset(), 0);
    EXPECT_EQ(w.rowAtPort(Port::Left), w.params().leftPortRow());
    EXPECT_EQ(w.rowAtPort(Port::Right), w.params().rightPortRow());
}

TEST(Nanowire, PokePeekRoundTrip)
{
    Nanowire w(smallParams());
    for (std::size_t r = 0; r < w.params().domainsPerWire; ++r)
        w.pokeRow(r, r % 3 == 0);
    for (std::size_t r = 0; r < w.params().domainsPerWire; ++r)
        EXPECT_EQ(w.peekRow(r), r % 3 == 0) << "row " << r;
}

TEST(Nanowire, ShiftPreservesData)
{
    Nanowire w(smallParams());
    Rng rng(5);
    std::vector<bool> data;
    for (std::size_t r = 0; r < w.params().domainsPerWire; ++r) {
        bool b = rng.nextBool();
        data.push_back(b);
        w.pokeRow(r, b);
    }
    // Shift to both extremes and back; data rows must be intact.
    while (w.canShiftLeft())
        w.shiftLeft();
    while (w.canShiftRight())
        w.shiftRight();
    while (w.shiftOffset() != 0)
        w.shiftLeft();
    for (std::size_t r = 0; r < w.params().domainsPerWire; ++r)
        EXPECT_EQ(w.peekRow(r), data[r]) << "row " << r;
}

TEST(Nanowire, ShiftBoundsEnforced)
{
    Nanowire w(smallParams());
    while (w.canShiftLeft())
        w.shiftLeft();
    EXPECT_THROW(w.shiftLeft(), PanicError);
    while (w.canShiftRight())
        w.shiftRight();
    EXPECT_THROW(w.shiftRight(), PanicError);
}

TEST(Nanowire, AlignmentReadsTheRightRow)
{
    Nanowire w(smallParams());
    for (std::size_t r = 0; r < w.params().domainsPerWire; ++r)
        w.pokeRow(r, r % 2 == 0);
    for (std::size_t r = 0; r < w.params().domainsPerWire; ++r) {
        Port p = w.canAlign(r, Port::Left) ? Port::Left : Port::Right;
        ASSERT_TRUE(w.canAlign(r, p)) << "row " << r;
        w.alignRowToPort(r, p);
        EXPECT_EQ(w.readAtPort(p), r % 2 == 0) << "row " << r;
    }
}

TEST(Nanowire, EveryRowReachesSomePort)
{
    for (std::size_t trd : {1u, 3u, 5u, 7u}) {
        Nanowire w(smallParams(trd));
        for (std::size_t r = 0; r < w.params().domainsPerWire; ++r) {
            EXPECT_TRUE(w.canAlign(r, Port::Left) ||
                        w.canAlign(r, Port::Right))
                << "trd " << trd << " row " << r;
        }
    }
}

TEST(Nanowire, WriteAtPortSticks)
{
    Nanowire w(smallParams());
    w.writeAtPort(Port::Left, true);
    EXPECT_TRUE(w.readAtPort(Port::Left));
    EXPECT_TRUE(w.peekRow(w.rowAtPort(Port::Left)));
    w.writeAtPort(Port::Right, true);
    EXPECT_TRUE(w.peekRow(w.rowAtPort(Port::Right)));
}

TEST(Nanowire, TransverseReadCountsWindowOnes)
{
    Nanowire w(smallParams(7));
    std::size_t lo = w.rowAtPort(Port::Left);
    // Put ones everywhere, zeros in the window, then add back k ones.
    for (std::size_t r = 0; r < w.params().domainsPerWire; ++r)
        w.pokeRow(r, true);
    for (std::size_t r = lo; r < lo + 7; ++r)
        w.pokeRow(r, false);
    EXPECT_EQ(w.transverseRead(), 0u);
    for (std::size_t k = 0; k < 7; ++k) {
        w.pokeRow(lo + k, true);
        EXPECT_EQ(w.transverseRead(), k + 1);
    }
}

TEST(Nanowire, TransverseReadTracksAlignment)
{
    Nanowire w(smallParams(3));
    // Rows 0..31 hold 1 at even rows.
    for (std::size_t r = 0; r < 32; ++r)
        w.pokeRow(r, r % 2 == 0);
    // Window over [10, 12]: rows 10 and 12 are even -> 2 ones.
    w.alignWindowStart(10);
    EXPECT_EQ(w.transverseRead(), 2u);
    w.alignWindowStart(11);
    EXPECT_EQ(w.transverseRead(), 1u);
}

TEST(Nanowire, TransverseWriteSegmentShift)
{
    Nanowire w(smallParams(4));
    std::size_t lo = w.rowAtPort(Port::Left);
    // Window = [a, b, c, d]; TW(x) should give [x, a, b, c], d lost.
    w.pokeRow(lo + 0, true);  // a = 1
    w.pokeRow(lo + 1, false); // b = 0
    w.pokeRow(lo + 2, true);  // c = 1
    w.pokeRow(lo + 3, true);  // d = 1
    bool outside_before = w.peekRow(lo + 4);
    w.transverseWrite(false);
    EXPECT_FALSE(w.peekRow(lo + 0)); // x
    EXPECT_TRUE(w.peekRow(lo + 1));  // a
    EXPECT_FALSE(w.peekRow(lo + 2)); // b
    EXPECT_TRUE(w.peekRow(lo + 3));  // c
    EXPECT_EQ(w.peekRow(lo + 4), outside_before); // untouched
}

TEST(Nanowire, TransverseWriteRotationRestoresOrder)
{
    // TRD transverse writes, each re-injecting the bit read at the
    // right port, implement a full rotation: state must be restored.
    Nanowire w(smallParams(7));
    Rng rng(9);
    std::size_t lo = w.rowAtPort(Port::Left);
    std::vector<bool> window;
    for (std::size_t i = 0; i < 7; ++i) {
        bool b = rng.nextBool();
        window.push_back(b);
        w.pokeRow(lo + i, b);
    }
    for (std::size_t i = 0; i < 7; ++i) {
        bool out = w.readAtPort(Port::Right);
        w.transverseWrite(out);
    }
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_EQ(w.peekRow(lo + i), window[i]) << "slot " << i;
}

TEST(Nanowire, FaultModelPerturbsByOneLevel)
{
    Nanowire w(smallParams(7));
    std::size_t lo = w.rowAtPort(Port::Left);
    for (std::size_t i = 0; i < 7; ++i)
        w.pokeRow(lo + i, i < 4);
    TrFaultModel always(1.0, 123);
    for (int i = 0; i < 50; ++i) {
        std::size_t c = w.transverseRead(&always);
        EXPECT_TRUE(c == 3 || c == 5) << c;
    }
    EXPECT_EQ(always.injectedFaults(), 50u);
}

TEST(Nanowire, FaultAtLimitsStaysInRange)
{
    Nanowire w(smallParams(7));
    TrFaultModel always(1.0, 7);
    // All-zero window can only err upward.
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(w.transverseRead(&always), 1u);
    std::size_t lo = w.rowAtPort(Port::Left);
    for (std::size_t i = 0; i < 7; ++i)
        w.pokeRow(lo + i, true);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(w.transverseRead(&always), 6u);
}

} // namespace
} // namespace coruscant
