/**
 * @file
 * Segmented transverse read (paper Fig. 3) on the per-wire oracle.
 */

#include <gtest/gtest.h>

#include "oracle/nanowire.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

TEST(SegmentedTr, OuterSegmentsPartitionTheWire)
{
    DeviceParams p = DeviceParams::withTrd(7);
    p.wiresPerDbc = 1;
    Nanowire w(p);
    Rng rng(3);
    std::size_t total = 0;
    for (std::size_t r = 0; r < p.domainsPerWire; ++r) {
        bool b = rng.nextBool();
        total += b ? 1 : 0;
        w.pokeRow(r, b);
    }
    EXPECT_EQ(w.totalOnes(), total);
    // Partition property holds at any alignment.
    while (w.canShiftLeft())
        w.shiftLeft();
    EXPECT_EQ(w.totalOnes(), total);
    while (w.canShiftRight())
        w.shiftRight();
    EXPECT_EQ(w.totalOnes(), total);
}

TEST(SegmentedTr, OutsideCountsMatchDirectCount)
{
    DeviceParams p = DeviceParams::withTrd(5);
    p.wiresPerDbc = 1;
    Nanowire w(p);
    // Ones only in the rows left of the window.
    std::size_t ws = w.rowAtPort(Port::Left);
    for (std::size_t r = 0; r < ws; ++r)
        w.pokeRow(r, true);
    EXPECT_EQ(w.transverseReadOutside(Port::Left), ws);
    EXPECT_EQ(w.transverseReadOutside(Port::Right), 0u);
    EXPECT_EQ(w.transverseRead(), 0u);
}

} // namespace
} // namespace coruscant
