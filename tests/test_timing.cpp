/**
 * @file
 * DDR timing helpers.
 */

#include <gtest/gtest.h>

#include "arch/timing.hpp"

namespace coruscant {
namespace {

TEST(DdrTiming, PaperTableII)
{
    auto dram = DdrTiming::dram();
    EXPECT_EQ(dram.tRas, 20u);
    EXPECT_EQ(dram.tRcd, 8u);
    EXPECT_EQ(dram.tRp, 8u);
    EXPECT_EQ(dram.tCas, 8u);
    EXPECT_EQ(dram.tWr, 8u);
    EXPECT_FALSE(dram.shiftBased);
    auto dwm = DdrTiming::dwm();
    EXPECT_EQ(dwm.tRas, 9u);
    EXPECT_EQ(dwm.tRcd, 4u);
    EXPECT_TRUE(dwm.shiftBased);
}

TEST(DdrTiming, DwmReplacesPrechargeWithShifts)
{
    auto dwm = DdrTiming::dwm();
    // S shows up cycle for cycle; DRAM pays fixed tRP instead.
    EXPECT_EQ(dwm.readCycles(0), 8u);
    EXPECT_EQ(dwm.readCycles(10), 18u);
    auto dram = DdrTiming::dram();
    EXPECT_EQ(dram.readCycles(0), dram.readCycles(25));
}

TEST(DdrTiming, BusBurst)
{
    BusConfig bus;
    EXPECT_EQ(bus.lineBurstCycles(), 4u); // 64 B at 16 B/cycle
}

} // namespace
} // namespace coruscant
