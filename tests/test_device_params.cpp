/**
 * @file
 * Unit tests for DeviceParams geometry and calibration.
 */

#include <gtest/gtest.h>

#include "dwm/device_params.hpp"
#include "util/logging.hpp"

namespace coruscant {
namespace {

TEST(DeviceParams, DefaultMatchesPaperGeometry)
{
    auto p = DeviceParams::coruscantDefault();
    EXPECT_EQ(p.wiresPerDbc, 512u);
    EXPECT_EQ(p.domainsPerWire, 32u);
    EXPECT_EQ(p.trd, 7u);
    // Paper Sec. III-A: ports at data positions 14 and 20; overhead
    // domains reduce from 31 to 25; 57 total domains.
    EXPECT_EQ(p.leftPortRow(), 14u);
    EXPECT_EQ(p.rightPortRow(), 20u);
    EXPECT_EQ(p.leftOverhead() + p.rightOverhead(), 25u);
    EXPECT_EQ(p.totalDomains(), 57u);
}

TEST(DeviceParams, SingleAccessPointOverheadMatchesPaper)
{
    // TRD = 1 degenerates to a single access point: 2Y - 1 = 63
    // domains (paper Sec. III-A).
    auto p = DeviceParams::withTrd(1);
    EXPECT_EQ(p.totalDomains(), 63u);
}

TEST(DeviceParams, OverheadIsDataMinusTrd)
{
    for (std::size_t trd : {1u, 3u, 5u, 7u}) {
        auto p = DeviceParams::withTrd(trd);
        EXPECT_EQ(p.leftOverhead() + p.rightOverhead(), 32u - trd);
    }
}

TEST(DeviceParams, MaxAddOperands)
{
    EXPECT_EQ(DeviceParams::withTrd(3).maxAddOperands(), 2u);
    EXPECT_EQ(DeviceParams::withTrd(5).maxAddOperands(), 3u);
    EXPECT_EQ(DeviceParams::withTrd(7).maxAddOperands(), 5u);
}

TEST(DeviceParams, TrEnergyCalibration)
{
    auto p = DeviceParams::coruscantDefault();
    // Pinned by Table III composites (see device_params.cpp).
    EXPECT_NEAR(p.trEnergyPj(3), 0.51125, 1e-9);
    EXPECT_NEAR(p.trEnergyPj(7), 1.555, 1e-9);
    // Monotone in the window length.
    EXPECT_LT(p.trEnergyPj(3), p.trEnergyPj(5));
    EXPECT_LT(p.trEnergyPj(5), p.trEnergyPj(7));
    // Window of one is an ordinary read.
    EXPECT_DOUBLE_EQ(p.trEnergyPj(1), p.readEnergyPj);
}

TEST(DeviceParams, ValidateRejectsBadConfigs)
{
    DeviceParams p;
    p.trd = 40; // > domainsPerWire
    EXPECT_THROW(p.validate(), FatalError);
    DeviceParams q;
    q.wiresPerDbc = 0;
    EXPECT_THROW(q.validate(), FatalError);
}

TEST(DeviceParams, WindowFitsInsideDataRows)
{
    for (std::size_t trd : {3u, 5u, 7u}) {
        auto p = DeviceParams::withTrd(trd);
        EXPECT_LE(p.rightPortRow(), p.domainsPerWire - 1);
        EXPECT_EQ(p.rightPortRow() - p.leftPortRow() + 1, trd);
    }
}

} // namespace
} // namespace coruscant
