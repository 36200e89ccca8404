/**
 * @file
 * ChannelTimeline, the in-order bus/bank kernel shared by
 * EventSimulator and the service engine, against hand-computed
 * schedules.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "controller/channel_timeline.hpp"

namespace coruscant {
namespace {

/** {start, completion} of one issued unit. */
using Issued = std::pair<std::uint64_t, std::uint64_t>;

TEST(ChannelTimeline, BusStallsBehindBusyBank)
{
    ChannelTimeline t(2);
    // Bus [0,1), bank 0 [0,11); the second unit waits for bank 0.
    EXPECT_EQ(t.issue(0, 0, 1, 10), (Issued{0, 11}));
    EXPECT_EQ(t.issue(0, 0, 1, 5), (Issued{11, 17}));
    // Bank 1 is idle, but in order the bus is held until cycle 12.
    EXPECT_EQ(t.startFor(0, 1), 12u);
    EXPECT_EQ(t.issue(0, 1, 1, 3), (Issued{12, 16}));
    EXPECT_EQ(t.makespan(), 17u);
    EXPECT_EQ(t.busUtilization(), 3.0 / 17.0);
    EXPECT_EQ(t.bankUtilization(), 18.0 / (17.0 * 2.0));
}

TEST(ChannelTimeline, ZeroServiceItemsAreIssueBound)
{
    ChannelTimeline t(4);
    for (std::uint64_t i = 0; i < 5; ++i) {
        auto [start, completion] = t.issue(0, i % 4, 2, 0);
        EXPECT_EQ(start, 2 * i);
        EXPECT_EQ(completion, 2 * i + 2);
    }
    EXPECT_EQ(t.makespan(), 10u);
    EXPECT_EQ(t.busUtilization(), 1.0);
    EXPECT_EQ(t.bankUtilization(), 0.0);
}

TEST(ChannelTimeline, EmptyTimelineHasZeroUtilization)
{
    ChannelTimeline t(8);
    EXPECT_EQ(t.makespan(), 0u);
    EXPECT_EQ(t.startFor(7, 3), 7u);
    EXPECT_EQ(t.busUtilization(), 0.0);
    EXPECT_EQ(t.bankUtilization(), 0.0);
}

TEST(ChannelTimeline, CarriesServiceAbove32BitsExactly)
{
    const std::uint64_t service = (1ull << 32) + 7;
    ChannelTimeline t(1);
    auto [start, completion] = t.issue(5, 0, 1, service);
    EXPECT_EQ(start, 5u);
    EXPECT_EQ(completion, 6 + service);
    EXPECT_EQ(t.makespan(), 6 + service);
    EXPECT_EQ(t.startFor(0, 0), 6 + service);
    EXPECT_EQ(t.bankUtilization(),
              static_cast<double>(service) /
                  static_cast<double>(6 + service));
}

} // namespace
} // namespace coruscant
