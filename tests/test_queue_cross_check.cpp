/**
 * @file
 * Cross-checks between the greedy queue dispatch runGreedy() (the
 * oracle of the closed form runUniform()) and the discrete-event
 * EventSimulator on randomized workloads, pinning the edge cases each
 * model must agree on: zero-service-cycle items, a single bank, and
 * all-requests-same-arrival.
 *
 * The two models differ by construction in one way: the greedy
 * dispatch lets the command bus run ahead (issue_clock advances regardless of
 * bank state) while the DES stalls the bus until the target bank can
 * accept (head-of-line blocking).  For identical item order and
 * simultaneous arrivals the DES makespan is therefore a sound upper
 * bound on the greedy dispatch, and both are bounded by the fully
 * serialized schedule.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "controller/event_sim.hpp"
#include "oracle/greedy_queue.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

std::vector<SimRequest>
toRequests(const std::vector<QueueItem> &items, std::uint64_t arrival)
{
    std::vector<SimRequest> reqs;
    reqs.reserve(items.size());
    for (const auto &it : items)
        reqs.push_back({arrival, it.server,
                        static_cast<std::uint32_t>(it.issueCmds),
                        static_cast<std::uint32_t>(it.busyCycles)});
    return reqs;
}

std::uint64_t
serializedBound(const std::vector<QueueItem> &items)
{
    std::uint64_t total = 0;
    for (const auto &it : items)
        total += it.issueCmds + it.busyCycles;
    return total;
}

TEST(QueueCrossCheck, RandomizedSameArrivalBounds)
{
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng rng(seed);
        const std::size_t banks = 1 + rng.nextBelow(8);
        const std::size_t count = 1 + rng.nextBelow(300);
        std::vector<QueueItem> items;
        for (std::size_t i = 0; i < count; ++i)
            items.push_back({rng.nextBelow(banks),
                             rng.nextBelow(80), // may be zero
                             1 + rng.nextBelow(3)});
        auto cf = runGreedy(banks, items);
        EventSimulator sim(banks);
        auto des =
            sim.run(toRequests(items, 0), SchedulePolicy::InOrder);
        EXPECT_GE(des.makespan, cf.makespanCycles) << "seed " << seed;
        EXPECT_LE(des.makespan, serializedBound(items))
            << "seed " << seed;
        EXPECT_LE(cf.makespanCycles, serializedBound(items))
            << "seed " << seed;
        EXPECT_EQ(des.requests, count);
    }
}

TEST(QueueCrossCheck, ZeroServiceItemsAreIssueBound)
{
    // With no bank occupancy anywhere, both models collapse to pure
    // command-bus serialization: makespan == total issue cycles.
    Rng rng(3);
    std::vector<QueueItem> items;
    std::uint64_t issue_total = 0;
    for (int i = 0; i < 200; ++i) {
        std::uint64_t cmds = 1 + rng.nextBelow(4);
        items.push_back({rng.nextBelow(8), 0, cmds});
        issue_total += cmds;
    }
    EXPECT_EQ(runGreedy(8, items).makespanCycles, issue_total);
    EventSimulator sim(8);
    auto des = sim.run(toRequests(items, 0), SchedulePolicy::InOrder);
    EXPECT_EQ(des.makespan, issue_total);
}

TEST(QueueCrossCheck, SingleBankFullySerializesTheDes)
{
    // One bank: the DES serializes issue+service end to end; the
    // greedy dispatch still pipelines issue under the previous service,
    // so it can only be faster.
    Rng rng(11);
    std::vector<QueueItem> items;
    for (int i = 0; i < 100; ++i)
        items.push_back({0, rng.nextBelow(50), 1 + rng.nextBelow(3)});
    EventSimulator sim(1);
    auto des = sim.run(toRequests(items, 0), SchedulePolicy::InOrder);
    EXPECT_EQ(des.makespan, serializedBound(items));
    auto cf = runGreedy(1, items);
    EXPECT_LE(cf.makespanCycles, des.makespan);
    // And the greedy dispatch is never faster than the busy-cycle sum.
    std::uint64_t busy = 0;
    for (const auto &it : items)
        busy += it.busyCycles;
    EXPECT_GE(cf.makespanCycles, busy);
}

TEST(QueueCrossCheck, SameArrivalShiftInvariance)
{
    // Shifting every arrival by T shifts the whole schedule by T.
    Rng rng(5);
    std::vector<QueueItem> items;
    for (int i = 0; i < 150; ++i)
        items.push_back({rng.nextBelow(4), rng.nextBelow(60),
                         1 + rng.nextBelow(2)});
    EventSimulator sim(4);
    auto at0 = sim.run(toRequests(items, 0), SchedulePolicy::InOrder);
    auto at777 =
        sim.run(toRequests(items, 777), SchedulePolicy::InOrder);
    EXPECT_EQ(at777.makespan, at0.makespan + 777);
    EXPECT_DOUBLE_EQ(at777.latency.mean(), at0.latency.mean());
    EXPECT_EQ(at777.latency.p99(), at0.latency.p99());
}

TEST(QueueCrossCheck, UniformClosedFormTracksExplicitRun)
{
    // runUniform's round-robin closed form vs runGreedy() on the
    // materialized item list: equal totals, makespan within a few
    // percent (the closed form rounds per-server schedules).
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Rng rng(seed);
        const std::size_t banks = 2 + rng.nextBelow(15);
        const std::uint64_t count = 200 + rng.nextBelow(2000);
        const std::uint64_t busy = rng.nextBelow(50);
        const std::uint64_t cmds = 1 + rng.nextBelow(3);
        std::vector<QueueItem> items;
        for (std::uint64_t i = 0; i < count; ++i)
            items.push_back({i % banks, busy, cmds});
        auto explicit_run = runGreedy(banks, items);
        auto uniform = runUniform(banks, count, busy, cmds);
        EXPECT_EQ(uniform.issueCycles, explicit_run.issueCycles);
        EXPECT_EQ(uniform.busyCycles, explicit_run.busyCycles);
        double ratio =
            static_cast<double>(uniform.makespanCycles) /
            static_cast<double>(explicit_run.makespanCycles);
        EXPECT_GT(ratio, 0.9) << "seed " << seed;
        EXPECT_LT(ratio, 1.1) << "seed " << seed;
    }
}

TEST(QueueCrossCheck, SimStatsHistogramIsConsistent)
{
    // The latency histogram inside SimStats records every request.
    Rng rng(21);
    std::vector<SimRequest> reqs;
    for (int i = 0; i < 400; ++i)
        reqs.push_back({rng.nextBelow(2000),
                        static_cast<std::size_t>(rng.nextBelow(8)),
                        1 + static_cast<std::uint32_t>(rng.nextBelow(3)),
                        static_cast<std::uint32_t>(rng.nextBelow(50))});
    EventSimulator sim(8);
    for (auto pol :
         {SchedulePolicy::InOrder, SchedulePolicy::BankReorder}) {
        auto s = sim.run(reqs, pol);
        EXPECT_EQ(s.latency.count(), s.requests);
        EXPECT_EQ(s.latency.percentile(1.0), s.latency.max());
        EXPECT_LE(s.latency.p50(), s.latency.p99());
    }
}

} // namespace
} // namespace coruscant
