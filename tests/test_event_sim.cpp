/**
 * @file
 * Discrete-event channel simulator: policies, invariants, and
 * cross-check against the closed-form queue model.
 */

#include <gtest/gtest.h>

#include "controller/event_sim.hpp"
#include "controller/queue_model.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

TEST(EventSim, EmptyAndSingle)
{
    EventSimulator sim(4);
    EXPECT_EQ(sim.run({}, SchedulePolicy::InOrder).makespan, 0u);
    auto s = sim.run({{10, 2, 3, 50}}, SchedulePolicy::InOrder);
    EXPECT_EQ(s.makespan, 63u);
    EXPECT_EQ(s.latency.max(), 53u);
}

TEST(EventSim, ParallelBanksOverlap)
{
    EventSimulator sim(4);
    std::vector<SimRequest> reqs;
    for (std::size_t b = 0; b < 4; ++b)
        reqs.push_back({0, b, 1, 100});
    auto s = sim.run(reqs, SchedulePolicy::InOrder);
    // Issue 4 commands serially; all four run concurrently.
    EXPECT_EQ(s.makespan, 104u);
    EXPECT_GT(s.bankUtilization, 0.9);
}

TEST(EventSim, SameBankSerializes)
{
    EventSimulator sim(4);
    std::vector<SimRequest> reqs(4, SimRequest{0, 1, 1, 100});
    auto s = sim.run(reqs, SchedulePolicy::InOrder);
    EXPECT_EQ(s.makespan, 404u);
}

TEST(EventSim, ReorderBreaksHeadOfLineBlocking)
{
    // Bank 0 gets a long request, then another bank-0 request, then
    // many bank-1 requests.  In-order stalls them all behind bank 0;
    // reorder lets bank 1 proceed.
    std::vector<SimRequest> reqs;
    reqs.push_back({0, 0, 1, 1000});
    reqs.push_back({1, 0, 1, 1000});
    for (int i = 0; i < 10; ++i)
        reqs.push_back({2, 1, 1, 10});
    EventSimulator sim(2);
    auto in_order = sim.run(reqs, SchedulePolicy::InOrder);
    auto reorder = sim.run(reqs, SchedulePolicy::BankReorder);
    EXPECT_LT(reorder.latency.mean(), in_order.latency.mean() / 3);
    EXPECT_LE(reorder.makespan, in_order.makespan);
}

TEST(EventSim, ReorderPreservesPerBankOrder)
{
    // Latency of same-bank requests must reflect FIFO order: the
    // second bank-0 request cannot complete before the first.
    std::vector<SimRequest> reqs = {{0, 0, 1, 100}, {0, 0, 1, 10}};
    EventSimulator sim(2);
    auto s = sim.run(reqs, SchedulePolicy::BankReorder);
    EXPECT_EQ(s.makespan, 112u); // 101, then 1 cmd + 10 service
}

TEST(EventSim, MatchesClosedFormOnUniformLoad)
{
    // Saturated uniform round-robin load: the DES and the closed-form
    // runUniform must agree within a few percent.
    const std::size_t banks = 16;
    const std::uint64_t count = 2000, busy = 40, cmds = 2;
    std::vector<SimRequest> reqs;
    for (std::uint64_t i = 0; i < count; ++i)
        reqs.push_back({0, static_cast<std::size_t>(i % banks),
                        static_cast<std::uint32_t>(cmds),
                        static_cast<std::uint32_t>(busy)});
    EventSimulator sim(banks);
    auto des = sim.run(reqs, SchedulePolicy::BankReorder);
    auto cf = runUniform(banks, count, busy, cmds);
    double ratio = static_cast<double>(des.makespan) /
                   static_cast<double>(cf.makespanCycles);
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
}

TEST(EventSim, ArrivalTimesRespected)
{
    EventSimulator sim(2);
    auto s = sim.run({{1000, 0, 1, 10}}, SchedulePolicy::InOrder);
    EXPECT_EQ(s.makespan, 1011u);
    EXPECT_EQ(s.latency.max(), 11u);
}

TEST(EventSim, UtilizationBounds)
{
    Rng rng(9);
    std::vector<SimRequest> reqs;
    for (int i = 0; i < 500; ++i)
        reqs.push_back({rng.nextBelow(1000),
                        static_cast<std::size_t>(rng.nextBelow(8)),
                        1 + static_cast<std::uint32_t>(
                                rng.nextBelow(4)),
                        static_cast<std::uint32_t>(rng.nextBelow(60))});
    EventSimulator sim(8);
    for (auto pol :
         {SchedulePolicy::InOrder, SchedulePolicy::BankReorder}) {
        auto s = sim.run(reqs, pol);
        EXPECT_GT(s.makespan, 0u);
        EXPECT_LE(s.busUtilization, 1.0);
        EXPECT_LE(s.bankUtilization, 1.0);
        EXPECT_GE(s.latency.mean(), 1.0);
    }
}

TEST(EventSim, RejectsBadBank)
{
    EventSimulator sim(2);
    EXPECT_THROW(sim.run({{0, 5, 1, 1}}, SchedulePolicy::InOrder),
                 FatalError);
}

} // namespace
} // namespace coruscant
