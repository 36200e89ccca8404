/**
 * @file
 * GangBatcher against the std::map reference (tests/oracle/map_batcher),
 * the lifetime rule of its pooled members, and the saturated deadline.
 *
 * The fuzz drives both batchers with the same interleaved add / flushDue
 * / flushGroup calls over hot, warm and cold (bank, group) keys, for
 * every gang capacity 1..31 and windows 0, 1, 256 and 2^32, from arrival
 * 0 and from near the top of the cycle range (where deadlines saturate).
 * After every call it compares each returned gang's bank, group, readyAt
 * and member ids in order, plus pending(), nextDeadline() and stats().
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "oracle/map_batcher.hpp"
#include "service/batcher.hpp"
#include "util/cycles.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

static_assert(satAddCycles(1, 2) == 3);
static_assert(satAddCycles(~0ull - 1, 1) == ~0ull);
static_assert(satAddCycles(~0ull - 1, 2) == kNeverCycle);
static_assert(satAddCycles(~0ull, ~0ull) == kNeverCycle);

ServiceRequest
bulk(std::uint64_t id, std::uint64_t arrival, std::uint32_t bank,
     std::uint32_t group)
{
    ServiceRequest r;
    r.id = id;
    r.cls = RequestClass::BulkBitwise;
    r.arrival = arrival;
    r.bank = bank;
    r.dbcGroup = group;
    return r;
}

std::vector<std::uint64_t>
idsOf(std::span<const ServiceRequest> members)
{
    std::vector<std::uint64_t> ids;
    for (const ServiceRequest &m : members)
        ids.push_back(m.id);
    return ids;
}

void
expectSameGang(const TrGang &got, const OracleGang &want)
{
    EXPECT_EQ(got.bank, want.bank);
    EXPECT_EQ(got.dbcGroup, want.dbcGroup);
    EXPECT_EQ(got.readyAt, want.readyAt);
    EXPECT_EQ(idsOf(got.members), idsOf(want.members));
    for (std::size_t i = 0;
         i < got.members.size() && i < want.members.size(); ++i)
        EXPECT_EQ(got.members[i].arrival, want.members[i].arrival);
}

void
expectSameState(const GangBatcher &got, const MapGangBatcher &want)
{
    EXPECT_EQ(got.pending(), want.pending());
    EXPECT_EQ(got.nextDeadline(), want.nextDeadline());
    EXPECT_EQ(got.stats().gangs, want.stats().gangs);
    EXPECT_EQ(got.stats().gangedRequests, want.stats().gangedRequests);
    EXPECT_EQ(got.stats().fullCloses, want.stats().fullCloses);
    EXPECT_EQ(got.stats().windowCloses, want.stats().windowCloses);
}

/** A key from 4 hot, 64 warm or any of the 2^64 cold (bank, group)s. */
std::pair<std::uint32_t, std::uint32_t>
drawKey(Rng &rng)
{
    static constexpr std::uint32_t kHot[4][2] = {
        {0, 0}, {0, 1}, {1, 0}, {0xffffffffu, 0xffffffffu}};
    std::uint64_t pick = rng.nextBelow(100);
    if (pick < 60) {
        const auto &k = kHot[rng.nextBelow(4)];
        return {k[0], k[1]};
    }
    if (pick < 85)
        return {static_cast<std::uint32_t>(rng.nextBelow(8)),
                static_cast<std::uint32_t>(rng.nextBelow(8))};
    return {static_cast<std::uint32_t>(rng.next()),
            static_cast<std::uint32_t>(rng.next())};
}

void
fuzzOne(std::size_t max_members, std::uint64_t window, std::uint64_t base,
        std::uint64_t seed, BatchStats &total)
{
    SCOPED_TRACE("max_members " + std::to_string(max_members) +
                 ", window " + std::to_string(window) + ", base " +
                 std::to_string(base));
    Rng rng(seed);
    GangBatcher got(max_members, window);
    MapGangBatcher want(max_members, window);
    std::uint64_t arrival = base;
    std::uint64_t id = 0;
    for (int step = 0; step < 600 && !testing::Test::HasFailure(); ++step) {
        std::uint64_t gap_kind = rng.nextBelow(100);
        std::uint64_t gap = gap_kind < 40   ? 0
                            : gap_kind < 80 ? 1 + rng.nextBelow(64)
                            : gap_kind < 95 ? 1 + rng.nextBelow(1024)
                                            : rng.nextBelow(1ull << 33);
        arrival = satAddCycles(arrival, gap);
        std::uint64_t op = rng.nextBelow(100);
        if (op < 70) {
            auto [bank, group] = drawKey(rng);
            ServiceRequest r = bulk(id++, arrival, bank, group);
            TrGang g = got.add(r);
            OracleGang w = want.add(r);
            expectSameGang(g, w);
        } else if (op < 90) {
            std::uint64_t now =
                rng.nextBelow(10) == 0
                    ? kNeverCycle
                    : satAddCycles(arrival, rng.nextBelow(2 * window + 2));
            std::span<const TrGang> g = got.flushDue(now);
            std::vector<OracleGang> w = want.flushDue(now);
            ASSERT_EQ(g.size(), w.size());
            for (std::size_t i = 0; i < g.size(); ++i)
                expectSameGang(g[i], w[i]);
        } else {
            auto [bank, group] = drawKey(rng);
            expectSameGang(got.flushGroup(bank, group, arrival),
                           want.flushGroup(bank, group, arrival));
        }
        expectSameState(got, want);
    }
    total.merge(got.stats());
}

TEST(GangBatcherFuzz, MatchesMapOracle)
{
    const std::uint64_t windows[] = {0, 1, 256, 1ull << 32};
    // Near the top, deadlines (and later arrivals) saturate at ~0ull.
    const std::uint64_t bases[] = {0, kNeverCycle - (1ull << 34)};
    std::uint64_t seed = 1;
    BatchStats total;
    for (std::size_t mm = 1; mm <= 31; ++mm)
        for (std::uint64_t w : windows)
            for (std::uint64_t base : bases) {
                fuzzOne(mm, w, base, seed++, total);
                if (HasFailure())
                    return;
            }
    // Both ways a gang closes were exercised.
    EXPECT_GT(total.fullCloses, 1000u);
    EXPECT_GT(total.windowCloses, 1000u);
}

TEST(GangBatcher, MembersSurviveFlushGroupDuringFlushDue)
{
    GangBatcher b(4, 100);
    b.add(bulk(1, 0, 0, 0));
    b.add(bulk(2, 0, 0, 0));
    b.add(bulk(3, 1, 0, 1));
    b.add(bulk(4, 50, 0, 2)); // the group flushed mid-dispatch
    b.add(bulk(5, 51, 0, 2));
    b.add(bulk(6, 60, 0, 3)); // stays open throughout
    b.add(bulk(7, 61, 0, 3));
    b.add(bulk(8, 62, 0, 3));

    std::span<const TrGang> due = b.flushDue(101);
    ASSERT_EQ(due.size(), 2u);
    const std::vector<std::vector<std::uint64_t>> want = {{1, 2}, {3}};
    bool flushed = false;
    for (std::size_t i = 0; i < due.size(); ++i) {
        if (!flushed) {
            TrGang third = b.flushGroup(0, 2, 101);
            EXPECT_EQ(third.dbcGroup, 2u);
            EXPECT_EQ(idsOf(third.members),
                      (std::vector<std::uint64_t>{4, 5}));
            flushed = true;
        }
        EXPECT_EQ(due[i].dbcGroup, i);
        EXPECT_EQ(idsOf(due[i].members), want[i]);
    }
    for (std::size_t i = 0; i < due.size(); ++i)
        EXPECT_EQ(idsOf(due[i].members), want[i]);
    EXPECT_EQ(b.pending(), 3u);

    // A full gang returned by add() keeps its members through a
    // flushGroup() of another open gang.
    b.add(bulk(9, 70, 1, 0));
    TrGang full = b.add(bulk(10, 71, 0, 3));
    ASSERT_EQ(full.members.size(), 4u);
    TrGang other = b.flushGroup(1, 0, 72);
    EXPECT_EQ(idsOf(other.members), (std::vector<std::uint64_t>{9}));
    EXPECT_EQ(idsOf(full.members),
              (std::vector<std::uint64_t>{6, 7, 8, 10}));
    EXPECT_EQ(b.pending(), 0u);
    EXPECT_TRUE(b.flushGroup(1, 0, 73).members.empty());
}

TEST(GangBatcher, SaturatedDeadlineMeansNeverByTime)
{
    GangBatcher b(7, 100);
    const std::uint64_t arrival = ~0ull - 10;
    b.add(bulk(1, arrival, 3, 4));
    EXPECT_EQ(b.nextDeadline(), ~0ull);
    EXPECT_TRUE(b.flushDue(~0ull - 1).empty());
    // The loop-end flush still drains it.
    std::span<const TrGang> last = b.flushDue(~0ull);
    ASSERT_EQ(last.size(), 1u);
    EXPECT_EQ(last[0].readyAt, ~0ull);
    EXPECT_EQ(idsOf(last[0].members), (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(b.pending(), 0u);
}

} // namespace
} // namespace coruscant
