/**
 * @file
 * Address mapping, DWM main memory, and queue-model tests.
 */

#include <gtest/gtest.h>

#include "arch/dwm_memory.hpp"
#include "arch/timing.hpp"
#include "oracle/greedy_queue.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

TEST(AddressMap, PaperCapacity)
{
    MemoryConfig cfg;
    EXPECT_EQ(cfg.capacityBytes(), 1ull << 30); // 1 GiB
    EXPECT_EQ(cfg.totalPimDbcs(), 32768u);
    EXPECT_EQ(cfg.totalDbcs(), 524288u);
    EXPECT_EQ(cfg.rowBytes(), 64u); // one cache line per DBC row
}

TEST(AddressMap, EncodeDecodeRoundTrip)
{
    MemoryConfig cfg;
    AddressMap amap(cfg);
    Rng rng(31);
    for (int i = 0; i < 200; ++i) {
        std::uint64_t addr =
            (rng.next() % cfg.capacityBytes()) & ~63ull;
        LineAddress loc = amap.decode(addr);
        EXPECT_EQ(amap.encode(loc), addr);
        EXPECT_LT(loc.bank, cfg.banks);
        EXPECT_LT(loc.subarray, cfg.subarraysPerBank);
        EXPECT_LT(loc.tile, cfg.tilesPerSubarray);
        EXPECT_LT(loc.dbc, cfg.dbcsPerTile);
        EXPECT_LT(loc.row, cfg.device.domainsPerWire);
    }
}

TEST(AddressMap, ConsecutiveLinesInterleaveBanks)
{
    MemoryConfig cfg;
    AddressMap amap(cfg);
    auto a0 = amap.decode(0);
    auto a1 = amap.decode(64);
    EXPECT_EQ(a1.bank, (a0.bank + 1) % cfg.banks);
}

TEST(AddressMap, RejectsOutOfRange)
{
    MemoryConfig cfg;
    AddressMap amap(cfg);
    EXPECT_THROW(amap.decode(cfg.capacityBytes()), FatalError);
    // The diagnostic prints the address in hex behind its 0x.
    try {
        (void)amap.decode(cfg.capacityBytes() + 64);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: address 0x40000040 beyond capacity");
    }
}

TEST(DwmMemory, ReadBackWrittenLine)
{
    DwmMainMemory mem;
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        std::uint64_t addr =
            (rng.next() % mem.config().capacityBytes()) & ~63ull;
        BitVector line(512);
        for (std::size_t b = 0; b < 512; ++b)
            line.set(b, rng.nextBool());
        mem.writeLine(addr, line);
        EXPECT_EQ(mem.readLine(addr), line) << "addr " << addr;
    }
}

TEST(DwmMemory, SparseFootprint)
{
    DwmMainMemory mem;
    mem.writeLine(0, BitVector(512, true));
    mem.writeLine(64, BitVector(512, true));
    EXPECT_EQ(mem.touchedDbcs(), 2u); // different banks
}

TEST(DwmMemory, AccessChargesShiftAwareTiming)
{
    DwmMainMemory mem;
    // First access to row 0 must shift from the initial port position.
    mem.readLine(0);
    auto first = mem.ledger().cycles();
    EXPECT_GT(mem.totalShifts(), 0u);
    // Re-reading the same row needs no further shifting: cheaper.
    mem.resetCosts();
    mem.readLine(0);
    EXPECT_LT(mem.ledger().cycles(), first);
    EXPECT_EQ(mem.ledger().cycles(), DdrTiming::dwm().readCycles(0));
}

TEST(DwmMemory, PimUnitIsPerSubarrayAndPersistent)
{
    DwmMainMemory mem;
    auto &u1 = mem.pimUnit(0, 0);
    auto &u2 = mem.pimUnit(0, 0);
    EXPECT_EQ(&u1, &u2);
    auto &u3 = mem.pimUnit(1, 0);
    EXPECT_NE(&u1, &u3);
    EXPECT_THROW(mem.pimUnit(32, 0), FatalError);
}

TEST(QueueModel, SingleItem)
{
    auto r = runGreedy(4, {{0, 100, 2}});
    EXPECT_EQ(r.makespanCycles, 102u);
}

TEST(QueueModel, ParallelServersOverlap)
{
    std::vector<QueueItem> items;
    for (std::size_t i = 0; i < 4; ++i)
        items.push_back({i, 100, 1});
    auto r = runGreedy(4, items);
    // Issue 4 commands, all four run concurrently.
    EXPECT_EQ(r.makespanCycles, 104u);
}

TEST(QueueModel, SameServerSerializes)
{
    std::vector<QueueItem> items(4, QueueItem{0, 100, 1});
    auto r = runGreedy(4, items);
    EXPECT_EQ(r.makespanCycles, 401u);
}

TEST(QueueModel, IssueBoundWhenCommandsDominate)
{
    std::vector<QueueItem> items;
    for (std::size_t i = 0; i < 1000; ++i)
        items.push_back({i, 5, 4});
    auto r = runGreedy(1000, items);
    EXPECT_EQ(r.makespanCycles, 4005u);
    EXPECT_GT(r.issueBoundFraction, 0.9);
}

TEST(QueueModel, UniformMatchesExplicitDispatch)
{
    for (auto [count, busy, cmds] :
         std::vector<std::tuple<std::uint64_t, std::uint64_t,
                                std::uint64_t>>{
             {100, 50, 2}, {7, 1000, 1}, {5000, 3, 4}, {64, 64, 8}}) {
        std::vector<QueueItem> items;
        for (std::uint64_t i = 0; i < count; ++i)
            items.push_back({static_cast<std::size_t>(i % 64), busy,
                             cmds});
        auto a = runGreedy(64, items);
        auto b = runUniform(64, count, busy, cmds);
        // The closed form is an upper-bound approximation; it must be
        // within a few percent of the exact schedule.
        EXPECT_GE(b.makespanCycles * 21 / 20 + 1, a.makespanCycles);
        EXPECT_LE(b.makespanCycles, a.makespanCycles * 21 / 20 + 1);
    }
}

} // namespace
} // namespace coruscant
