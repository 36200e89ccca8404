/**
 * @file
 * Bitmap-index query (Fig. 12): functional agreement across techniques
 * and the published latency relationships.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/bitmap/bitmap_index.hpp"
#include "arch/config.hpp"
#include "dwm/device_params.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

/** The per-bit synthesis the word-at-a-time one must reproduce. */
BitmapDatabase
perBitReference(std::size_t users, std::size_t weeks, std::uint64_t seed)
{
    BitmapDatabase db;
    db.users = users;
    db.male = BitVector(users);
    Rng rng(seed);
    for (std::size_t u = 0; u < users; ++u)
        db.male.set(u, rng.nextBool(0.5));
    for (std::size_t w = 0; w < weeks; ++w) {
        BitVector act(users);
        double p = 0.7 - 0.1 * static_cast<double>(w);
        for (std::size_t u = 0; u < users; ++u)
            act.set(u, rng.nextBool(p));
        db.activeWeek.push_back(std::move(act));
    }
    return db;
}

class BitmapQuery : public ::testing::Test
{
  protected:
    BitmapQuery()
        : db(BitmapDatabase::synthesize(1 << 17, 4, 99)), eng(db)
    {}

    BitmapDatabase db;
    BitmapQueryEngine eng;
};

TEST_F(BitmapQuery, AllTechniquesAgreeWithGolden)
{
    for (std::size_t w = 2; w <= 4; ++w) {
        std::uint64_t golden = eng.goldenCount(w);
        EXPECT_EQ(eng.runCpuDram(w).matches, golden) << "w=" << w;
        EXPECT_EQ(eng.runAmbit(w).matches, golden) << "w=" << w;
        EXPECT_EQ(eng.runElp2im(w).matches, golden) << "w=" << w;
        EXPECT_EQ(eng.runCoruscant(w).matches, golden) << "w=" << w;
    }
}

TEST_F(BitmapQuery, MatchCountDecreasesWithMoreCriteria)
{
    EXPECT_GE(eng.goldenCount(2), eng.goldenCount(3));
    EXPECT_GE(eng.goldenCount(3), eng.goldenCount(4));
}

TEST_F(BitmapQuery, CoruscantLatencyIsFlatInW)
{
    // The multi-operand TR makes the query latency independent of the
    // number of criteria (up to TRD operands).
    auto c2 = eng.runCoruscant(2).cycles;
    auto c3 = eng.runCoruscant(3).cycles;
    auto c4 = eng.runCoruscant(4).cycles;
    EXPECT_EQ(c2, c3);
    EXPECT_EQ(c3, c4);
}

TEST_F(BitmapQuery, DramPimLatencyGrowsLinearly)
{
    auto e2 = eng.runElp2im(2).cycles;
    auto e4 = eng.runElp2im(4).cycles;
    EXPECT_EQ(e4, 2 * e2);
}

TEST_F(BitmapQuery, SpeedupsOverElp2imMatchPaper)
{
    // Paper Sec. V-D: 1.6x, 2.2x, 3.4x for w = 2, 3, 4.
    double r2 = static_cast<double>(eng.runElp2im(2).cycles) /
                static_cast<double>(eng.runCoruscant(2).cycles);
    double r3 = static_cast<double>(eng.runElp2im(3).cycles) /
                static_cast<double>(eng.runCoruscant(3).cycles);
    double r4 = static_cast<double>(eng.runElp2im(4).cycles) /
                static_cast<double>(eng.runCoruscant(4).cycles);
    EXPECT_NEAR(r2, 1.6, 0.25);
    EXPECT_NEAR(r3, 2.2, 0.35);
    EXPECT_NEAR(r4, 3.4, 0.45);
    EXPECT_LT(r2, r3);
    EXPECT_LT(r3, r4);
}

TEST_F(BitmapQuery, Elp2imBeatsAmbit)
{
    double ratio = static_cast<double>(eng.runAmbit(3).cycles) /
                   static_cast<double>(eng.runElp2im(3).cycles);
    EXPECT_NEAR(ratio, 3.2, 0.5); // published ELP2IM advantage
}

TEST_F(BitmapQuery, EveryPimTechniqueBeatsCpu)
{
    for (std::size_t w = 2; w <= 4; ++w) {
        auto cpu = eng.runCpuDram(w).cycles;
        EXPECT_LT(eng.runAmbit(w).cycles, cpu);
        EXPECT_LT(eng.runElp2im(w).cycles, cpu);
        EXPECT_LT(eng.runCoruscant(w).cycles, cpu);
    }
}

TEST(BitmapQueryEdge, RejectsTooManyOperandsForTrd)
{
    auto db = BitmapDatabase::synthesize(1024, 4);
    BitmapQueryEngine eng(db);
    // w = 4 needs 5 operands; TRD = 3 cannot hold them.
    EXPECT_THROW(eng.runCoruscant(4, 3), FatalError);
    // But w = 2 (3 operands) fits TRD = 3.
    EXPECT_EQ(eng.runCoruscant(2, 3).matches, eng.goldenCount(2));
}

TEST(BitmapQueryEdge, RejectsAnEmptyDatabase)
{
    // Zero users would give zero row chunks, and the DRAM and
    // CORUSCANT chunk loops divide by the chunks in flight.
    EXPECT_THROW(BitmapDatabase::synthesize(0, 4), FatalError);
}

TEST(BitmapQueryEdge, RejectsAnOversizedDatabase)
{
    // Past kMaxUsers the bitmaps of a six-week table pass 1 GiB.
    EXPECT_THROW(
        BitmapDatabase::synthesize(BitmapDatabase::kMaxUsers + 1, 4),
        FatalError);
}

TEST(BitmapQueryEdge, NonMultipleOfRowUsers)
{
    auto db = BitmapDatabase::synthesize(1000, 3, 5);
    BitmapQueryEngine eng(db);
    EXPECT_EQ(eng.runCoruscant(3).matches, eng.goldenCount(3));
    EXPECT_EQ(eng.runAmbit(3).matches, eng.goldenCount(3));
}

TEST(BitmapQueryEdge, SynthesizeMatchesPerBitReference)
{
    // Ragged user counts end a bitmap inside a word: the next bitmap
    // only matches if the last word drew just the bits it holds.  Six
    // weeks reach p = 0.2.
    for (std::size_t users : {1, 63, 64, 65, 1000, 65537}) {
        SCOPED_TRACE(::testing::Message() << "users " << users);
        const auto db = BitmapDatabase::synthesize(users, 6, 7);
        const auto ref = perBitReference(users, 6, 7);
        EXPECT_EQ(db.users, ref.users);
        EXPECT_EQ(db.male, ref.male);
        ASSERT_EQ(db.activeWeek.size(), ref.activeWeek.size());
        for (std::size_t w = 0; w < ref.activeWeek.size(); ++w)
            EXPECT_EQ(db.activeWeek[w], ref.activeWeek[w]) << "week " << w;
    }
}

TEST(BitmapQueryEdge, RaggedUserCountsMatchGolden)
{
    // User counts on either side of a word, a 512-bit DBC row and a
    // 65536-bit DRAM row, so the last chunk of every technique is
    // full, one bit long or ends in a partial word; w = 6 fills the
    // whole TRD-7 window.
    for (std::size_t users : {1, 63, 64, 65, 511, 512, 513, 65535, 65536,
                              65537}) {
        auto db = BitmapDatabase::synthesize(users, 6, 3);
        BitmapQueryEngine eng(db);
        for (std::size_t w = 1; w <= 6; ++w) {
            SCOPED_TRACE(::testing::Message()
                         << "users " << users << " w " << w);
            const std::uint64_t golden = eng.goldenCount(w);
            EXPECT_EQ(eng.runCpuDram(w).matches, golden);
            EXPECT_EQ(eng.runAmbit(w).matches, golden);
            EXPECT_EQ(eng.runElp2im(w).matches, golden);
            EXPECT_EQ(eng.runCoruscant(w).matches, golden);
        }
    }
}

TEST(BitmapQueryEdge, SubarrayStepsMatchGoldenAndChunkCycles)
{
    // The CORUSCANT query steps a subarray's 16 PIM DBCs, 8192 bits,
    // at a time.  User counts one bit short of a step, on it and one
    // bit past it, one bit into a third step, and a last step ending
    // one bit short of a DBC: the matches equal the golden count, and
    // the cycles stay the closed form over 512-bit chunks.
    const DeviceParams dev = DeviceParams::withTrd(7);
    // The calibrated cpim round-trip per chunk, then the window
    // alignment, the TR and the write-back.
    const std::uint64_t chunk_cycles =
        54 + dev.leftPortRow() + dev.trCycles + dev.writeCycles;
    const std::uint64_t pim_dbcs = 2048 * 16;
    for (std::size_t users : {8191, 8192, 8193, 16385, 3 * 8192 + 511}) {
        const auto db = BitmapDatabase::synthesize(users, 6, 13);
        const BitmapQueryEngine eng(db);
        const std::uint64_t chunks = (users + 511) / 512;
        const std::uint64_t concurrent = std::min(chunks, pim_dbcs);
        const std::uint64_t waves = (chunks + concurrent - 1) / concurrent;
        for (std::size_t w = 1; w <= 6; ++w) {
            SCOPED_TRACE(::testing::Message()
                         << "users " << users << " w " << w);
            const BitmapQueryResult r = eng.runCoruscant(w);
            EXPECT_EQ(r.matches, eng.goldenCount(w));
            EXPECT_EQ(r.cycles, waves * chunk_cycles);
        }
    }
}

TEST(BitmapQueryEdge, TwoCoruscantWavesPastThePimDbcCount)
{
    // One chunk more than the memory's 32768 PIM DBCs: the last chunk
    // runs in a second wave, so the query takes twice one chunk's
    // closed form.
    const MemoryConfig mem;
    const std::size_t users = mem.totalPimDbcs() * 512 + 1;
    const DeviceParams dev = DeviceParams::withTrd(7);
    const std::uint64_t chunk_cycles =
        54 + dev.leftPortRow() + dev.trCycles + dev.writeCycles;
    const auto db = BitmapDatabase::synthesize(users, 2, 17);
    const BitmapQueryEngine eng(db);
    const BitmapQueryResult r = eng.runCoruscant(2);
    EXPECT_EQ(r.matches, eng.goldenCount(2));
    EXPECT_EQ(r.cycles, 2 * chunk_cycles);
}

/**
 * The query's count as the CPU query took it before its one-pass
 * form: a copy of the male bitmap, one AND pass per week, then a
 * popcount.
 */
std::uint64_t
copyAndFoldCount(const BitmapDatabase &db, std::size_t weeks)
{
    BitVector acc = db.male;
    for (std::size_t w = 0; w < weeks; ++w)
        acc &= db.activeWeek[w];
    return acc.popcount();
}

TEST(BitmapQueryEdge, GoldenCountMatchesCopyAndFold)
{
    // goldenCount ANDs and counts a block of words at a time: user
    // counts one bit either side of a word multiple, of its 256-word
    // block (16384 bits) and of a 65536-bit DRAM row, at every w.
    for (std::size_t users : {1, 63, 65, 1023, 1025, 16383, 16385, 32767,
                              65535, 65537}) {
        const auto db = BitmapDatabase::synthesize(users, 6, 21);
        const BitmapQueryEngine eng(db);
        for (std::size_t w = 1; w <= 6; ++w) {
            SCOPED_TRACE(::testing::Message()
                         << "users " << users << " w " << w);
            EXPECT_EQ(eng.goldenCount(w), copyAndFoldCount(db, w));
        }
    }
}

} // namespace
} // namespace coruscant
