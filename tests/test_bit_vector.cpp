/**
 * @file
 * Unit tests for BitVector.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/bit_vector.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

BitVector
randomBits(Rng &rng, std::size_t size)
{
    BitVector v(size);
    for (std::size_t i = 0; i < size; ++i)
        v.set(i, rng.nextBool());
    return v;
}

/** Whether the bits past size() are zero, seen through popcount. */
bool
paddingClear(const BitVector &v)
{
    return (~v).popcount() == v.size() - v.popcount();
}

TEST(BitVector, DefaultIsEmpty)
{
    BitVector v;
    EXPECT_EQ(v.size(), 0u);
    EXPECT_TRUE(v.empty());
}

TEST(BitVector, ConstructAllZero)
{
    BitVector v(100);
    EXPECT_EQ(v.size(), 100u);
    EXPECT_EQ(v.popcount(), 0u);
    EXPECT_FALSE(v.any());
}

TEST(BitVector, ConstructAllOne)
{
    BitVector v(100, true);
    EXPECT_EQ(v.popcount(), 100u);
    EXPECT_TRUE(v.all());
}

TEST(BitVector, RejectsSizesWhoseWordCountWraps)
{
    // (size + 63) / 64 wrapped to zero words for these sizes, so the
    // vector kept the size but no storage, and set() wrote past it.
    // Both throw before allocating.
    EXPECT_THROW(BitVector(SIZE_MAX), std::length_error);
    EXPECT_THROW(BitVector(SIZE_MAX - 62), std::length_error);
}

TEST(BitVector, SetAndGet)
{
    BitVector v(130);
    v.set(0, true);
    v.set(64, true);
    v.set(129, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_FALSE(v.get(1));
    EXPECT_EQ(v.popcount(), 3u);
    v.set(64, false);
    EXPECT_FALSE(v.get(64));
    EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVector, FromUint64RoundTrip)
{
    auto v = BitVector::fromUint64(16, 0xBEEF);
    EXPECT_EQ(v.toUint64(), 0xBEEFu);
    EXPECT_EQ(v.size(), 16u);
}

TEST(BitVector, FromUint64Truncates)
{
    auto v = BitVector::fromUint64(8, 0x1FF);
    EXPECT_EQ(v.toUint64(), 0xFFu);
}

TEST(BitVector, FromStringMsbFirst)
{
    auto v = BitVector::fromString("1010");
    EXPECT_EQ(v.size(), 4u);
    EXPECT_TRUE(v.get(1));
    EXPECT_TRUE(v.get(3));
    EXPECT_FALSE(v.get(0));
    EXPECT_EQ(v.toString(), "1010");
}

TEST(BitVector, ShiftLeftSmall)
{
    auto v = BitVector::fromUint64(16, 0x00FF);
    EXPECT_EQ(v.shiftedLeft(4).toUint64(), 0x0FF0u);
}

TEST(BitVector, ShiftLeftDropsHighBits)
{
    auto v = BitVector::fromUint64(8, 0xFF);
    EXPECT_EQ(v.shiftedLeft(4).toUint64(), 0xF0u);
}

TEST(BitVector, ShiftRightSmall)
{
    auto v = BitVector::fromUint64(16, 0x0FF0);
    EXPECT_EQ(v.shiftedRight(4).toUint64(), 0x00FFu);
}

TEST(BitVector, ShiftAcrossWordBoundary)
{
    BitVector v(130);
    v.set(63, true);
    auto l = v.shiftedLeft(1);
    EXPECT_TRUE(l.get(64));
    EXPECT_EQ(l.popcount(), 1u);
    auto r = l.shiftedRight(1);
    EXPECT_TRUE(r.get(63));
}

TEST(BitVector, ShiftByWholeSizeGivesZero)
{
    BitVector v(70, true);
    EXPECT_EQ(v.shiftedLeft(70).popcount(), 0u);
    EXPECT_EQ(v.shiftedRight(70).popcount(), 0u);
    EXPECT_EQ(v.shiftedLeft(200).popcount(), 0u);
}

TEST(BitVector, BitwiseOperators)
{
    auto a = BitVector::fromUint64(8, 0b11001100);
    auto b = BitVector::fromUint64(8, 0b10101010);
    EXPECT_EQ((a & b).toUint64(), 0b10001000u);
    EXPECT_EQ((a | b).toUint64(), 0b11101110u);
    EXPECT_EQ((a ^ b).toUint64(), 0b01100110u);
    EXPECT_EQ((~a).toUint64(), 0b00110011u);
}

TEST(BitVector, NotRespectsPadding)
{
    BitVector v(70);
    auto n = ~v;
    EXPECT_EQ(n.popcount(), 70u);
    EXPECT_TRUE(n.all());
}

TEST(BitVector, SliceAndInsert)
{
    auto v = BitVector::fromUint64(32, 0xDEADBEEF);
    EXPECT_EQ(v.sliceUint64(8, 16), 0xADBEu);
    auto s = v.slice(16, 16);
    EXPECT_EQ(s.toUint64(), 0xDEADu);
    BitVector w(32);
    w.insert(16, s);
    EXPECT_EQ(w.toUint64(), 0xDEAD0000u);
    w.insertUint64(0, 16, 0xBEEF);
    EXPECT_EQ(w.toUint64(), 0xDEADBEEFu);
}

TEST(BitVector, RangeChecksPanicInEveryBuild)
{
    BitVector v(100);
    EXPECT_THROW(v.slice(90, 11), PanicError);
    EXPECT_THROW(v.slice(101, 0), PanicError);
    EXPECT_THROW(v.slice(1, SIZE_MAX), PanicError); // offset+width wraps
    EXPECT_THROW(v.insert(90, BitVector(11)), PanicError);
    EXPECT_THROW(v.sliceUint64(40, 65), PanicError);
    EXPECT_THROW(v.sliceUint64(90, 11), PanicError);
    EXPECT_THROW(v.insertUint64(0, 65, 1), PanicError);
    EXPECT_THROW(v.insertUint64(99, 2, 1), PanicError);
    EXPECT_THROW(v.toUint64(), PanicError);
    EXPECT_THROW(v &= BitVector(99), PanicError);
    EXPECT_THROW(v |= BitVector(101), PanicError);
    EXPECT_THROW(v ^ BitVector(64), PanicError);
    // The boundaries themselves are in range.
    EXPECT_EQ(v.slice(100, 0).size(), 0u);
    EXPECT_EQ(v.sliceUint64(36, 64), 0u);
    EXPECT_EQ(BitVector(64, true).toUint64(), ~0ULL);
}

TEST(BitVector, EqualityRequiresSameSize)
{
    BitVector a(8), b(9);
    EXPECT_NE(a, b);
    BitVector c(8);
    EXPECT_EQ(a, c);
}

TEST(BitVector, FillResetsAllBits)
{
    BitVector v(100);
    v.fill(true);
    EXPECT_TRUE(v.all());
    v.fill(false);
    EXPECT_FALSE(v.any());
}

/**
 * Property: the word-level range operations agree with a bit-by-bit
 * reference at random offsets, for widths on and around the word
 * boundaries, and never set a bit past size().
 */
TEST(BitVectorProperty, RangeOpsMatchBitByBit)
{
    Rng rng(11);
    const std::size_t widths[] = {0, 1, 63, 64, 65, 511, 512};
    for (std::size_t width : widths) {
        for (int iter = 0; iter < 40; ++iter) {
            std::size_t size = width + rng.nextBelow(200);
            std::size_t off = rng.nextBelow(size - width + 1);
            BitVector v = randomBits(rng, size);

            BitVector s = v.slice(off, width);
            ASSERT_EQ(s.size(), width);
            for (std::size_t i = 0; i < width; ++i)
                ASSERT_EQ(s.get(i), v.get(off + i))
                    << "slice width " << width << " offset " << off;
            EXPECT_EQ((~s).popcount(), width - s.popcount());

            BitVector src = randomBits(rng, width);
            BitVector ins = v;
            ins.insert(off, src);
            for (std::size_t i = 0; i < size; ++i) {
                bool in_range = i >= off && i < off + width;
                ASSERT_EQ(ins.get(i), in_range ? src.get(i - off) : v.get(i))
                    << "insert width " << width << " offset " << off;
            }
            EXPECT_TRUE(paddingClear(ins));

            if (width > 64)
                continue;
            std::uint64_t ref = 0;
            for (std::size_t i = 0; i < width; ++i)
                ref |= static_cast<std::uint64_t>(v.get(off + i)) << i;
            EXPECT_EQ(v.sliceUint64(off, width), ref);

            std::uint64_t value = rng.next(); // high bits must be ignored
            BitVector packed = v;
            packed.insertUint64(off, width, value);
            for (std::size_t i = 0; i < size; ++i) {
                bool in_range = i >= off && i < off + width;
                ASSERT_EQ(packed.get(i),
                          in_range ? ((value >> (i - off)) & 1) != 0
                                   : v.get(i))
                    << "insertUint64 width " << width << " offset " << off;
            }
            EXPECT_TRUE(paddingClear(packed));
        }
    }
}

/** Property: shifting left then right by n restores low bits. */
TEST(BitVectorProperty, ShiftRoundTrip)
{
    Rng rng(42);
    for (int iter = 0; iter < 50; ++iter) {
        std::size_t size = 1 + rng.nextBelow(200);
        BitVector v(size);
        for (std::size_t i = 0; i < size; ++i)
            v.set(i, rng.nextBool());
        std::size_t n = rng.nextBelow(size);
        auto round = v.shiftedLeft(n).shiftedRight(n);
        // High n bits are lost; low size-n bits must be intact.
        for (std::size_t i = 0; i + n < size; ++i)
            EXPECT_EQ(round.get(i), v.get(i)) << "bit " << i;
        for (std::size_t i = size - n; i < size; ++i)
            EXPECT_FALSE(round.get(i));
    }
}

/** Property: popcount(a ^ b) == popcount(a) + popcount(b) - 2*popcount(a&b). */
TEST(BitVectorProperty, PopcountXorIdentity)
{
    Rng rng(7);
    for (int iter = 0; iter < 50; ++iter) {
        std::size_t size = 1 + rng.nextBelow(300);
        BitVector a(size), b(size);
        for (std::size_t i = 0; i < size; ++i) {
            a.set(i, rng.nextBool());
            b.set(i, rng.nextBool());
        }
        EXPECT_EQ((a ^ b).popcount(),
                  a.popcount() + b.popcount() - 2 * (a & b).popcount());
    }
}

/** Sizes around the inline/heap storage boundary. */
constexpr std::size_t kStorageSizes[] = {
    577, BitVector::inlineBits, BitVector::inlineBits + 1,
    std::size_t{4} << 20};

/** @p v's storage words, for comparisons that skip ==. */
std::vector<std::uint64_t>
bitsOf(const BitVector &v)
{
    std::vector<std::uint64_t> out(v.numWords());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = v.word(i);
    return out;
}

/** @p size random bits, a word at a time (cheap at 4 Mi bits). */
BitVector
randomWords(Rng &rng, std::size_t size)
{
    BitVector v(size);
    v.setWords([&rng](std::size_t) { return rng.next(); });
    return v;
}

TEST(BitVectorStorage, InlineCapacityCoversAGuardedSecdedRow)
{
    // 512 data wires + 64 SECDED check lanes + 1 guard wire.
    EXPECT_GE(BitVector::inlineBits, 577u);
}

TEST(BitVectorStorage, CopyAndMoveAcrossTheInlineBoundary)
{
    Rng rng(0x577);
    for (std::size_t from : kStorageSizes) {
        for (std::size_t to : kStorageSizes) {
            SCOPED_TRACE(::testing::Message() << from << " -> " << to);
            const BitVector src = randomWords(rng, from);
            const std::vector<std::uint64_t> want = bitsOf(src);

            BitVector copy(src);
            EXPECT_EQ(bitsOf(copy), want);

            BitVector assigned = randomWords(rng, to);
            assigned = src;
            EXPECT_EQ(assigned.size(), from);
            EXPECT_EQ(bitsOf(assigned), want);
            EXPECT_TRUE(paddingClear(assigned));

            BitVector moved_from(src);
            BitVector moved(std::move(moved_from));
            EXPECT_EQ(bitsOf(moved), want);

            BitVector move_assigned = randomWords(rng, to);
            BitVector tmp(src);
            move_assigned = std::move(tmp);
            EXPECT_EQ(move_assigned.size(), from);
            EXPECT_EQ(bitsOf(move_assigned), want);
            EXPECT_TRUE(paddingClear(move_assigned));

            // Moved-from vectors stay usable.
            moved_from = src;
            EXPECT_EQ(bitsOf(moved_from), want);
            tmp = BitVector(to, true);
            EXPECT_EQ(tmp.popcount(), to);

            // Growing or shrinking a reused vector keeps it independent.
            assigned.set(0, !assigned.get(0));
            EXPECT_EQ(bitsOf(src), want);
        }
    }
}

TEST(BitVectorStorage, SelfAssignmentKeepsContents)
{
    Rng rng(0x5e1f);
    for (std::size_t size : kStorageSizes) {
        BitVector v = randomWords(rng, size);
        const std::vector<std::uint64_t> want = bitsOf(v);
        BitVector &alias = v;
        v = alias;
        EXPECT_EQ(bitsOf(v), want) << size;
        v = std::move(alias);
        EXPECT_EQ(bitsOf(v), want) << size;
    }
}

TEST(BitVectorStorage, WordOpsAcrossTheInlineBoundary)
{
    Rng rng(0xb0d);
    for (std::size_t size : kStorageSizes) {
        BitVector a = randomWords(rng, size), b = randomWords(rng, size);
        BitVector x = a ^ b;
        std::size_t diff = 0;
        for (std::size_t i = 0; i < size; ++i)
            diff += a.get(i) != b.get(i);
        EXPECT_EQ(x.popcount(), diff) << size;
        EXPECT_TRUE(paddingClear(a));
        EXPECT_TRUE(paddingClear(~x));
        EXPECT_EQ(a.shiftedLeft(size - 1).popcount(), a.get(0) ? 1u : 0u);
        EXPECT_EQ(a.slice(size - 65, 65), a.shiftedRight(size - 65).slice(0, 65));
    }
}

/** The ones of @p v counted bit by bit, through get(). */
std::size_t
perBitCount(const BitVector &v)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < v.size(); ++i)
        n += v.get(i);
    return n;
}

TEST(BitVector, PopcountMatchesPerBitCount)
{
    // Word-boundary and row sizes: empty, partial and whole words, a
    // 512-wire row, a guarded SECDED row, the inline limit and past
    // it, and a DRAM row.
    Rng rng(0x9097);
    for (std::size_t size :
         {0u, 1u, 63u, 64u, 65u, 511u, 512u, 577u, 640u, 641u, 65536u}) {
        SCOPED_TRACE(size);
        const BitVector random = randomBits(rng, size);
        EXPECT_EQ(random.popcount(), perBitCount(random));
        const BitVector ones(size, true);
        EXPECT_EQ(ones.popcount(), size);
        EXPECT_EQ(perBitCount(ones), size);
    }
}

TEST(BitVector, SetWordsClearsPadding)
{
    for (std::size_t size : {70u, 577u}) {
        SCOPED_TRACE(size);
        BitVector v(size);
        std::size_t calls = 0;
        v.setWords([&calls](std::size_t i) {
            EXPECT_EQ(i, calls++); // in order, once per word
            return ~0ULL;
        });
        EXPECT_EQ(calls, v.numWords());
        EXPECT_TRUE(paddingClear(v));
        EXPECT_EQ(v.word(v.numWords() - 1) >> (size % 64), 0u);
        EXPECT_EQ(v.popcount(), size);
        EXPECT_EQ(v, BitVector(size, true));
    }
}

TEST(BitVector, TruncateMatchesSlice)
{
    // Inside a word, at a word edge, and across the inline boundary.
    Rng rng(41);
    for (auto [size, width] : {std::pair<std::size_t, std::size_t>{73, 64},
                               {73, 5},
                               {577, 512},
                               {700, 577},
                               {700, 700},
                               {9, 0}}) {
        SCOPED_TRACE(size);
        BitVector v(size);
        v.setWords([&rng](std::size_t) { return rng.next(); });
        const BitVector want = v.slice(0, width);
        v.truncate(width);
        EXPECT_EQ(v, want);
        EXPECT_TRUE(paddingClear(v));
    }
    BitVector v(10);
    EXPECT_THROW(v.truncate(11), PanicError);
}

TEST(BitVector, CarrySavePopcountMatchesPerBitCountAtBlockEdges)
{
    // The carry-save count takes 16 words (1024 bits) a block and the
    // words left over one at a time: one bit short of a block, on it
    // and one bit past it, two blocks, a 8192-wire subarray step and
    // one bit short of a DRAM row.
    Rng rng(0xc5a);
    for (std::size_t size :
         {1023u, 1024u, 1025u, 2047u, 2048u, 8191u, 8192u, 65535u}) {
        SCOPED_TRACE(size);
        BitVector random(size);
        random.setWords([&rng](std::size_t) { return rng.next(); });
        EXPECT_EQ(random.popcount(), perBitCount(random));
        const BitVector ones(size, true);
        EXPECT_EQ(ones.popcount(), size);
    }
}

TEST(BitVector, PopcountWordsCountsEveryBlockAndTailSplit)
{
    // Every span length from empty to three blocks and a word, at a
    // few starting words, against the per-bit count of the same bits.
    Rng rng(0xb10c);
    BitVector source(64 * 60);
    source.setWords([&rng](std::size_t) { return rng.next(); });
    for (std::size_t first : {0u, 1u, 7u}) {
        for (std::size_t len = 0; len <= 49; ++len) {
            SCOPED_TRACE(::testing::Message()
                         << "first " << first << " words " << len);
            const BitVector bits = source.slice(64 * first, 64 * len);
            EXPECT_EQ(popcountWords(source.words().subspan(first, len)),
                      perBitCount(bits));
        }
    }
}

TEST(BitVector, AssignWordsZeroExtendsAndDrops)
{
    // A span shorter than the vector leaves zeros past its end; a
    // longer one is cut at size(), padding bits included, whatever the
    // vector held before.
    Rng rng(0xa55);
    for (std::size_t size : {1u, 63u, 64u, 65u, 577u, 641u, 1025u}) {
        const std::size_t n_words = (size + 63) / 64;
        BitVector source(64 * (n_words + 1));
        source.setWords([&rng](std::size_t) { return rng.next(); });
        for (std::size_t keep = 0; keep <= n_words + 1; ++keep) {
            SCOPED_TRACE(::testing::Message()
                         << "size " << size << " keep " << keep);
            BitVector v(size, true);
            v.assignWords(source.words().first(keep));
            for (std::size_t i = 0; i < size; ++i)
                ASSERT_EQ(v.get(i), i < 64 * keep && source.get(i)) << i;
            EXPECT_TRUE(paddingClear(v));
        }
    }
}

} // namespace
} // namespace coruscant
