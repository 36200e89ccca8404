/**
 * @file
 * SECDED proof obligations: exhaustive single-bit correction and
 * double-bit detection over whole codewords, golden check-bit vectors
 * locking the layout, and the line-level (72, 64) organization.
 *
 * "Exhaustive" here is over error *positions* (every 1-bit pattern and
 * every 2-bit pattern of the codeword), with data content exhaustive
 * for the 8-bit code and adversarial/random for the wider ones.  These
 * are the properties the serving-side classification (one flip ->
 * corrected, two -> DUE, never miscorrect) relies on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "arch/dwm_memory.hpp"
#include "reliability/ecc/secded.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

BitVector
wordFrom(std::size_t bits, std::uint64_t value)
{
    BitVector v(bits);
    for (std::size_t i = 0; i < bits && i < 64; ++i)
        v.set(i, (value >> i) & 1);
    return v;
}

/** Flat codeword bit @p pos of ([data | check]) toggled in place. */
void
flipCodeBit(BitVector &data, BitVector &check, std::size_t pos)
{
    if (pos < data.size())
        data.set(pos, !data.get(pos));
    else
        check.set(pos - data.size(), !check.get(pos - data.size()));
}

BitVector
randomBitsOf(Rng &rng, std::size_t bits)
{
    BitVector v(bits);
    for (std::size_t i = 0; i < bits; ++i)
        v.set(i, rng.nextBool());
    return v;
}

/** checkWord() of @p data as a check-lane vector. */
BitVector
checkOf(const SecdedCode &code, const BitVector &data)
{
    return BitVector::fromUint64(code.checkBits(),
                                 code.checkWord(data.toUint64()));
}

/** decodeWord() on vector operands, corrected in place. */
SecdedCode::Decoded
decodeBits(const SecdedCode &code, BitVector &data, BitVector &check)
{
    std::uint64_t d = data.toUint64();
    std::uint64_t c = check.toUint64();
    SecdedCode::Decoded out = code.decodeWord(d, c);
    data = BitVector::fromUint64(data.size(), d);
    check = BitVector::fromUint64(check.size(), c);
    return out;
}

/** Data patterns that stress the parity structure of a @p bits code. */
std::vector<BitVector>
patternsFor(std::size_t bits)
{
    std::vector<BitVector> out;
    out.push_back(BitVector(bits)); // all zero
    BitVector ones(bits);
    for (std::size_t i = 0; i < bits; ++i)
        ones.set(i, true);
    out.push_back(ones);
    out.push_back(wordFrom(bits, 0xa5a5a5a5a5a5a5a5ULL));
    Rng rng(0x5ecded ^ bits);
    for (int r = 0; r < 3; ++r) {
        BitVector v(bits);
        for (std::size_t i = 0; i < bits; ++i)
            v.set(i, rng.nextBool());
        out.push_back(v);
    }
    return out;
}

TEST(Secded, CodeGeometryMatchesTheory)
{
    // r check bits cover 2^r - r - 1 data bits; plus overall parity.
    EXPECT_EQ(SecdedCode(8).checkBits(), 5u);   // (13, 8)
    EXPECT_EQ(SecdedCode(16).checkBits(), 6u);  // (22, 16)
    EXPECT_EQ(SecdedCode(32).checkBits(), 7u);  // (39, 32)
    EXPECT_EQ(SecdedCode(64).checkBits(), 8u);  // (72, 64) classic
    EXPECT_EQ(SecdedCode(64).codeBits(), 72u);

    LineSecded line(512, 64);
    EXPECT_EQ(line.words(), 8u);
    EXPECT_EQ(line.checkLanes(), 64u); // 12.5 % lane overhead
}

TEST(Secded, GoldenCheckVectorsLockTheLayout)
{
    // Generated once from the reference construction; any layout or
    // parity-equation change must be deliberate enough to re-derive
    // these.
    struct Golden
    {
        std::size_t bits;
        std::uint64_t data;
        std::uint64_t check;
    };
    const Golden golden[] = {
        {8, 0x0000000000000000ULL, 0x00},
        {8, 0x00000000000000ffULL, 0x03},
        {8, 0x00000000000000a5ULL, 0x03},
        {8, 0x000000000000003cULL, 0x12},
        {16, 0x000000000000beefULL, 0x0e},
        {32, 0x00000000deadbeefULL, 0x63},
        {64, 0x0123456789abcdefULL, 0x9c},
        {64, 0xffffffffffffffffULL, 0xff},
        {64, 0x0000000000000001ULL, 0x83},
        {64, 0x8000000000000000ULL, 0xc7},
    };
    for (const Golden &g : golden) {
        SecdedCode code(g.bits);
        BitVector check = checkOf(code, wordFrom(g.bits, g.data));
        std::uint64_t got = 0;
        for (std::size_t i = 0; i < check.size(); ++i)
            if (check.get(i))
                got |= std::uint64_t{1} << i;
        EXPECT_EQ(got, g.check)
            << g.bits << "-bit data 0x" << std::hex << g.data;
    }
}

TEST(Secded, CleanCodewordsDecodeClean)
{
    for (std::size_t bits : {8u, 16u, 32u, 64u}) {
        SecdedCode code(bits);
        for (const BitVector &data : patternsFor(bits)) {
            BitVector d = data;
            BitVector c = checkOf(code, data);
            SecdedCode::Decoded r = decodeBits(code, d, c);
            EXPECT_EQ(r.status, EccStatus::Clean);
            EXPECT_EQ(d, data);
        }
    }
}

TEST(Secded, EverySingleBitErrorCorrectsInPlace)
{
    for (std::size_t bits : {8u, 16u, 32u, 64u}) {
        SecdedCode code(bits);
        for (const BitVector &data : patternsFor(bits)) {
            BitVector goldenCheck = checkOf(code, data);
            for (std::size_t pos = 0; pos < code.codeBits(); ++pos) {
                BitVector d = data;
                BitVector c = goldenCheck;
                flipCodeBit(d, c, pos);
                SecdedCode::Decoded r = decodeBits(code, d, c);
                ASSERT_EQ(r.status, EccStatus::Corrected)
                    << bits << "-bit code, flipped bit " << pos;
                EXPECT_EQ(r.correctedBit, pos);
                EXPECT_EQ(d, data);
                EXPECT_EQ(c, goldenCheck);
            }
        }
    }
}

TEST(Secded, EveryDoubleBitErrorDetectsAndNeverMiscorrects)
{
    for (std::size_t bits : {8u, 16u, 32u, 64u}) {
        SecdedCode code(bits);
        for (const BitVector &data : patternsFor(bits)) {
            BitVector goldenCheck = checkOf(code, data);
            for (std::size_t a = 0; a < code.codeBits(); ++a) {
                for (std::size_t b = a + 1; b < code.codeBits(); ++b) {
                    BitVector d = data;
                    BitVector c = goldenCheck;
                    flipCodeBit(d, c, a);
                    flipCodeBit(d, c, b);
                    BitVector corruptD = d;
                    BitVector corruptC = c;
                    SecdedCode::Decoded r = decodeBits(code, d, c);
                    ASSERT_EQ(r.status, EccStatus::Uncorrectable)
                        << bits << "-bit code, flipped " << a << ","
                        << b;
                    // Never touches the word: no miscorrection that
                    // would turn a detectable error into a third flip.
                    EXPECT_EQ(d, corruptD);
                    EXPECT_EQ(c, corruptC);
                }
            }
        }
    }
}

TEST(Secded, ExhaustiveDataContentForTheEightBitCode)
{
    // All 256 words x all 13 single positions, plus all 78 pairs.
    SecdedCode code(8);
    for (unsigned value = 0; value < 256; ++value) {
        BitVector data = wordFrom(8, value);
        BitVector goldenCheck = checkOf(code, data);
        for (std::size_t pos = 0; pos < code.codeBits(); ++pos) {
            BitVector d = data;
            BitVector c = goldenCheck;
            flipCodeBit(d, c, pos);
            SecdedCode::Decoded r = decodeBits(code, d, c);
            ASSERT_EQ(r.status, EccStatus::Corrected);
            ASSERT_EQ(d, data);
        }
        for (std::size_t a = 0; a < code.codeBits(); ++a) {
            for (std::size_t b = a + 1; b < code.codeBits(); ++b) {
                BitVector d = data;
                BitVector c = goldenCheck;
                flipCodeBit(d, c, a);
                flipCodeBit(d, c, b);
                ASSERT_EQ(decodeBits(code, d, c).status,
                          EccStatus::Uncorrectable);
            }
        }
    }
}

TEST(Secded, LineRoundTripAndPerWordCorrection)
{
    LineSecded line(512, 64);
    Rng rng(0x11e5ecd);
    // The stored row: 512 data wires, 64 check lanes, one guard wire.
    BitVector stored = randomBitsOf(rng, 512 + line.checkLanes() + 1);
    line.encode(stored);

    // Clean round trip.
    {
        BitVector r = stored;
        LineSecded::Result res = line.correct(r);
        EXPECT_EQ(res.status(), EccStatus::Clean);
        EXPECT_EQ(r, stored);
    }

    // One flip in every word: eight independent corrections.
    {
        BitVector r = stored;
        for (std::size_t w = 0; w < line.words(); ++w) {
            std::size_t bit = w * 64 + (rng.next() % 64);
            r.set(bit, !r.get(bit));
        }
        LineSecded::Result res = line.correct(r);
        EXPECT_EQ(res.correctedWords, 8u);
        EXPECT_EQ(res.uncorrectableWords, 0u);
        EXPECT_EQ(r, stored);
    }

    // A double flip confined to one word poisons only that word.
    {
        BitVector r = stored;
        r.set(3 * 64 + 5, !r.get(3 * 64 + 5));
        r.set(3 * 64 + 41, !r.get(3 * 64 + 41));
        r.set(6 * 64 + 7, !r.get(6 * 64 + 7)); // single, elsewhere
        LineSecded::Result res = line.correct(r);
        EXPECT_EQ(res.correctedWords, 1u);
        EXPECT_EQ(res.uncorrectableWords, 1u);
        EXPECT_EQ(res.status(), EccStatus::Uncorrectable);
        // The singly-hit word is restored.
        EXPECT_EQ(r.slice(6 * 64, 64), stored.slice(6 * 64, 64));
    }

    // A flip in a word's check lane is corrected in the lane.
    {
        BitVector r = stored;
        std::size_t lane = 512 + 5 * 8 + 3;
        r.set(lane, !r.get(lane));
        LineSecded::Result res = line.correct(r);
        EXPECT_EQ(res.correctedWords, 1u);
        EXPECT_EQ(r, stored);
    }
}

/**
 * The extended Hamming code spelled out bit by bit: explicit
 * position tables, one BitVector access per codeword bit.  The
 * popcount/mask implementation must agree with it on every input.
 */
class BitSerialSecded
{
  public:
    explicit BitSerialSecded(std::size_t data_bits) : dataBits(data_bits)
    {
        while ((std::size_t{1} << hamming) < data_bits + hamming + 1)
            ++hamming;
        posToFlat.assign(data_bits + hamming + 1, 0);
        std::size_t next_data = 0, next_check = 0;
        for (std::size_t pos = 1; pos <= data_bits + hamming; ++pos) {
            if ((pos & (pos - 1)) == 0) {
                posToFlat[pos] = data_bits + next_check++;
            } else {
                posToFlat[pos] = next_data++;
                dataPos.push_back(pos);
            }
        }
    }

    BitVector
    check(const BitVector &data) const
    {
        std::size_t acc = 0, ones = 0;
        for (std::size_t i = 0; i < dataBits; ++i) {
            if (data.get(i)) {
                acc ^= dataPos[i];
                ++ones;
            }
        }
        BitVector c(hamming + 1);
        for (std::size_t k = 0; k < hamming; ++k) {
            c.set(k, (acc >> k) & 1);
            ones += (acc >> k) & 1;
        }
        c.set(hamming, ones & 1);
        return c;
    }

    SecdedCode::Decoded
    decode(BitVector &data, BitVector &c) const
    {
        std::size_t syndrome = 0, ones = 0;
        for (std::size_t i = 0; i < dataBits; ++i) {
            if (data.get(i)) {
                syndrome ^= dataPos[i];
                ++ones;
            }
        }
        for (std::size_t k = 0; k <= hamming; ++k) {
            if (c.get(k)) {
                if (k < hamming)
                    syndrome ^= std::size_t{1} << k;
                ++ones;
            }
        }
        bool odd = ones & 1;
        SecdedCode::Decoded out;
        if (syndrome == 0 && !odd)
            return out;
        if (!odd || syndrome >= posToFlat.size()) {
            out.status = EccStatus::Uncorrectable;
            return out;
        }
        std::size_t flat =
            syndrome == 0 ? dataBits + hamming : posToFlat[syndrome];
        flipCodeBit(data, c, flat);
        out.status = EccStatus::Corrected;
        out.correctedBit = flat;
        return out;
    }

  private:
    std::size_t dataBits;
    std::size_t hamming = 0;
    std::vector<std::size_t> dataPos;   ///< data idx -> position
    std::vector<std::size_t> posToFlat; ///< position -> flat idx
};

/** Decode copies of (@p data, @p check) both ways; all must agree. */
void
expectSameDecode(const SecdedCode &code, const BitSerialSecded &ref,
                 const BitVector &data, const BitVector &check)
{
    BitVector d = data, c = check, rd = data, rc = check;
    SecdedCode::Decoded got = decodeBits(code, d, c);
    SecdedCode::Decoded want = ref.decode(rd, rc);
    ASSERT_EQ(got.status, want.status);
    if (want.status == EccStatus::Corrected) {
        ASSERT_EQ(got.correctedBit, want.correctedBit);
    }
    ASSERT_EQ(d, rd);
    ASSERT_EQ(c, rc);
}

constexpr std::size_t kDiffWidths[] = {1, 8, 57, 64};

TEST(Secded, WordPathMatchesBitSerialOnEverySingleAndDoubleFlip)
{
    for (std::size_t bits : kDiffWidths) {
        SCOPED_TRACE(::testing::Message() << bits << "-bit code");
        SecdedCode code(bits);
        BitSerialSecded ref(bits);
        for (const BitVector &data : patternsFor(bits)) {
            BitVector check = checkOf(code, data);
            ASSERT_EQ(check, ref.check(data));
            for (std::size_t a = 0; a < code.codeBits(); ++a) {
                BitVector d = data, c = check;
                flipCodeBit(d, c, a);
                expectSameDecode(code, ref, d, c);
                for (std::size_t b = a + 1; b < code.codeBits(); ++b) {
                    BitVector dd = d, cc = c;
                    flipCodeBit(dd, cc, b);
                    expectSameDecode(code, ref, dd, cc);
                }
            }
        }
    }
}

TEST(Secded, LineWordPathMatchesBitSerialOnRandomLines)
{
    Rng rng(0xd1ffecc);
    for (std::size_t bits : kDiffWidths) {
        SCOPED_TRACE(::testing::Message() << bits << "-bit words");
        LineSecded line(bits * 9, bits);
        BitSerialSecded ref(bits);
        const std::size_t cb = line.code().checkBits();
        const std::size_t lb = line.lineBits();
        const std::size_t tail = lb + line.checkLanes();
        for (int trial = 0; trial < 200; ++trial) {
            // Three wires past the check lanes, like the guard wire.
            BitVector row = randomBitsOf(rng, tail + 3);
            const BitVector written = row;
            line.encode(row);
            // Each word's data and the bits past the check lanes are
            // kept; each check lane is the bit-serial check.
            ASSERT_EQ(row.slice(0, lb), written.slice(0, lb));
            ASSERT_EQ(row.slice(tail, 3), written.slice(tail, 3));
            for (std::size_t w = 0; w < line.words(); ++w)
                ASSERT_EQ(row.slice(lb + w * cb, cb),
                          ref.check(row.slice(w * bits, bits)))
                    << "word " << w;
            // Zero to four random flips per word, data or check.
            for (std::size_t w = 0; w < line.words(); ++w) {
                for (std::size_t f = rng.nextBelow(5); f > 0; --f) {
                    std::size_t pos = rng.nextBelow(bits + cb);
                    std::size_t at = pos < bits
                                         ? w * bits + pos
                                         : lb + w * cb + pos - bits;
                    row.set(at, !row.get(at));
                }
            }
            BitVector got = row;
            LineSecded::Result res = line.correct(got);
            LineSecded::Result want;
            for (std::size_t w = 0; w < line.words(); ++w) {
                BitVector wd = row.slice(w * bits, bits);
                BitVector wc = row.slice(lb + w * cb, cb);
                EccStatus st = ref.decode(wd, wc).status;
                want.correctedWords += st == EccStatus::Corrected;
                want.uncorrectableWords += st == EccStatus::Uncorrectable;
                ASSERT_EQ(got.slice(w * bits, bits), wd) << "word " << w;
                ASSERT_EQ(got.slice(lb + w * cb, cb), wc)
                    << "word " << w;
            }
            ASSERT_EQ(got.slice(tail, 3), written.slice(tail, 3));
            EXPECT_EQ(res.correctedWords, want.correctedWords);
            EXPECT_EQ(res.uncorrectableWords, want.uncorrectableWords);
        }
    }
}

TEST(Secded, UnusableWordWidthsAreFatal)
{
    EXPECT_THROW(SecdedCode(0), FatalError);
    EXPECT_THROW(SecdedCode(SecdedCode::maxDataBits + 1), FatalError);
    EXPECT_THROW(LineSecded(512, 48), FatalError); // 512 % 48 != 0
    EXPECT_NO_THROW(LineSecded(512, 64));

    MemoryConfig cfg;
    cfg.reliability.eccMode = EccMode::Secded;
    EXPECT_NO_THROW(DwmMainMemory mem(cfg));
}

} // namespace
} // namespace coruscant
