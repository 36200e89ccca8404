#include "util/bit_vector.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace coruscant {

namespace {

/** The low @p n bits set, 0 < n < 64. */
constexpr std::uint64_t
lowMask(std::size_t n)
{
    return (1ULL << n) - 1;
}

/**
 * Ones in @p x, bit-sliced and inline: the baseline x86-64 target has
 * no POPCNT instruction, so std::popcount is a libgcc call per word.
 * Each step adds neighbouring fields of the word in parallel: 2-, 4-
 * and 8-bit counts, then the multiply sums the eight bytes into the
 * top one.
 */
inline std::uint64_t
wordOnes(std::uint64_t x)
{
    constexpr std::uint64_t m1 = 0x5555555555555555ULL;
    constexpr std::uint64_t m2 = 0x3333333333333333ULL;
    constexpr std::uint64_t m4 = 0x0f0f0f0f0f0f0f0fULL;
    constexpr std::uint64_t bytes = 0x0101010101010101ULL;
    x -= (x >> 1) & m1;
    x = (x & m2) + ((x >> 2) & m2);
    x = (x + (x >> 4)) & m4;
    return (x * bytes) >> 56;
}

/**
 * Carry-save adder over bit slices: @p a + @p b + @p c, bit by bit,
 * as a carry word @p high (weight 2) and a sum word @p low.
 */
inline void
carrySave(std::uint64_t &high, std::uint64_t &low, std::uint64_t a,
          std::uint64_t b, std::uint64_t c)
{
    const std::uint64_t u = a ^ b;
    high = (a & b) | (u & c);
    low = u ^ c;
}

} // namespace

std::size_t
popcountWords(WordSpan words)
{
    // Harley-Seal: the words of a block go through a tree of
    // carry-save adders into bit-sliced counters of weight 1, 2, 4 and
    // 8, and only the weight-16 word each block carries out is
    // counted.  Muła, Kurz and Lemire, "Faster Population Counts
    // Using AVX2 Instructions", The Computer Journal 2018.
    constexpr std::size_t block = 16;
    const std::uint64_t *const w = words.data();
    const std::size_t n = words.size();
    std::size_t i = 0;
    std::uint64_t total = 0;
    if (n >= block) {
        std::uint64_t ones = 0, twos = 0, fours = 0, eights = 0;
        std::uint64_t twos_a, twos_b, fours_a, fours_b, eights_a, eights_b;
        std::uint64_t sixteens;
        for (; i + block <= n; i += block) {
            carrySave(twos_a, ones, ones, w[i], w[i + 1]);
            carrySave(twos_b, ones, ones, w[i + 2], w[i + 3]);
            carrySave(fours_a, twos, twos, twos_a, twos_b);
            carrySave(twos_a, ones, ones, w[i + 4], w[i + 5]);
            carrySave(twos_b, ones, ones, w[i + 6], w[i + 7]);
            carrySave(fours_b, twos, twos, twos_a, twos_b);
            carrySave(eights_a, fours, fours, fours_a, fours_b);
            carrySave(twos_a, ones, ones, w[i + 8], w[i + 9]);
            carrySave(twos_b, ones, ones, w[i + 10], w[i + 11]);
            carrySave(fours_a, twos, twos, twos_a, twos_b);
            carrySave(twos_a, ones, ones, w[i + 12], w[i + 13]);
            carrySave(twos_b, ones, ones, w[i + 14], w[i + 15]);
            carrySave(fours_b, twos, twos, twos_a, twos_b);
            carrySave(eights_b, fours, fours, fours_a, fours_b);
            carrySave(sixteens, eights, eights, eights_a, eights_b);
            total += wordOnes(sixteens);
        }
        total = 16 * total + 8 * wordOnes(eights) + 4 * wordOnes(fours) +
                2 * wordOnes(twos) + wordOnes(ones);
    }
    for (; i < n; ++i)
        total += wordOnes(w[i]);
    return static_cast<std::size_t>(total);
}

BitVector::BitVector(std::size_t size, bool value) : numBits(size)
{
    if (size > maxBits)
        throw std::length_error("BitVector size exceeds maxBits");
    reserveWords(numWords());
    fill(value);
}

BitVector::BitVector(const BitVector &o)
{
    reserveWords(o.numWords());
    copyWords(o);
}

BitVector::BitVector(BitVector &&o) noexcept
{
    if (o.onHeap())
        steal(o);
    else
        copyWords(o);
}

BitVector &
BitVector::operator=(const BitVector &o)
{
    if (this != &o) {
        reserveWords(o.numWords());
        copyWords(o);
    }
    return *this;
}

BitVector &
BitVector::operator=(BitVector &&o) noexcept
{
    if (this == &o)
        return *this;
    if (o.onHeap()) {
        release();
        steal(o);
    } else {
        copyWords(o); // fits: every capacity is >= inlineWords
    }
    return *this;
}

void
BitVector::reserveWords(std::size_t n)
{
    if (n <= capacity)
        return;
    release();
    store = new std::uint64_t[n];
    capacity = n;
}

void
BitVector::release()
{
    if (onHeap())
        delete[] store;
    store = local;
    capacity = inlineWords;
}

void
BitVector::steal(BitVector &o)
{
    numBits = o.numBits;
    capacity = o.capacity;
    store = o.store;
    o.numBits = 0;
    o.capacity = inlineWords;
    o.store = o.local;
}

void
BitVector::copyWords(const BitVector &o)
{
    numBits = o.numBits;
    std::copy_n(o.store, numWords(), store);
}

void
BitVector::copyHeapWords(const std::uint64_t *src)
{
    std::copy_n(src, numWords(), store);
    clearPadding();
}

BitVector
BitVector::fromUint64(std::size_t size, std::uint64_t bits)
{
    BitVector v(size);
    if (size > 0) {
        v.store[0] = bits;
        v.clearPadding();
    }
    return v;
}

BitVector
BitVector::fromString(const std::string &s)
{
    BitVector v(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        char c = s[s.size() - 1 - i];
        assert(c == '0' || c == '1');
        v.set(i, c == '1');
    }
    return v;
}

void
BitVector::fill(bool value)
{
    std::fill_n(store, numWords(), value ? ~0ULL : 0ULL);
    clearPadding();
}

BitVector
BitVector::shiftedLeft(std::size_t n) const
{
    BitVector out(numBits);
    if (n >= numBits)
        return out;
    const std::size_t word_shift = n / bitsPerWord;
    const std::size_t bit_shift = n % bitsPerWord;
    for (std::size_t i = numWords(); i-- > 0;) {
        std::uint64_t w = 0;
        if (i >= word_shift) {
            w = store[i - word_shift] << bit_shift;
            if (bit_shift > 0 && i > word_shift)
                w |= store[i - word_shift - 1] >> (bitsPerWord - bit_shift);
        }
        out.store[i] = w;
    }
    out.clearPadding();
    return out;
}

BitVector
BitVector::shiftedRight(std::size_t n) const
{
    BitVector out(numBits);
    if (n >= numBits)
        return out;
    const std::size_t word_shift = n / bitsPerWord;
    const std::size_t bit_shift = n % bitsPerWord;
    const std::size_t n_words = numWords();
    for (std::size_t i = 0; i < n_words; ++i) {
        std::uint64_t w = 0;
        if (i + word_shift < n_words) {
            w = store[i + word_shift] >> bit_shift;
            if (bit_shift > 0 && i + word_shift + 1 < n_words)
                w |= store[i + word_shift + 1] << (bitsPerWord - bit_shift);
        }
        out.store[i] = w;
    }
    out.clearPadding();
    return out;
}

BitVector
BitVector::operator~() const
{
    BitVector out(*this);
    out.setWords([&out](std::size_t i) { return ~out.store[i]; });
    return out;
}

BitVector
BitVector::operator&(const BitVector &o) const
{
    BitVector out(*this);
    out &= o;
    return out;
}

BitVector
BitVector::operator|(const BitVector &o) const
{
    BitVector out(*this);
    out |= o;
    return out;
}

BitVector
BitVector::operator^(const BitVector &o) const
{
    BitVector out(*this);
    out ^= o;
    return out;
}

BitVector &
BitVector::operator&=(const BitVector &o)
{
    checkSameSize(o);
    setWords([this, &o](std::size_t i) { return store[i] & o.store[i]; });
    return *this;
}

BitVector &
BitVector::operator|=(const BitVector &o)
{
    checkSameSize(o);
    setWords([this, &o](std::size_t i) { return store[i] | o.store[i]; });
    return *this;
}

BitVector &
BitVector::operator^=(const BitVector &o)
{
    checkSameSize(o);
    setWords([this, &o](std::size_t i) { return store[i] ^ o.store[i]; });
    return *this;
}

bool
BitVector::operator==(const BitVector &o) const
{
    return numBits == o.numBits &&
           std::equal(store, store + numWords(), o.store);
}

std::uint64_t
BitVector::sliceUint64(std::size_t offset, std::size_t width) const
{
    panicIf(width > bitsPerWord, "BitVector::sliceUint64 width ", width,
            " exceeds 64 bits");
    checkRange("sliceUint64", offset, width);
    return readBits(offset, width);
}

std::uint64_t
BitVector::toUint64() const
{
    return sliceUint64(0, numBits);
}

void
BitVector::insertUint64(std::size_t offset, std::size_t width,
                        std::uint64_t value)
{
    panicIf(width > bitsPerWord, "BitVector::insertUint64 width ", width,
            " exceeds 64 bits");
    checkRange("insertUint64", offset, width);
    writeBits(offset, width, value);
}

BitVector
BitVector::slice(std::size_t offset, std::size_t width) const
{
    checkRange("slice", offset, width);
    BitVector out(width);
    for (std::size_t i = 0; i < out.numWords(); ++i) {
        std::size_t done = i * bitsPerWord;
        out.store[i] = readBits(offset + done,
                                std::min(bitsPerWord, width - done));
    }
    return out;
}

void
BitVector::truncate(std::size_t width)
{
    checkRange("truncate", 0, width);
    numBits = width;
    clearPadding();
}

void
BitVector::insert(std::size_t offset, const BitVector &src)
{
    checkRange("insert", offset, src.numBits);
    for (std::size_t i = 0; i < src.numWords(); ++i) {
        std::size_t done = i * bitsPerWord;
        writeBits(offset + done, std::min(bitsPerWord, src.numBits - done),
                  src.store[i]);
    }
}

std::string
BitVector::toString() const
{
    std::string s;
    s.reserve(numBits);
    for (std::size_t i = numBits; i-- > 0;)
        s.push_back(get(i) ? '1' : '0');
    return s;
}

void
BitVector::checkRange(const char *op, std::size_t offset,
                      std::size_t width) const
{
    panicIf(offset > numBits || width > numBits - offset, "BitVector::",
            op, " range [", offset, ", ", offset, " + ", width,
            ") exceeds size ", numBits);
}

void
BitVector::checkSameSize(const BitVector &o) const
{
    panicIf(numBits != o.numBits, "BitVector size mismatch: ", numBits,
            " vs ", o.numBits);
}

std::uint64_t
BitVector::readBits(std::size_t offset, std::size_t width) const
{
    if (width == 0)
        return 0;
    const std::size_t q = offset / bitsPerWord;
    const std::size_t r = offset % bitsPerWord;
    std::uint64_t v = store[q] >> r;
    if (r != 0 && r + width > bitsPerWord)
        v |= store[q + 1] << (bitsPerWord - r);
    return width < bitsPerWord ? v & lowMask(width) : v;
}

void
BitVector::writeBits(std::size_t offset, std::size_t width,
                     std::uint64_t value)
{
    if (width == 0)
        return;
    const std::uint64_t mask =
        width < bitsPerWord ? lowMask(width) : ~0ULL;
    value &= mask;
    const std::size_t q = offset / bitsPerWord;
    const std::size_t r = offset % bitsPerWord;
    store[q] = (store[q] & ~(mask << r)) | (value << r);
    if (r != 0 && r + width > bitsPerWord) {
        const std::size_t spill = bitsPerWord - r;
        store[q + 1] =
            (store[q + 1] & ~(mask >> spill)) | (value >> spill);
    }
}

} // namespace coruscant
