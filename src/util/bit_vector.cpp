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

} // namespace

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

std::size_t
BitVector::popcount() const
{
    // Bit-sliced count, inline: the baseline x86-64 target has no
    // POPCNT instruction, so std::popcount is a libgcc call per word.
    // Each step adds neighbouring fields of the word in parallel: 2-,
    // 4- and 8-bit counts, then the multiply sums the eight bytes
    // into the top one.
    constexpr std::uint64_t m1 = 0x5555555555555555ULL;
    constexpr std::uint64_t m2 = 0x3333333333333333ULL;
    constexpr std::uint64_t m4 = 0x0f0f0f0f0f0f0f0fULL;
    constexpr std::uint64_t bytes = 0x0101010101010101ULL;
    const std::size_t n_words = numWords();
    std::size_t n = 0;
    for (std::size_t i = 0; i < n_words; ++i) {
        std::uint64_t x = store[i];
        x -= (x >> 1) & m1;
        x = (x & m2) + ((x >> 2) & m2);
        x = (x + (x >> 4)) & m4;
        n += static_cast<std::size_t>((x * bytes) >> 56);
    }
    return n;
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
