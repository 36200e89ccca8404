/**
 * @file
 * Dynamic bit vector used to model memory rows and operand words.
 *
 * Rows in the simulated DWM/DRAM arrays are bit-slices across nanowires
 * (typically 512 bits); BitVector provides the packed storage, bitwise
 * combinators, shifting, population count, and integer packing helpers
 * used throughout the simulator.
 */

#ifndef CORUSCANT_UTIL_BIT_VECTOR_HPP
#define CORUSCANT_UTIL_BIT_VECTOR_HPP

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace coruscant {

/** A run of storage words in BitVector word layout, read-only. */
using WordSpan = std::span<const std::uint64_t>;

/**
 * Number of '1' bits in @p words: a carry-save (Harley-Seal) count
 * over blocks of 16 words, then a per-word count of the words left
 * over.  Fewer than 16 words run the per-word loop alone.
 */
std::size_t popcountWords(WordSpan words);

/**
 * A fixed-size-after-construction vector of bits with value semantics.
 *
 * Bit index 0 is the least-significant bit when the vector is viewed as
 * an integer (e.g. by toUint64()).  Storage is packed into 64-bit
 * words (bit i in word i / 64 at position i % 64) whose bits past
 * size() are always zero.  Up to inlineBits bits the words live
 * inside the object, so row-sized vectors never touch the heap;
 * longer vectors allocate, and a copy moves only the live words.
 * Range operations (slice, insert, the uint64 packing helpers) and
 * the binary operators check their arguments and panic on a
 * violation; the per-bit get/set only assert.
 */
class BitVector
{
    static constexpr std::size_t bitsPerWord = 64;

  public:
    /**
     * Words stored inside the object: a 512-wire row plus 64 SECDED
     * check lanes and the alignment-guard wire (577 bits) fits.
     */
    static constexpr std::size_t inlineWords = 10;

    /** Longest vector that needs no heap allocation. */
    static constexpr std::size_t inlineBits = inlineWords * bitsPerWord;

    /** Longest vector; the constructor throws std::length_error past it. */
    static constexpr std::size_t maxBits = SIZE_MAX - (bitsPerWord - 1);

    /** Construct an empty (size 0) vector. */
    BitVector() = default;

    /** Construct @p size bits, all initialized to @p value. */
    explicit BitVector(std::size_t size, bool value = false);

    BitVector(const BitVector &o);
    BitVector(BitVector &&o) noexcept;
    BitVector &operator=(const BitVector &o);
    BitVector &operator=(BitVector &&o) noexcept;
    ~BitVector() { release(); }

    /**
     * Build a vector from the low @p size bits of @p bits.
     * @param size number of bits (may exceed 64; upper bits are zero)
     * @param bits source integer, bit 0 maps to index 0
     */
    static BitVector fromUint64(std::size_t size, std::uint64_t bits);

    /** Build from a string of '0'/'1' characters, index 0 = last char. */
    static BitVector fromString(const std::string &s);

    /** Number of bits. */
    std::size_t size() const { return numBits; }

    /** Whether the vector holds zero bits. */
    bool empty() const { return numBits == 0; }

    /** Read the bit at @p idx. */
    bool
    get(std::size_t idx) const
    {
        assert(idx < numBits);
        return (store[idx / bitsPerWord] >> (idx % bitsPerWord)) & 1ULL;
    }

    /**
     * Set the bit at @p idx to @p value.  Branch-free on purpose:
     * callers pass data bits (a poked wire, the guard wire's ramp
     * bit, a stuck-at value, random test bits), where a branch on
     * @p value would mispredict.  A whole-vector fill goes through
     * setWords instead.
     */
    void
    set(std::size_t idx, bool value)
    {
        assert(idx < numBits);
        const std::size_t bit = idx % bitsPerWord;
        std::uint64_t &w = store[idx / bitsPerWord];
        w = (w & ~(1ULL << bit)) | (static_cast<std::uint64_t>(value) << bit);
    }

    /** Set all bits to @p value. */
    void fill(bool value);

    /** Number of '1' bits: popcountWords(words()). */
    std::size_t popcount() const { return popcountWords(words()); }

    /** True if any bit is '1'. */
    bool any() const { return popcount() > 0; }

    /** True if every bit is '1'. */
    bool all() const { return popcount() == numBits; }

    /** Logical left shift by @p n (toward higher indices), zero fill. */
    BitVector shiftedLeft(std::size_t n) const;

    /** Logical right shift by @p n (toward lower indices), zero fill. */
    BitVector shiftedRight(std::size_t n) const;

    /** Bitwise NOT. */
    BitVector operator~() const;

    BitVector operator&(const BitVector &o) const;
    BitVector operator|(const BitVector &o) const;
    BitVector operator^(const BitVector &o) const;

    BitVector &operator&=(const BitVector &o);
    BitVector &operator|=(const BitVector &o);
    BitVector &operator^=(const BitVector &o);

    bool operator==(const BitVector &o) const;
    bool operator!=(const BitVector &o) const { return !(*this == o); }

    /** Storage word @p i: bits [64*i, 64*i + 64), bit 0 lowest. */
    std::uint64_t
    word(std::size_t i) const
    {
        assert(i < numWords());
        return store[i];
    }

    /**
     * Overwrite every storage word: word i becomes @p f(i), called for
     * i = 0, 1, ... in order, so @p f may carry state from one word to
     * the next.  The bits past size() are dropped once, after the last
     * word.  The word count and the store pointer are read once, so a
     * store cannot force them to be reloaded.
     */
    template <typename F>
    void
    setWords(F f)
    {
        const std::size_t n = numWords();
        std::uint64_t *const w = store;
        for (std::size_t i = 0; i < n; ++i)
            w[i] = f(i);
        clearPadding();
    }

    /**
     * Overwrite every storage word with the same word of @p src, zero
     * past its end; words and bits of @p src past size() are dropped.
     * A span that covers the vector is a plain copy: a heap vector's
     * words go through the C library's block copy, which uses the
     * host's widest vector registers, and an inline vector's few words
     * are copied in place, without the call.  @p src may be this
     * vector's own words, which then stay in place.
     */
    void
    assignWords(WordSpan src)
    {
        const std::uint64_t *const s = src.data();
        const std::size_t live = src.size();
        if (live < numWords())
            setWords([s, live](std::size_t j) { return j < live ? s[j] : 0; });
        else if (s == store)
            return;
        else if (onHeap())
            copyHeapWords(s);
        else
            setWords([s](std::size_t j) { return s[j]; });
    }

    /**
     * Overwrite every storage word in place: word i becomes
     * @p f(word i, i), for i = 0, 1, ... in order, and the bits past
     * size() are dropped once, after the last word.  The row is read
     * and written through one pointer, so an in-place fold needs no
     * overlap check between the row and itself.
     */
    template <typename F>
    void
    updateWords(F f)
    {
        const std::size_t n = numWords();
        std::uint64_t *const w = store;
        for (std::size_t i = 0; i < n; ++i)
            w[i] = f(w[i], i);
        clearPadding();
    }

    /** Storage words: (size() + 63) / 64. */
    std::size_t numWords() const { return wordCount(numBits); }

    /**
     * Every storage word, numWords() of them; the bits past size() in
     * the last one read zero.  The span points into this object.
     */
    WordSpan words() const { return {store, numWords()}; }

    /**
     * Interpret bits [offset, offset+width) as an unsigned integer.
     * Panics unless width <= 64 and offset+width <= size().
     */
    std::uint64_t sliceUint64(std::size_t offset, std::size_t width) const;

    /** Interpret the whole vector as unsigned; panics past 64 bits. */
    std::uint64_t toUint64() const;

    /**
     * Write the low @p width bits of @p value into
     * bits [offset, offset+width).  Panics unless width <= 64 and
     * offset+width <= size().
     */
    void insertUint64(std::size_t offset, std::size_t width,
                      std::uint64_t value);

    /**
     * Extract bits [offset, offset+width) as a new vector.  Panics
     * unless offset+width <= size().
     */
    BitVector slice(std::size_t offset, std::size_t width) const;

    /**
     * Keep bits [0, @p width) only, in place: slice(0, @p width)
     * without a second vector.  Panics unless width <= size().
     */
    void truncate(std::size_t width);

    /**
     * Overwrite bits [offset, offset+src.size()) with @p src.  Panics
     * unless offset+src.size() <= size().
     */
    void insert(std::size_t offset, const BitVector &src);

    /** Render as a '0'/'1' string, most-significant bit first. */
    std::string toString() const;

  private:
    /** Exact for every size up to maxBits, which the constructor checks. */
    static std::size_t wordCount(std::size_t bits)
    {
        return (bits + bitsPerWord - 1) / bitsPerWord;
    }

    /** Whether the words live in a heap block. */
    bool onHeap() const { return store != local; }

    /** Make room for @p n words; contents are unspecified after. */
    void reserveWords(std::size_t n);

    /** Free a heap block and fall back to the inline words. */
    void release();

    /** Overwrite every word from @p src by block copy; drop the padding. */
    void copyHeapWords(const std::uint64_t *src);

    /** Take @p o's size and live words (room already reserved). */
    void copyWords(const BitVector &o);

    /**
     * Take over @p o's heap block (this holds none), leaving @p o
     * empty and inline.
     */
    void steal(BitVector &o);

    /** Zero any bits in the final word beyond numBits. */
    void
    clearPadding()
    {
        const std::size_t rem = numBits % bitsPerWord;
        if (rem != 0)
            store[numBits / bitsPerWord] &= (1ULL << rem) - 1;
    }

    /** Panic unless [offset, offset+width) lies inside the vector. */
    void checkRange(const char *op, std::size_t offset,
                    std::size_t width) const;

    /** Panic unless @p o has the same size (binary operators). */
    void checkSameSize(const BitVector &o) const;

    /** Bits [offset, offset+width), width <= 64; unchecked. */
    std::uint64_t readBits(std::size_t offset, std::size_t width) const;

    /** Store the low @p width <= 64 bits of @p value; unchecked. */
    void writeBits(std::size_t offset, std::size_t width,
                   std::uint64_t value);

    std::size_t numBits = 0;
    std::size_t capacity = inlineWords; ///< words available at store
    std::uint64_t *store = local;       ///< local or a heap block
    /**
     * Inline words.  Left uninitialized on purpose (row temporaries
     * are built constantly): only the first numWords() are ever read,
     * and every constructor and assignment writes those.
     */
    std::uint64_t local[inlineWords];
};

} // namespace coruscant

#endif // CORUSCANT_UTIL_BIT_VECTOR_HPP
