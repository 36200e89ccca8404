/**
 * @file
 * Per-wire ones counts held as bit planes (a vertical counter).
 *
 * A transverse read counts, on every nanowire at once, the '1' domains
 * of a run of rows.  Held wire by wire that is one small integer per
 * wire; held as bit planes it is a handful of rows: bit w of plane k is
 * bit k of wire w's count.  Adding a row to the planes is a half-adder
 * chain over whole 64-bit words, so 64 wires are counted per
 * instruction.  The planes are also what the PIM block decodes: plane
 * 0 is S (= XOR), plane 1 is C, plane 2 is C' (DESIGN.md Sec. 3), and
 * the thermometer levels (OR = count >= 1, AND = count >= window, the
 * NMR threshold) are word-wide comparisons against a constant.
 */

#ifndef CORUSCANT_DWM_COUNT_PLANES_HPP
#define CORUSCANT_DWM_COUNT_PLANES_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bit_vector.hpp"

namespace coruscant {

/** Ones count of every wire over a run of rows, as bit planes. */
class CountPlanes
{
  public:
    /**
     * Most planes a counter holds: counts up to 63, past the longest
     * TR window (a whole 32-domain wire).
     */
    static constexpr std::size_t maxPlanes = 6;

    /**
     * The ones count of @p rows (each @p width bits), wire by wire:
     * ceil(log2(rows.size() + 1)) planes, or @p planes if more (room
     * for the rows a summing constructor adds later); panics past
     * maxPlanes planes.  One word-major pass: for each block of four
     * words (then each word left over), the rows' words are added into
     * the block's planes, held in registers, which are then stored
     * once.  Rows go in two at a time, through a full adder on plane 0
     * whose carry ripples up the higher planes.  The rows are gathered
     * by pointer, so the counted run need not be contiguous in memory.
     */
    CountPlanes(std::size_t width, std::span<const BitVector *const> rows,
                std::size_t planes = 0);

    /**
     * Count again, in place: the planes become those of
     * CountPlanes(width(), @p rows, @p planes).  The storage is kept
     * from one count to the next and grows only past every earlier
     * count, so a counter that is kept allocates nothing once it has
     * held as many plane words.
     */
    void recount(std::span<const BitVector *const> rows,
                 std::size_t planes = 0);

    /**
     * The counts of @p base plus the ones of @p rows, in as many
     * planes as @p base: one word-major pass, as above, that starts
     * each block from @p base's words instead of zero.  No sum may
     * exceed what the planes hold (a carry out of the top plane is
     * dropped); panics on a row of another width.
     */
    CountPlanes(const CountPlanes &base,
                std::span<const BitVector *const> rows);

    /** A copy takes the live words only. */
    CountPlanes(const CountPlanes &o);
    CountPlanes &operator=(const CountPlanes &) = delete;

    /** Number of planes: the bit width of the largest count. */
    std::size_t planes() const { return numPlanes; }

    /** Count of one wire. */
    std::size_t count(std::size_t wire) const;

    /** Overwrite one wire's count; panics if it needs more planes. */
    void setCount(std::size_t wire, std::size_t value);

    /** Plane @p k (bit k of every count); zero past the top plane. */
    BitVector
    plane(std::size_t k) const
    {
        BitVector out(wires);
        plane(k, out);
        return out;
    }

    /** plane(@p k) into @p out, a row of width() bits; panics otherwise. */
    void plane(std::size_t k, BitVector &out) const;

    /**
     * The words of plane @p k, in BitVector word layout; empty past
     * the top plane.  The span points into this object.
     */
    std::span<const std::uint64_t>
    planeWords(std::size_t k) const
    {
        if (k >= numPlanes)
            return {};
        return {bits() + k * numWords, numWords};
    }

    /**
     * Wires whose count is >= @p threshold: one branch-free compare
     * per word against the threshold's bits, the plane count a
     * template argument.
     */
    BitVector
    atLeast(std::size_t threshold) const
    {
        BitVector out(wires);
        atLeast(threshold, out);
        return out;
    }

    /**
     * atLeast(@p threshold) into @p out, a row of width() bits; panics
     * otherwise.
     */
    void atLeast(std::size_t threshold, BitVector &out) const;

    /** Every wire's count, truncated to 8 bits. */
    std::vector<std::uint8_t> counts() const;

  private:
    /** Panic unless every row has one bit per counted wire. */
    void checkWidths(std::span<const BitVector *const> rows) const;

    /** Panic unless @p out has one bit per counted wire. */
    void checkOut(const BitVector &out) const;

    /**
     * Plane words held inside the object: a TR window (TRD <= 7, three
     * planes) over any row BitVector stores inline.
     */
    static constexpr std::size_t inlineWords = 3 * BitVector::inlineWords;

    /** Whether the planes' words did not fit the inline ones. */
    bool
    onHeap() const
    {
        return numPlanes * numWords > inlineWords;
    }

    /** Plane words: the inline ones unless they did not fit. */
    std::uint64_t *bits() { return onHeap() ? heap.data() : local; }
    const std::uint64_t *
    bits() const
    {
        return onHeap() ? heap.data() : local;
    }

    /** Word @p j of plane @p k. */
    std::uint64_t &at(std::size_t k, std::size_t j)
    {
        return bits()[k * numWords + j];
    }
    std::uint64_t at(std::size_t k, std::size_t j) const
    {
        return bits()[k * numWords + j];
    }

    std::size_t wires;
    std::size_t numWords;  ///< 64-bit words per plane
    std::size_t numPlanes;
    /**
     * Plane-major, BitVector word layout; see bits().  Left
     * uninitialized past the planes' words, which are the only ones
     * read or copied.
     */
    std::uint64_t local[inlineWords];
    /** At least the planes' words when onHeap(); never shrinks. */
    std::vector<std::uint64_t> heap;
};

} // namespace coruscant

#endif // CORUSCANT_DWM_COUNT_PLANES_HPP
