#include "dwm/count_planes.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>

#include "util/logging.hpp"

namespace coruscant {

CountPlanes::CountPlanes(std::size_t width, std::size_t max_rows)
    : wires(width), numWords((width + 63) / 64),
      numPlanes(std::bit_width(max_rows)), rowsLeft(max_rows)
{
    if (numPlanes * numWords > inlineWords)
        heap.assign(numPlanes * numWords, 0);
}

void
CountPlanes::add(const BitVector &row)
{
    panicIf(row.size() != wires, "counted row width ", row.size(),
            " != ", wires);
    panicIf(rowsLeft == 0, "row added past the counter's max_rows");
    --rowsLeft;
    std::uint64_t *planes = bits();
    for (std::size_t j = 0; j < numWords; ++j) {
        // Half-adder chain; no carry leaves the top plane because no
        // count can exceed max_rows < 2^numPlanes.
        std::uint64_t carry = row.word(j);
        for (std::size_t k = 0; k < numPlanes; ++k) {
            std::uint64_t &a = planes[k * numWords + j];
            std::uint64_t next = a & carry;
            a ^= carry;
            carry = next;
        }
    }
}

std::size_t
CountPlanes::count(std::size_t wire) const
{
    assert(wire < wires);
    std::size_t c = 0;
    for (std::size_t k = 0; k < numPlanes; ++k)
        c |= static_cast<std::size_t>((at(k, wire / 64) >> (wire % 64)) & 1)
             << k;
    return c;
}

void
CountPlanes::setCount(std::size_t wire, std::size_t value)
{
    assert(wire < wires);
    panicIf(static_cast<std::size_t>(std::bit_width(value)) > numPlanes,
            "count ", value, " needs more than ", numPlanes, " planes");
    const std::uint64_t mask = 1ULL << (wire % 64);
    for (std::size_t k = 0; k < numPlanes; ++k) {
        std::uint64_t &a = at(k, wire / 64);
        a = ((value >> k) & 1) ? a | mask : a & ~mask;
    }
}

BitVector
CountPlanes::plane(std::size_t k) const
{
    BitVector out(wires);
    if (k < numPlanes)
        for (std::size_t j = 0; j < numWords; ++j)
            out.setWord(j, at(k, j));
    return out;
}

BitVector
CountPlanes::atLeast(std::size_t threshold) const
{
    BitVector out(wires);
    if (static_cast<std::size_t>(std::bit_width(threshold)) > numPlanes)
        return out; // beyond every representable count
    for (std::size_t j = 0; j < numWords; ++j) {
        // Compare MSB first: `gt` marks wires already above the
        // threshold's prefix, `eq` those still equal to it.
        std::uint64_t gt = 0;
        std::uint64_t eq = ~0ULL;
        for (std::size_t k = numPlanes; k-- > 0;) {
            std::uint64_t p = at(k, j);
            if ((threshold >> k) & 1) {
                eq &= p;
            } else {
                gt |= eq & p;
                eq &= ~p;
            }
        }
        out.setWord(j, gt | eq);
    }
    return out;
}

std::vector<std::uint8_t>
CountPlanes::counts() const
{
    static_assert(std::endian::native == std::endian::little,
                  "lanes are stored by copying a 64-bit word");
    // Decode a group of wires per step: spread[x] holds bit i of x in
    // lane i of a 64-bit word of byte lanes.
    constexpr std::size_t lane_bits = 8;
    constexpr std::size_t lanes = 64 / lane_bits;
    static constexpr auto spread = [] {
        std::array<std::uint64_t, std::size_t{1} << lanes> t{};
        for (std::size_t x = 0; x < t.size(); ++x)
            for (std::size_t i = 0; i < lanes; ++i)
                t[x] |= static_cast<std::uint64_t>((x >> i) & 1)
                        << (i * lane_bits);
        return t;
    }();
    // Counts wider than a byte keep their low bits.
    const std::size_t n = std::min(numPlanes, lane_bits);
    // Room for a whole last group.
    std::vector<std::uint8_t> out(wires + lanes - 1);
    for (std::size_t lo = 0; lo < wires; lo += lanes) {
        std::uint64_t v = 0;
        for (std::size_t k = 0; k < n; ++k)
            v |= spread[(at(k, lo / 64) >> (lo % 64)) & (spread.size() - 1)]
                 << k;
        std::memcpy(out.data() + lo, &v, sizeof v);
    }
    out.resize(wires);
    return out;
}

} // namespace coruscant
