#include "dwm/count_planes.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

#include "util/logging.hpp"

namespace coruscant {

namespace {

/**
 * Add @p carry, of weight 2^K, into planes K.. of one word: a
 * half-adder chain.  A carry out of the top plane is dropped.
 */
template <std::size_t P, std::size_t K>
inline void
rippleUp(std::uint64_t (&p)[P], std::uint64_t carry)
{
    for (std::size_t k = K; k < P; ++k) {
        const std::uint64_t next = p[k] & carry;
        p[k] ^= carry;
        carry = next;
    }
}

/**
 * Count words [@p j, @p j + B) of @p rows into the @p P planes of
 * @p n_words words at @p planes, starting from the same words of
 * @p base (from the first row, or zero, when FromBase is false): the
 * block's planes stay in registers while every row's words are
 * added, then are stored once.  Rows go in two at a time: a full
 * adder sums them with plane 0 and its one carry ripples up through
 * the higher planes, five operations plus the ripple where two
 * half-adder chains took ten.  The B words are independent, so the
 * compiler runs them side by side.
 */
template <std::size_t P, std::size_t B, bool FromBase>
void
countBlock(std::uint64_t *planes, const std::uint64_t *base,
           std::size_t n_words, std::size_t j,
           std::span<const BitVector *const> rows)
{
    std::uint64_t p[B][P] = {};
    const std::size_t n = rows.size();
    std::size_t i = 0;
    if constexpr (FromBase) {
        for (std::size_t b = 0; b < B; ++b)
            for (std::size_t k = 0; k < P; ++k)
                p[b][k] = base[k * n_words + j + b];
    } else if (n > 0) {
        for (std::size_t b = 0; b < B; ++b)
            p[b][0] = rows[0]->word(j + b);
        i = 1;
    }
    for (; i + 2 <= n; i += 2) {
        const BitVector &x = *rows[i];
        const BitVector &y = *rows[i + 1];
        for (std::size_t b = 0; b < B; ++b) {
            const std::uint64_t u = p[b][0] ^ x.word(j + b);
            const std::uint64_t carry =
                (p[b][0] & x.word(j + b)) | (u & y.word(j + b));
            p[b][0] = u ^ y.word(j + b);
            rippleUp<P, 1>(p[b], carry);
        }
    }
    if (i < n)
        for (std::size_t b = 0; b < B; ++b)
            rippleUp<P, 0>(p[b], rows[i]->word(j + b));
    for (std::size_t k = 0; k < P; ++k)
        for (std::size_t b = 0; b < B; ++b)
            planes[k * n_words + j + b] = p[b][k];
}

/**
 * Count @p rows into the @p P planes of @p n_words words at @p planes,
 * from @p base's counts when FromBase, word-major: four words at a
 * time, then the words left over one at a time.
 */
template <std::size_t P, bool FromBase>
void
countRows(std::uint64_t *planes, const std::uint64_t *base,
          std::size_t n_words, std::span<const BitVector *const> rows)
{
    constexpr std::size_t block = 4;
    std::size_t j = 0;
    for (; j + block <= n_words; j += block)
        countBlock<P, block, FromBase>(planes, base, n_words, j, rows);
    for (; j < n_words; ++j)
        countBlock<P, 1, FromBase>(planes, base, n_words, j, rows);
}

/**
 * Into @p out, the wires whose count in the @p P planes of @p n_words
 * words at @p planes is at least @p threshold (< 2^P).  Each word is
 * one branch-free compare, MSB first, against the threshold's bits
 * as masks: `gt` marks wires already above the threshold's prefix,
 * `eq` those still equal to it.
 */
template <std::size_t P>
void
atLeastWords(const std::uint64_t *planes, std::size_t n_words,
             std::size_t threshold, BitVector &out)
{
    std::array<std::uint64_t, P> t;
    for (std::size_t k = 0; k < P; ++k)
        t[k] = std::uint64_t{0} - ((threshold >> k) & 1);
    out.setWords([planes, n_words, t](std::size_t j) {
        std::uint64_t gt = 0;
        std::uint64_t eq = ~0ULL;
        for (std::size_t k = P; k-- > 0;) {
            const std::uint64_t p = planes[k * n_words + j];
            gt |= eq & p & ~t[k];
            eq &= ~(p ^ t[k]);
        }
        return gt | eq;
    });
}

/** atLeastWords<P> for every plane count, 0 to CountPlanes' maximum. */
template <std::size_t... P>
constexpr auto
atLeastTable(std::index_sequence<P...>)
{
    return std::array{&atLeastWords<P>...};
}

/**
 * countRows<P, FromBase> for every plane count up to CountPlanes'
 * maximum.
 */
template <bool FromBase, std::size_t... P>
constexpr auto
countTable(std::index_sequence<P...>)
{
    return std::array{&countRows<P + 1, FromBase>...};
}

} // namespace

CountPlanes::CountPlanes(std::size_t width,
                         std::span<const BitVector *const> rows,
                         std::size_t planes)
    : wires(width), numWords((width + 63) / 64), numPlanes(0)
{
    recount(rows, planes);
}

void
CountPlanes::recount(std::span<const BitVector *const> rows,
                     std::size_t planes)
{
    const std::size_t n_planes =
        std::max<std::size_t>(std::bit_width(rows.size()), planes);
    panicIf(n_planes > maxPlanes, "a count of ", rows.size(), " rows in ",
            n_planes, " planes exceeds ", maxPlanes, " planes");
    checkWidths(rows);
    numPlanes = n_planes;
    if (onHeap() && heap.size() < numPlanes * numWords)
        heap.resize(numPlanes * numWords);
    // The plane count is a template argument, so the planes of a word
    // stay in registers.
    static constexpr auto count =
        countTable<false>(std::make_index_sequence<maxPlanes>());
    if (numPlanes > 0)
        count[numPlanes - 1](bits(), nullptr, numWords, rows);
}

CountPlanes::CountPlanes(const CountPlanes &base,
                         std::span<const BitVector *const> rows)
    : wires(base.wires), numWords(base.numWords), numPlanes(base.numPlanes)
{
    checkWidths(rows);
    if (onHeap())
        heap.resize(numPlanes * numWords);
    static constexpr auto count =
        countTable<true>(std::make_index_sequence<maxPlanes>());
    if (numPlanes > 0)
        count[numPlanes - 1](bits(), base.bits(), numWords, rows);
}

CountPlanes::CountPlanes(const CountPlanes &o)
    : wires(o.wires), numWords(o.numWords), numPlanes(o.numPlanes)
{
    const std::size_t n = numPlanes * numWords;
    if (onHeap())
        heap.assign(o.bits(), o.bits() + n);
    else
        std::copy_n(o.local, n, local);
}

void
CountPlanes::checkWidths(std::span<const BitVector *const> rows) const
{
    for (const BitVector *row : rows)
        panicIf(row->size() != wires, "counted row width ", row->size(),
                " != ", wires);
}

void
CountPlanes::checkOut(const BitVector &out) const
{
    panicIf(out.size() != wires, "decoded row width ", out.size(), " != ",
            wires);
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

void
CountPlanes::plane(std::size_t k, BitVector &out) const
{
    checkOut(out);
    out.assignWords(planeWords(k)); // all zero past the top plane
}

void
CountPlanes::atLeast(std::size_t threshold, BitVector &out) const
{
    checkOut(out);
    if (static_cast<std::size_t>(std::bit_width(threshold)) > numPlanes) {
        out.fill(false); // beyond every representable count
        return;
    }
    // The plane count is a template argument, as in the count.
    static constexpr auto compare =
        atLeastTable(std::make_index_sequence<maxPlanes + 1>());
    compare[numPlanes](bits(), numWords, threshold, out);
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
