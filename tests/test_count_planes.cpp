/**
 * @file
 * CountPlanes' word-wide threshold against the per-wire counts it
 * holds.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "dwm/count_planes.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

TEST(CountPlanes, AtLeastMatchesPerWireCounts)
{
    // Every plane count, every threshold up to one past the largest
    // count, random counts on every wire, at widths around the word
    // size and past the inline plane words.
    for (std::size_t width : {1u, 63u, 64u, 65u, 577u}) {
        for (std::size_t planes = 1; planes <= CountPlanes::maxPlanes;
             ++planes) {
            SCOPED_TRACE(::testing::Message()
                         << "width=" << width << " planes=" << planes);
            const std::size_t top = std::size_t{1} << planes;
            // top - 1 zero rows: the counter takes `planes` planes.
            const std::vector<BitVector> rows(top - 1, BitVector(width));
            std::vector<const BitVector *> ptrs;
            for (const BitVector &r : rows)
                ptrs.push_back(&r);
            CountPlanes counts(width, ptrs);
            ASSERT_EQ(counts.planes(), planes);
            Rng rng(width * 16 + planes);
            for (std::size_t w = 0; w < width; ++w)
                counts.setCount(w, rng.nextBelow(top));
            for (std::size_t t = 0; t <= top; ++t) {
                const BitVector got = counts.atLeast(t);
                ASSERT_EQ(got.size(), width);
                std::size_t want_ones = 0;
                for (std::size_t w = 0; w < width; ++w) {
                    const bool want = counts.count(w) >= t;
                    want_ones += want;
                    ASSERT_EQ(got.get(w), want)
                        << "t=" << t << " wire " << w << " count "
                        << counts.count(w);
                }
                // Nothing set past the last wire.
                EXPECT_EQ(got.popcount(), want_ones) << "t=" << t;
            }
        }
    }
}

TEST(CountPlanes, SumOfBaseAndRowsMatchesOneCount)
{
    // A base count with room to spare plus more rows reads as the
    // count of all the rows at once, at widths around the word size
    // and past the inline plane words; a copy reads the same.
    Rng rng(77);
    for (std::size_t width : {1u, 64u, 65u, 300u, 577u}) {
        for (std::size_t n_base : {0u, 1u, 5u, 30u}) {
            SCOPED_TRACE(::testing::Message()
                         << "width=" << width << " base rows=" << n_base);
            std::vector<BitVector> rows;
            for (std::size_t i = 0; i < n_base + 2; ++i) {
                BitVector r(width);
                r.setWords([&rng](std::size_t) { return rng.next(); });
                rows.push_back(r);
            }
            std::vector<const BitVector *> ptrs;
            for (const BitVector &r : rows)
                ptrs.push_back(&r);
            const std::span<const BitVector *const> all(ptrs);
            const CountPlanes whole(width, all);
            const CountPlanes base(width, all.first(n_base),
                                   whole.planes());
            ASSERT_EQ(base.planes(), whole.planes());
            const CountPlanes sum(base, all.last(2));
            const CountPlanes copy(sum);
            ASSERT_EQ(sum.planes(), whole.planes());
            EXPECT_EQ(sum.counts(), whole.counts());
            EXPECT_EQ(copy.counts(), whole.counts());
            for (std::size_t k = 0; k < whole.planes(); ++k)
                EXPECT_EQ(sum.plane(k), whole.plane(k)) << "plane " << k;
        }
    }
}

TEST(CountPlanes, RejectsRowsOfAnotherWidth)
{
    const BitVector a(64), b(65);
    const std::vector<const BitVector *> ok = {&a};
    const std::vector<const BitVector *> bad = {&b};
    EXPECT_THROW(CountPlanes(64, bad), PanicError);
    const CountPlanes base(64, ok, 2);
    EXPECT_THROW(CountPlanes(base, bad), PanicError);
    EXPECT_THROW(CountPlanes(64, ok, CountPlanes::maxPlanes + 1),
                 PanicError);
}

TEST(CountPlanes, RecountMatchesAFreshCount)
{
    // One counter kept across counts whose plane count grows and
    // shrinks (0 to 31 rows, and a forced plane count), at widths
    // whose planes fit inline and ones that do not: each recount
    // reads as a fresh counter of the same rows, every plane and
    // every wire, so no word of an earlier count survives; rows
    // decoded into one kept row read as freshly built ones, past the
    // largest count too.
    Rng rng(0x7ec);
    for (std::size_t width : {64u, 577u, 8192u}) {
        std::vector<BitVector> rows;
        for (std::size_t i = 0; i < 31; ++i) {
            BitVector r(width);
            r.setWords([&rng](std::size_t) { return rng.next(); });
            rows.push_back(std::move(r));
        }
        std::vector<const BitVector *> ptrs;
        for (const BitVector &r : rows)
            ptrs.push_back(&r);
        const std::span<const BitVector *const> all(ptrs);
        CountPlanes kept(width, {});
        BitVector out(width); // decoded rows land here, call after call
        for (std::size_t n : {7u, 31u, 1u, 0u, 3u, 16u, 2u, 31u, 7u}) {
            for (std::size_t planes : {0u, 6u}) {
                SCOPED_TRACE(::testing::Message() << "width=" << width
                                                  << " rows=" << n
                                                  << " planes=" << planes);
                kept.recount(all.first(n), planes);
                const CountPlanes fresh(width, all.first(n), planes);
                ASSERT_EQ(kept.planes(), fresh.planes());
                EXPECT_EQ(kept.counts(), fresh.counts());
                for (std::size_t k = 0; k <= fresh.planes(); ++k) {
                    kept.plane(k, out);
                    EXPECT_EQ(out, fresh.plane(k)) << "plane " << k;
                }
                for (std::size_t t = 0; t <= 64; t += t < n + 2 ? 1 : 31) {
                    kept.atLeast(t, out);
                    EXPECT_EQ(out, fresh.atLeast(t)) << "t=" << t;
                }
            }
        }
    }
}

TEST(CountPlanes, DecodedRowsOfAnotherWidthAreRejected)
{
    const CountPlanes counts(64, {}, 2);
    BitVector wrong(65);
    EXPECT_THROW(counts.atLeast(1, wrong), PanicError);
    EXPECT_THROW(counts.plane(0, wrong), PanicError);
}

} // namespace
} // namespace coruscant
