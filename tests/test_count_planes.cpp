/**
 * @file
 * CountPlanes' word-wide threshold against the per-wire counts it
 * holds.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dwm/count_planes.hpp"
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

} // namespace
} // namespace coruscant
