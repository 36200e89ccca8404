/**
 * @file
 * Rng word draws: nextBoolWord must be the same stream as per-draw
 * nextBool calls, bit for bit, including the stream position after.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/rng.hpp"

namespace coruscant {
namespace {

TEST(Rng, BoolWordMatchesPerDrawStream)
{
    // Probabilities outside [0, 1], NaN, both ends of the threshold
    // range (the smallest threshold 1 and the largest below 2^53) and
    // the ones bitmap synthesis uses.
    const double probabilities[] = {
        -0.5, 0.0, std::ldexp(1.0, -60), 0.2, 0.5, 0.7,
        1.0 - std::ldexp(1.0, -53), 1.0, 1.5,
        std::numeric_limits<double>::quiet_NaN()};
    std::uint64_t seed = 11;
    for (std::size_t n : {0, 1, 37, 63, 64}) {
        for (double p : probabilities) {
            SCOPED_TRACE(::testing::Message() << "n " << n << " p " << p);
            Rng words(seed);
            Rng draws(seed);
            ++seed;
            for (int rep = 0; rep < 16; ++rep) {
                std::uint64_t expect = 0;
                for (std::size_t i = 0; i < n; ++i)
                    expect |= static_cast<std::uint64_t>(draws.nextBool(p))
                              << i;
                EXPECT_EQ(words.nextBoolWord(n, p), expect);
            }
            EXPECT_EQ(words.next(), draws.next());
        }
    }
}

TEST(Rng, BoolWordMatchesPerDrawAtDrawValues)
{
    // p at a draw's own value x * 2^-53 and one ulp either side: a
    // threshold off by one (floor for ceil, <= for <) flips that draw,
    // which random p would reach with probability 2^-53.  Below 0.5
    // the ulp is finer than 2^-53, so p * 2^53 is not an integer.
    Rng peek(5);
    for (std::size_t k = 0; k < 64; ++k) {
        const double at =
            static_cast<double>(peek.next() >> 11) * 0x1.0p-53;
        for (double p : {at, std::nextafter(at, 2.0),
                         std::nextafter(at, -1.0)}) {
            SCOPED_TRACE(::testing::Message() << "draw " << k << " p " << p);
            Rng words(5);
            Rng draws(5);
            std::uint64_t expect = 0;
            for (std::size_t i = 0; i < 64; ++i)
                expect |= static_cast<std::uint64_t>(draws.nextBool(p)) << i;
            EXPECT_EQ(words.nextBoolWord(64, p), expect);
        }
    }
}

} // namespace
} // namespace coruscant
