/**
 * @file
 * Rng word draws: nextBoolWord must be the same stream as per-draw
 * nextBool calls, bit for bit, including the stream position after.
 * forEachBernoulli with a precomputed BernoulliRate must place the
 * same hits as the body that recomputed log1p(-p) on every call.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

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

/**
 * forEachBernoulli as it was before BernoulliRate: p passed by value
 * and log1p(-p) computed on every call.  Test oracle only; NaN is
 * out of its domain (the gap cast of a NaN is undefined).
 */
std::vector<std::uint64_t>
referenceBernoulliHits(Rng &rng, std::uint64_t n, double p)
{
    std::vector<std::uint64_t> hits;
    if (p <= 0.0 || n == 0)
        return hits;
    if (p >= 1.0) {
        for (std::uint64_t pos = 0; pos < n; ++pos)
            hits.push_back(pos);
        return hits;
    }
    const double logq = std::log1p(-p);
    std::uint64_t pos = 0;
    while (pos < n) {
        double gap = std::floor(std::log1p(-rng.nextDouble()) / logq);
        if (gap >= static_cast<double>(n - pos))
            break;
        pos += static_cast<std::uint64_t>(gap);
        hits.push_back(pos++);
    }
    return hits;
}

std::vector<std::uint64_t>
bernoulliHits(Rng &rng, std::uint64_t n, const BernoulliRate &rate)
{
    std::vector<std::uint64_t> hits;
    std::uint64_t count = forEachBernoulli(
        rng, n, rate, [&](std::uint64_t pos) { hits.push_back(pos); });
    EXPECT_EQ(count, hits.size());
    return hits;
}

TEST(Rng, PrecomputedBernoulliRateDrawsTheSameStream)
{
    // The rates the memory and the service draw at, both ends of (0,
    // 1), and the values the early returns take: p <= 0 and p >= 1.
    const double probabilities[] = {
        1e-6, 1e-4, 0.01, 0.3, 0.999, std::ldexp(1.0, -60),
        1.0 - std::ldexp(1.0, -53), 0.0, -0.0, -0.5, 1.0, 1.5};
    // 72 and 73 straddle a SECDED codeword (64 data + 8 check bits).
    const std::uint64_t sizes[] = {0, 1, 72, 73, 4096,
                                   std::uint64_t{1} << 20};
    std::uint64_t seed = 29;
    for (std::uint64_t n : sizes) {
        for (double p : probabilities) {
            SCOPED_TRACE(::testing::Message() << "n " << n << " p " << p);
            Rng fresh(seed);
            Rng reference(seed);
            ++seed;
            const BernoulliRate rate(p);
            // Several calls on one stream: each must leave the Rng
            // where the reference does.
            for (int rep = 0; rep < 3; ++rep) {
                EXPECT_EQ(bernoulliHits(fresh, n, rate),
                          referenceBernoulliHits(reference, n, p));
            }
            EXPECT_EQ(fresh.next(), reference.next());
        }
    }
}

TEST(Rng, NanBernoulliRateNeverSucceedsAndDrawsNothing)
{
    const BernoulliRate rate(std::numeric_limits<double>::quiet_NaN());
    for (std::uint64_t n : {std::uint64_t{1}, std::uint64_t{73},
                            std::uint64_t{1} << 20}) {
        Rng rng(3);
        Rng untouched(3);
        EXPECT_TRUE(bernoulliHits(rng, n, rate).empty()) << "n " << n;
        EXPECT_EQ(rng.next(), untouched.next()) << "n " << n;
    }
    // A default rate is p = 0.
    Rng rng(4);
    Rng untouched(4);
    EXPECT_TRUE(bernoulliHits(rng, 4096, BernoulliRate{}).empty());
    EXPECT_EQ(rng.next(), untouched.next());
}

} // namespace
} // namespace coruscant
