/**
 * @file
 * Rng word draws: nextBoolWord must be the same stream as per-draw
 * nextBool calls, bit for bit, including the stream position after.
 * forEachBernoulli with a precomputed BernoulliRate must place the
 * same hits as the body that recomputed log1p(-p) on every call and
 * had no no-hit bound, whether the rate is given as p or as an
 * exposure.  ShiftFaultModel's integer threshold must draw the
 * nextBool(p) stream.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dwm/shift_fault.hpp"
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

TEST(Rng, NoHitBoundMatchesTheExactGapNearItsMargin)
{
    // forEachBernoulli stops without a log1p when u * odds >= rest *
    // (1 + 1e-9) + 2.  For each seed, the range n is chosen so that the
    // first draw's u * odds lands within 1e-6 (relative) of that
    // margin, and the seeds are scanned until enough draws land on
    // each side.  Later calls on the same stream draw at random.
    constexpr double kWithin = 1e-6;
    constexpr int kPerSide = 8;
    for (double p : {1e-12, 1e-8, 1e-6, 1e-4}) {
        const BernoulliRate rate(p);
        int below = 0;
        int above = 0;
        for (std::uint64_t seed = 1;
             seed < 100000 && (below < kPerSide || above < kPerSide);
             ++seed) {
            Rng peek(seed);
            const double v = peek.nextDouble() * rate.odds();
            const double n0 = std::floor((v - 2.0) / (1.0 + 1e-9));
            for (double nd : {n0, n0 + 1.0}) {
                if (nd < 1.0)
                    continue;
                const double margin = nd * (1.0 + 1e-9) + 2.0;
                const double rel = (v - margin) / margin;
                if (std::fabs(rel) > kWithin)
                    continue;
                int &side = rel >= 0.0 ? above : below;
                if (side >= kPerSide)
                    continue;
                ++side;
                const auto n = static_cast<std::uint64_t>(nd);
                SCOPED_TRACE(::testing::Message()
                             << "p " << p << " seed " << seed << " n " << n
                             << " rel " << rel);
                Rng fresh(seed);
                Rng reference(seed);
                for (int rep = 0; rep < 3; ++rep)
                    EXPECT_EQ(bernoulliHits(fresh, n, rate),
                              referenceBernoulliHits(reference, n, p));
                EXPECT_EQ(fresh.next(), reference.next());
            }
        }
        EXPECT_EQ(below, kPerSide) << "p " << p;
        EXPECT_EQ(above, kPerSide) << "p " << p;
    }
}

TEST(Rng, ExposureRateDrawsTheEagerRateStream)
{
    // fromExposure(x) defers p = -expm1(-x) and log1p(-p) for
    // 0 < x < 1 and bounds odds by (1 - x) / x; it must draw what the
    // rate built from p now draws.  1e-3 and 0.1 take the deferred
    // path to many hits.
    const double exposures[] = {
        0.0, std::numeric_limits<double>::denorm_min(), 1e-8, 1e-3, 0.1,
        0.5, 1.0, 40.0, 1e300, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    std::uint64_t seed = 41;
    for (std::uint64_t n : {1, 72, 73, 4096}) {
        for (double x : exposures) {
            SCOPED_TRACE(::testing::Message() << "n " << n << " x " << x);
            const BernoulliRate lazy = BernoulliRate::fromExposure(x);
            const BernoulliRate eager(-std::expm1(-x));
            if (!std::isnan(x)) {
                EXPECT_EQ(lazy.p(), eager.p());
                EXPECT_EQ(lazy.logq(), eager.logq());
            }
            Rng a(seed);
            Rng b(seed);
            ++seed;
            for (int rep = 0; rep < 64; ++rep)
                EXPECT_EQ(bernoulliHits(a, n, lazy),
                          bernoulliHits(b, n, eager));
            EXPECT_EQ(a.next(), b.next());
        }
    }
    // The deferred constants are the eager doubles over (0, 1), where
    // log1p(-p) and -x differ in the last bit for about 2 % of x.
    for (int i = 0; i < 2000; ++i) {
        const double x = std::pow(10.0, -12.0 + 12.0 * i / 2000.0);
        const BernoulliRate lazy = BernoulliRate::fromExposure(x);
        const BernoulliRate eager(-std::expm1(-x));
        EXPECT_EQ(lazy.p(), eager.p()) << "x " << x;
        EXPECT_EQ(lazy.logq(), eager.logq()) << "x " << x;
    }
}

/** ShiftFaultModel::sample as it was, drawing nextBool(p) per pulse. */
struct ReferenceShiftFaults
{
    double p;
    double overFraction;
    Rng rng;

    ShiftOutcome
    sample()
    {
        if (p <= 0.0 || !rng.nextBool(p))
            return ShiftOutcome::Normal;
        return rng.nextBool(overFraction) ? ShiftOutcome::OverShift
                                          : ShiftOutcome::UnderShift;
    }
};

TEST(Rng, ShiftFaultThresholdDrawsTheNextBoolStream)
{
    // Each base rate runs a chaos ramp (x1, x4, x10, x1), setting the
    // same rate again between steps; NaN draws and never faults, while
    // 0 and -0 skip the draw.
    const double bases[] = {0.0, -0.0, 1e-4, 0.5, 1.0, 1.5,
                            std::numeric_limits<double>::quiet_NaN()};
    std::uint64_t seed = 53;
    for (double base : bases) {
        SCOPED_TRACE(::testing::Message() << "base " << base);
        ShiftFaultModel model(base, seed, 0.3);
        ReferenceShiftFaults ref{base, 0.3, Rng(seed)};
        ++seed;
        std::uint64_t faults = 0;
        for (double scale : {1.0, 1.0, 4.0, 4.0, 10.0, 1.0, 1.0}) {
            model.setProbability(base * scale);
            ref.p = base * scale;
            for (int pulse = 0; pulse < 2000; ++pulse) {
                const ShiftOutcome want = ref.sample();
                faults += want != ShiftOutcome::Normal;
                ASSERT_EQ(model.sample(), want) << "scale " << scale
                                                << " pulse " << pulse;
            }
        }
        EXPECT_EQ(model.injectedFaults(), faults);
        // Equal streams afterwards: the next draws agree too.
        model.setProbability(0.5);
        ref.p = 0.5;
        for (int pulse = 0; pulse < 64; ++pulse)
            ASSERT_EQ(model.sample(), ref.sample()) << "pulse " << pulse;
    }
}

} // namespace
} // namespace coruscant
