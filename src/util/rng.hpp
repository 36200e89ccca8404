/**
 * @file
 * Deterministic pseudo-random number generation for the simulators.
 *
 * A thin wrapper over a SplitMix64/xoshiro-style generator so simulation
 * runs are reproducible regardless of the standard library in use.
 */

#ifndef CORUSCANT_UTIL_RNG_HPP
#define CORUSCANT_UTIL_RNG_HPP

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace coruscant {

/**
 * SplitMix64's output function: a bijective mix of @p z whose outputs
 * for successive Weyl-sequence inputs pass as independent draws.  Rng,
 * the per-channel seeds and the stateless per-site hashes all use it.
 */
constexpr std::uint64_t
splitMix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Small fast deterministic RNG (SplitMix64). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : state(seed)
    {}

    /** Next 64 uniformly random bits. */
    std::uint64_t
    next()
    {
        return splitMix64(state += 0x9e3779b97f4a7c15ULL);
    }

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p. */
    bool
    nextBool(double p = 0.5)
    {
        return nextDouble() < p;
    }

    /**
     * The next @p n nextBool(@p p) draws packed LSB-first: bit i is
     * draw i, bits [n, 64) are zero, and the stream advances exactly
     * @p n steps.  A draw x = next() >> 11 succeeds when
     * x * 2^-53 < p, i.e. (x an integer) when x < ceil(p * 2^53), so
     * one integer threshold replaces the per-draw double compare.
     * @pre n <= 64
     */
    std::uint64_t
    nextBoolWord(std::size_t n, double p)
    {
        assert(n <= 64);
        const std::uint64_t threshold = boolThreshold(p);
        std::uint64_t word = 0;
        for (std::size_t i = 0; i < n; ++i)
            word |= static_cast<std::uint64_t>(nextBoolBelow(threshold))
                    << i;
        return word;
    }

    /**
     * nextBool(p) for @p threshold = boolThreshold(p): the same draw
     * and the same outcome, with p converted once by the caller.
     */
    bool
    nextBoolBelow(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /**
     * ceil(p * 2^53) clamped to [0, 2^53]: 0 (no draw succeeds) for
     * p <= 0 or NaN, 2^53 (every draw) for p >= 1.  p * 2^53 is exact
     * (a power-of-two scale), so the ceil is too.
     */
    static std::uint64_t
    boolThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return std::uint64_t{1} << 53;
        return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    }

  private:
    std::uint64_t state;
};

/**
 * A per-position success probability with the constants its geometric
 * gaps use: log1p(-p), which each gap divides by, and odds, a lower
 * bound on (1 - p) / p that settles a gap clearing the rest of the
 * range without the log1p (forEachBernoulli).  A rate that never
 * changes is built once and reused; one whose p varies per call
 * (retention decay over an elapsed time) is built per call.  p <= 0
 * and NaN never succeed, p >= 1 always does.
 */
class BernoulliRate
{
  public:
    BernoulliRate() = default;

    /** Rate @p p, with log1p(-p) and (1 - p) / p computed now. */
    explicit BernoulliRate(double p)
        : p_(p), logq_(p > 0.0 && p < 1.0 ? std::log1p(-p) : 0.0),
          odds_(p > 0.0 && p < 1.0 ? (1.0 - p) / p : 0.0)
    {}

    /**
     * The rate p = -expm1(-@p x) of an event with Poisson exposure
     * @p x (a decay rate times an elapsed time).  For 0 < x < 1, p
     * and log1p(-p) are computed only when a draw needs them, as the
     * same doubles; odds is then (1 - x) / x, a lower bound because
     * -expm1(-x) <= x and (1 - p) / p decreases in p.  Any other x is
     * resolved now, so never() and always() need no transcendental:
     * x <= 0 gives p = 0, and only x >= 1 can round p up to 1.
     */
    static BernoulliRate
    fromExposure(double x)
    {
        if (!(x > 0.0 && x < 1.0))
            return BernoulliRate(-std::expm1(-x));
        BernoulliRate rate;
        rate.exposure_ = x;
        rate.odds_ = (1.0 - x) / x;
        return rate;
    }

    /** No position succeeds: p <= 0 or NaN. */
    bool never() const { return exposure_ == 0.0 && !(p_ > 0.0); }

    /** Every position succeeds: p >= 1. */
    bool always() const { return p_ >= 1.0; }

    /** Success probability per position. */
    double
    p() const
    {
        return exposure_ > 0.0 ? -std::expm1(-exposure_) : p_;
    }

    /** log1p(-p), for 0 < p < 1. */
    double
    logq() const
    {
        return exposure_ > 0.0 ? std::log1p(-p()) : logq_;
    }

    /** A lower bound on (1 - p) / p, for 0 < p < 1. */
    double odds() const { return odds_; }

  private:
    double p_ = 0.0;
    double logq_ = 0.0;
    double odds_ = 0.0;
    /** The exposure x while p and logq wait for a draw; 0 otherwise. */
    double exposure_ = 0.0;
};

/**
 * Independent Bernoulli(@p rate.p()) trials at positions [0, @p n):
 * calls @p hit(pos) for every success, drawing the geometric gap to
 * the next success instead of one trial per position (O(successes),
 * not O(n)).  Returns the number of successes.
 */
template <class Hit>
inline std::uint64_t
forEachBernoulli(Rng &rng, std::uint64_t n, const BernoulliRate &rate,
                 Hit &&hit)
{
    if (rate.never() || n == 0)
        return 0;
    if (rate.always()) {
        for (std::uint64_t pos = 0; pos < n; ++pos)
            hit(pos);
        return n;
    }
    std::uint64_t pos = 0;
    std::uint64_t hits = 0;
    while (pos < n) {
        const double u = rng.nextDouble();
        const double rest = static_cast<double>(n - pos);
        // No hit in [pos, n), settled without the log1p.  The gap is
        // floor(g), g = log1p(-u) / log1p(-p).  Since -log1p(-u) >= u
        // and 0 < -log1p(-p) <= p / (1 - p), g >= u * (1 - p) / p >=
        // u * odds.  When u * odds clears rest by a relative 1e-9 plus
        // 2 (far more than the rounding of the two log1p, the division
        // and odds can take away), the gap computed below would clear
        // rest too, after this same single draw.
        if (u * rate.odds() >= rest * (1.0 + 1e-9) + 2.0)
            break;
        const double gap = std::floor(std::log1p(-u) / rate.logq());
        if (gap >= rest)
            break;
        pos += static_cast<std::uint64_t>(gap);
        hit(pos++);
        ++hits;
    }
    return hits;
}

} // namespace coruscant

#endif // CORUSCANT_UTIL_RNG_HPP
