/**
 * @file
 * Deterministic pseudo-random number generation for the simulators.
 *
 * A thin wrapper over a SplitMix64/xoshiro-style generator so simulation
 * runs are reproducible regardless of the standard library in use.
 */

#ifndef CORUSCANT_UTIL_RNG_HPP
#define CORUSCANT_UTIL_RNG_HPP

#include <cmath>
#include <cstdint>

namespace coruscant {

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
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
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

  private:
    std::uint64_t state;
};

/**
 * Independent Bernoulli(@p p) trials at positions [0, @p n): calls
 * @p hit(pos) for every success, drawing the geometric gap to the next
 * success instead of one trial per position (O(successes), not O(n)).
 * Returns the number of successes.
 */
template <class Hit>
inline std::uint64_t
forEachBernoulli(Rng &rng, std::uint64_t n, double p, Hit &&hit)
{
    if (p <= 0.0 || n == 0)
        return 0;
    if (p >= 1.0) {
        for (std::uint64_t pos = 0; pos < n; ++pos)
            hit(pos);
        return n;
    }
    const double logq = std::log1p(-p);
    std::uint64_t pos = 0;
    std::uint64_t hits = 0;
    while (pos < n) {
        double gap = std::floor(std::log1p(-rng.nextDouble()) / logq);
        if (gap >= static_cast<double>(n - pos))
            break;
        pos += static_cast<std::uint64_t>(gap);
        hit(pos++);
        ++hits;
    }
    return hits;
}

} // namespace coruscant

#endif // CORUSCANT_UTIL_RNG_HPP
