/**
 * @file
 * Transverse-read fault injection.
 *
 * The paper's reliability analysis (Section V-F) models a TR fault as
 * the aggregate count being read one level too high or too low, with
 * probability ~1e-6 per TR; faults of two or more levels are negligible.
 * This hook lets the nanowire / DBC models perturb TR results so the
 * analytical error model (src/reliability) can be cross-validated by
 * Monte-Carlo injection at elevated rates.
 */

#ifndef CORUSCANT_DWM_FAULT_MODEL_HPP
#define CORUSCANT_DWM_FAULT_MODEL_HPP

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace coruscant {

/**
 * Injects +/-1 level errors into transverse reads.
 *
 * A disabled model (probability 0) is the default and adds no overhead.
 */
class TrFaultModel
{
  public:
    TrFaultModel() = default;

    /**
     * @param probability chance a single TR misreads by one level
     * @param seed RNG seed for reproducibility
     */
    TrFaultModel(double probability, std::uint64_t seed)
        : faultProbability(probability), rng(seed)
    {}

    /** Whether any TR can be perturbed (probability above zero). */
    bool active() const { return faultProbability > 0.0; }

    /**
     * Possibly perturb a TR result.
     *
     * @param true_count the fault-free ones count
     * @param window the TR window length (count is clamped to [0,window])
     * @return the observed count
     */
    std::size_t
    perturb(std::size_t true_count, std::size_t window)
    {
        if (!active())
            return true_count;
        if (!rng.nextBool(faultProbability))
            return true_count;
        ++injected;
        bool up = rng.nextBool(0.5);
        // Direction is flipped at the range limits: a saturated read
        // can only err inward.
        if (true_count == 0)
            up = true;
        else if (true_count == window)
            up = false;
        return up ? true_count + 1 : true_count - 1;
    }

    /** Number of faults injected so far. */
    std::uint64_t injectedFaults() const { return injected; }

  private:
    double faultProbability = 0.0;
    Rng rng;
    std::uint64_t injected = 0;
};

} // namespace coruscant

#endif // CORUSCANT_DWM_FAULT_MODEL_HPP
