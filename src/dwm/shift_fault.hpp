/**
 * @file
 * Shifting-fault injection.
 *
 * Over- and under-shifting is the dominant DWM failure mode (paper
 * Sec. II-A): the current pulse that moves every domain wall one
 * position can move them two positions (over-shift) or fail to move
 * them at all (under-shift).  Either way the controller's position
 * bookkeeping is silently wrong afterwards and every subsequent access
 * reads or writes the neighbouring row — a misalignment, not a bit
 * flip, which is why TR-based detection (AlignmentGuard) is the
 * matching repair mechanism.
 *
 * This hook lets the nanowire / DBC shift paths perturb individual
 * shift pulses so end-to-end campaigns (src/reliability) can measure
 * the detected/corrected/silent breakdown of the full pipeline at
 * elevated rates.
 */

#ifndef CORUSCANT_DWM_SHIFT_FAULT_HPP
#define CORUSCANT_DWM_SHIFT_FAULT_HPP

#include <cstdint>

#include "util/rng.hpp"

namespace coruscant {

/** What a single shift pulse actually did. */
enum class ShiftOutcome
{
    Normal,     ///< moved exactly one position
    OverShift,  ///< moved two positions
    UnderShift, ///< did not move at all
};

/**
 * Probabilistically turns single-domain shifts into over-/under-shifts.
 *
 * A disabled model (probability 0) is the default and adds no overhead.
 * Corrective pulses issued by the alignment guard are modeled through
 * the same backdoor as the faults themselves and are NOT re-sampled.
 */
class ShiftFaultModel
{
  public:
    ShiftFaultModel() = default;

    /**
     * @param probability chance a single shift pulse misbehaves
     * @param seed RNG seed for reproducibility
     * @param over_fraction fraction of faults that are over-shifts
     *        (the rest are under-shifts)
     */
    ShiftFaultModel(double probability, std::uint64_t seed,
                    double over_fraction = 0.5)
        : faultProbability(probability),
          faultThreshold(Rng::boolThreshold(probability)),
          overFraction(over_fraction), rng(seed)
    {}

    /** Sample the outcome of one shift pulse. */
    ShiftOutcome
    sample()
    {
        if (faultProbability <= 0.0)
            return ShiftOutcome::Normal;
        if (!rng.nextBoolBelow(faultThreshold))
            return ShiftOutcome::Normal;
        if (rng.nextBool(overFraction)) {
            ++overShiftCount;
            return ShiftOutcome::OverShift;
        }
        ++underShiftCount;
        return ShiftOutcome::UnderShift;
    }

    /** Faults injected so far (over + under). */
    std::uint64_t
    injectedFaults() const
    {
        return overShiftCount + underShiftCount;
    }

    std::uint64_t overShifts() const { return overShiftCount; }
    std::uint64_t underShifts() const { return underShiftCount; }

    /**
     * Change the fault rate mid-stream (chaos ramps).  The RNG stream
     * is untouched, so runs remain reproducible for a fixed seed.
     */
    void
    setProbability(double p)
    {
        if (p != faultProbability) {
            faultProbability = p;
            faultThreshold = Rng::boolThreshold(p);
        }
    }

  private:
    /** sample() skips its draw only when <= 0: NaN draws, never faults. */
    double faultProbability = 0.0;
    /** Rng::boolThreshold(faultProbability). */
    std::uint64_t faultThreshold = 0;
    double overFraction = 0.5;
    Rng rng;
    std::uint64_t overShiftCount = 0;
    std::uint64_t underShiftCount = 0;
};

} // namespace coruscant

#endif // CORUSCANT_DWM_SHIFT_FAULT_HPP
