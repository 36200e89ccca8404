/**
 * @file
 * Analytical reliability model for CORUSCANT operations (paper
 * Sec. V-F, Table V).
 *
 * Device ground truth (from the paper's LLG micromagnetics + total
 * differential analysis): a transverse read misreads its ones count by
 * exactly one level with probability ~1e-6; two-or-more-level faults
 * are negligible.
 *
 * Per-bit error rates follow from which level transitions flip each
 * output, with counts assumed uniformly distributed over the TRD
 * levels and fault direction symmetric:
 *
 *   OR / AND / C'  : one boundary level pair     -> p / TRD
 *   XOR (= S)      : every fault flips parity    -> p
 *   C              : floor((TRD-1)/2) flip pairs -> that / TRD * p
 *
 * These reproduce the paper's Table V per-bit rows exactly.
 * Operation-level rates multiply by the number of TR opportunities;
 * N-modular redundancy requires a majority of replicas to fail in the
 * same bit position with the same polarity (plus a fault in sensing
 * the C' vote itself).
 */

#ifndef CORUSCANT_RELIABILITY_ERROR_MODEL_HPP
#define CORUSCANT_RELIABILITY_ERROR_MODEL_HPP

#include <cstddef>

namespace coruscant {

/** Analytical error rates as a function of TRD and the TR fault rate. */
class TrErrorModel
{
  public:
    explicit TrErrorModel(std::size_t trd, double p_fault = 1e-6);

    std::size_t trd() const { return trd_; }

    // --- Per-bit rates (Table V, top block) ---------------------------

    /** OR, AND, and C' share the single-boundary structure. */
    double perBitOrAndSuperCarry() const;

    /** XOR / sum: any one-level fault flips the parity. */
    double perBitXor() const;

    /** Carry C = bit 1 of the count. */
    double perBitCarry() const;

    // --- Operation rates (Table V, middle block) ----------------------

    /** k-bit addition: one TR per bit position. */
    double addError(std::size_t bits) const;

    /**
     * k-bit multiplication via the optimized CSA strategy: per-wire TR
     * opportunities accumulate over the reduction rounds and the final
     * addition; smaller TRDs need more rounds, hence the paper's
     * higher error at C3/C5.
     */
    double multiplyError(std::size_t bits) const;

    /** Per-wire TR opportunities in a k-bit multiply (exposed). */
    std::size_t multiplyTrOpportunities(std::size_t bits) const;

    // --- N-modular redundancy (Table V, bottom block) ------------------

    /**
     * Probability an N-modular-redundant k-bit result is wrong:
     * ceil(N/2) replicas must fail at the same bit with the same
     * polarity, or enough replicas fail alongside a fault in the
     * voting TR itself.
     *
     * @param per_bit_error the protected operation's per-bit rate
     */
    double nmrError(double per_bit_error, std::size_t n,
                    std::size_t bits) const;

    /** Convenience: N-modular add / multiply error for k bits. */
    double nmrAddError(std::size_t n, std::size_t bits) const;
    double nmrMultiplyError(std::size_t n, std::size_t bits) const;

  private:
    std::size_t trd_;
    double p;
};

} // namespace coruscant

#endif // CORUSCANT_RELIABILITY_ERROR_MODEL_HPP
