/**
 * @file
 * The PIM block of one nanowire (paper Fig. 4(b)): the sense
 * amplifier's seven-level thermometer code and its decode into the
 * bulk-bitwise and addition outputs, one TR count at a time.
 *
 * bulkOpRow() (core/pim_logic) decodes every wire of a row at once
 * from count planes; this per-wire decode is the reference it, and the
 * CoruscantUnit operations built on it, are checked against.
 */

#ifndef CORUSCANT_ORACLE_PIM_DECODE_HPP
#define CORUSCANT_ORACLE_PIM_DECODE_HPP

#include <array>
#include <cstddef>

#include "core/pim_logic.hpp"

namespace coruscant {

/** Seven-level thermometer code produced by the modified SA. */
struct SenseLevels
{
    std::array<bool, 7> geq{}; ///< geq[j-1] == (count >= j)

    /** Build from a raw ones count. */
    static SenseLevels
    fromCount(std::size_t count)
    {
        SenseLevels s;
        for (std::size_t j = 1; j <= 7; ++j)
            s.geq[j - 1] = count >= j;
        return s;
    }

    /** Decode back to the count (thermometer property). */
    std::size_t
    count() const
    {
        std::size_t c = 0;
        for (bool b : geq)
            c += b ? 1 : 0;
        return c;
    }
};

/** Decoded outputs of one PIM block evaluation. */
struct PimOutputs
{
    bool orOut;
    bool andOut;
    bool xorOut;
    bool sum;        ///< S  (== xorOut)
    bool carry;      ///< C  (weight 2)
    bool superCarry; ///< C' (weight 4); doubles as >=4-of-7 majority
};

/**
 * Evaluate the PIM block for a TR ones count.
 *
 * @param count ones counted by the TR
 * @param window number of domains spanned by the TR (for AND)
 */
PimOutputs evalPimLogic(std::size_t count, std::size_t window);

/** Select a single bulk-bitwise result bit from the PIM outputs. */
bool selectBulkOp(BulkOp op, const PimOutputs &out);

} // namespace coruscant

#endif // CORUSCANT_ORACLE_PIM_DECODE_HPP
