/**
 * @file
 * Combinational PIM logic fed by the transverse-read sense amplifier.
 *
 * Paper Fig. 4(b): each nanowire's modified sense amplifier outputs a
 * seven-level thermometer code (SA[j] = 1 iff the TR counted >= j ones,
 * j in 1..7).  The PIM block decodes that code into the bulk-bitwise
 * results and the addition outputs:
 *
 *   OR   = t >= 1              NOR  = !OR
 *   AND  = t >= window         NAND = !AND
 *   XOR  = t odd               XNOR = !XOR
 *   S    = t & 1   (sum; equals XOR)
 *   C    = (t >> 1) & 1  ("above two and not above four, or above six")
 *   C'   = (t >> 2) & 1  ("above four")
 *
 * These are pure functions of the ones count; the hardware realizes
 * them with a small NAND/NAND network whose energy/area is captured in
 * DeviceParams / AreaModel.  evalPimLogic() decodes one wire's count;
 * bulkOpRow() decodes every wire at once from the count planes of a
 * row-wide transverse read (S, C, C' are planes 0, 1, 2).
 */

#ifndef CORUSCANT_CORE_PIM_LOGIC_HPP
#define CORUSCANT_CORE_PIM_LOGIC_HPP

#include <array>
#include <cstddef>
#include <string>

#include "dwm/count_planes.hpp"
#include "util/bit_vector.hpp"

namespace coruscant {

/** Bulk-bitwise operations CORUSCANT computes in a single TR. */
enum class BulkOp { And, Nand, Or, Nor, Xor, Xnor, Not, Maj };

/** Human-readable op name (for reports and traces). */
const char *bulkOpName(BulkOp op);

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

/**
 * Word-wide selectBulkOp(op, evalPimLogic(count, window)) over every
 * wire of a row-wide transverse read.
 */
BitVector bulkOpRow(BulkOp op, const CountPlanes &counts,
                    std::size_t window);

} // namespace coruscant

#endif // CORUSCANT_CORE_PIM_LOGIC_HPP
