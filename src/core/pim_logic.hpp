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
 * DeviceParams / AreaModel.  bulkOpRow() decodes every wire at once
 * from the count planes of a row-wide transverse read (S, C, C' are
 * planes 0, 1, 2); the per-wire decode it is checked against lives in
 * tests/oracle/pim_decode.
 */

#ifndef CORUSCANT_CORE_PIM_LOGIC_HPP
#define CORUSCANT_CORE_PIM_LOGIC_HPP

#include <cstddef>

#include "dwm/count_planes.hpp"
#include "util/bit_vector.hpp"

namespace coruscant {

/** Bulk-bitwise operations CORUSCANT computes in a single TR. */
enum class BulkOp { And, Nand, Or, Nor, Xor, Xnor, Not, Maj };

/** Human-readable op name (for reports and traces). */
const char *bulkOpName(BulkOp op);

/**
 * Into @p out, a row of the counter's width, the bulk-bitwise result
 * of @p op on every wire of a row-wide transverse read over a
 * @p window-domain TR.  The row is overwritten in place, so a kept
 * row allocates nothing.
 */
void bulkOpRow(BulkOp op, const CountPlanes &counts, std::size_t window,
               BitVector &out);

} // namespace coruscant

#endif // CORUSCANT_CORE_PIM_LOGIC_HPP
