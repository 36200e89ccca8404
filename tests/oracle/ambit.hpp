/**
 * @file
 * Ambit's bulk-bitwise steps as its command choreography: the
 * reference AmbitUnit (baselines/dram_pim) is checked against.  Each
 * step RowClones its operands and a control row into the TRA group,
 * opens the three rows at once (majority), and negates through the
 * dual-contact cells, over a scratch subarray.
 */

#ifndef CORUSCANT_ORACLE_AMBIT_HPP
#define CORUSCANT_ORACLE_AMBIT_HPP

#include "core/pim_logic.hpp"
#include "oracle/dram_subarray.hpp"

namespace coruscant {

/** Ambit: TRA + RowClone + DCC over a scratch subarray. */
class AmbitOracle
{
  public:
    explicit AmbitOracle(std::size_t row_bits);

    /** @p acc becomes @p acc op @p b (a two-operand op). */
    void fold(BulkOp op, BitVector &acc, const BitVector &b);

    /** NOT of one row, read through the DCC row. */
    BitVector bulkNot(const BitVector &a);

  private:
    // Scratch subarray: rows 0..2 = T0..T2 (TRA group), 3 = DCC,
    // 4 = constant zero, 5 = constant one, 6/7 = operand staging.
    DramSubarray scratch;
};

} // namespace coruscant

#endif // CORUSCANT_ORACLE_AMBIT_HPP
