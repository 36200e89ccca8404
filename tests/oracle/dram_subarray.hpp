/**
 * @file
 * Functional DRAM subarray, the substrate of the Ambit oracle
 * (oracle/ambit.hpp).
 *
 * Models the three mechanisms the DRAM PIM proposals rely on:
 *  - RowClone FPM: copy a row to another row within the subarray by
 *    back-to-back activations (Seshadri et al., MICRO 2013);
 *  - triple-row activation (TRA): simultaneously opening three rows
 *    drives every bitline to the majority of the three cells
 *    (Ambit, MICRO 2017) — destructive: all three rows end up holding
 *    the majority value;
 *  - dual-contact cells (DCC): rows readable through BL-bar, yielding
 *    the negated value.
 */

#ifndef CORUSCANT_ORACLE_DRAM_SUBARRAY_HPP
#define CORUSCANT_ORACLE_DRAM_SUBARRAY_HPP

#include <cstddef>
#include <vector>

#include "util/bit_vector.hpp"

namespace coruscant {

/** One DRAM subarray with designated compute rows. */
class DramSubarray
{
  public:
    /**
     * @param rows number of rows
     * @param row_bits bits per row (paper-scale: 8 KiB = 65536)
     */
    DramSubarray(std::size_t rows, std::size_t row_bits);

    std::size_t rows() const { return numRows; }
    std::size_t rowBits() const { return bits; }

    const BitVector &row(std::size_t r) const;
    void setRow(std::size_t r, const BitVector &v);

    /** RowClone: copy row @p src over row @p dst. */
    void rowClone(std::size_t src, std::size_t dst);

    /**
     * Triple-row activation: rows @p a, @p b, @p c are all driven to
     * their bitwise majority (destructive, like the real mechanism).
     * @return the majority row
     */
    BitVector tripleRowActivate(std::size_t a, std::size_t b,
                                std::size_t c);

    /** Read row @p r through the DCC negated port. */
    BitVector readInverted(std::size_t r) const;

  private:
    std::size_t numRows;
    std::size_t bits;
    std::vector<BitVector> data;
};

} // namespace coruscant

#endif // CORUSCANT_ORACLE_DRAM_SUBARRAY_HPP
