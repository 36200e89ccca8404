/**
 * @file
 * DRAM bulk-bitwise PIM baselines: Ambit and ELP2IM.
 *
 * Ambit (Seshadri et al., MICRO 2017) computes two-operand bulk ops by
 * RowClone-ing the operands into a designated row group, opening three
 * rows at once (majority), and using dual-contact cells for negation.
 * Every step is an AAP (ACTIVATE-ACTIVATE-PRECHARGE) command sequence.
 *
 * ELP2IM (Xin et al., HPCA 2020) instead manipulates the sense
 * amplifier's pseudo-precharge state so the logic happens in the SA,
 * avoiding the operand copies; it needs a short sequence of row
 * activations per operation and is ~3.2x faster than Ambit on bitmap
 * scans.
 *
 * Both designs produce the same bits, so one unit computes each step
 * with word operations and charges the design's published command
 * count (its price list) in DDR3-1600 memory cycles with the paper
 * Table II DRAM timing.  Ambit's RowClone/TRA/DCC command sequence is
 * a test oracle (tests/oracle/ambit.hpp) the unit is checked against.
 */

#ifndef CORUSCANT_BASELINES_DRAM_PIM_HPP
#define CORUSCANT_BASELINES_DRAM_PIM_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/pim_logic.hpp"
#include "util/bit_vector.hpp"
#include "util/stats.hpp"

namespace coruscant {

/**
 * A DRAM PIM design's price list: the command each step is built from
 * and how many of them each op takes.
 */
struct DramPriceList
{
    Cost command;                    ///< Cost::Aap or Cost::Ap
    unsigned activations;            ///< row activations per command
    std::size_t (*count)(BulkOp op); ///< commands per op
};

/** Two-operand bulk-bitwise steps in DRAM, charged per a price list. */
class DramPimUnit
{
  public:
    DramPimUnit(std::size_t row_bits, const DramPriceList &price_list);

    /**
     * Two-operand bulk-bitwise operation in place: @p acc becomes
     * @p acc op @p b, charged as one two-operand step.  An op with no
     * two-operand form (NOT, MAJ) is rejected before any charge.
     */
    void fold(BulkOp op, BitVector &acc, const BitVector &b);

    /** NOT of one row. */
    BitVector bulkNot(const BitVector &a);

    /**
     * Multi-operand operation composed from two-operand steps (these
     * designs have no multi-operand primitive), folded into one
     * accumulator; the bulkMulti() below over the rows of @p ops,
     * each row_bits wide.
     */
    BitVector bulkMulti(BulkOp op, const std::vector<BitVector> &ops);

    /**
     * bulkMulti() into @p acc, a row of row_bits that the caller keeps,
     * over operand rows given by their words: row i takes the first
     * words of @p ops[i], zeros past the end of a shorter span (words
     * and bits past row_bits are dropped).  The ledger gets the charges
     * of the two-operand folds, in their order, and then the closing
     * NOT of an inverting op.  Each operand word is read once: the
     * first row is copied into @p acc (or taken in place, if it is
     * @p acc's own words) and each other one folded into it from its
     * span.
     */
    void bulkMulti(BulkOp op, std::span<const WordSpan> ops, BitVector &acc);

    const CostLedger &ledger() const { return costs; }
    void resetCosts() { costs.reset(); }

  private:
    /** Charge @p n commands of the price list. */
    void charge(std::size_t n);

    std::size_t rowBits;
    DramPriceList prices;
    std::uint64_t commandCycles;
    double commandEnergyPj;
    CostLedger costs;
};

/** Ambit: each step is a sequence of AAPs (TRA + RowClone + DCC). */
class AmbitUnit : public DramPimUnit
{
  public:
    explicit AmbitUnit(std::size_t row_bits);

    /** AAP count for a two-operand op (published sequences). */
    static std::size_t aapCount(BulkOp op);
};

/** ELP2IM: pseudo-precharge in-SA logic, no operand copies. */
class Elp2ImUnit : public DramPimUnit
{
  public:
    explicit Elp2ImUnit(std::size_t row_bits);

    /** Row-activation phases (APs) for a two-operand op. */
    static std::size_t phaseCount(BulkOp op);
};

} // namespace coruscant

#endif // CORUSCANT_BASELINES_DRAM_PIM_HPP
