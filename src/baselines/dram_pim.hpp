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
 * Costs are expressed in DDR3-1600 memory cycles with the paper
 * Table II DRAM timing; command counts follow each paper's published
 * sequences.  Both models are functional: they produce bit-exact
 * results via the DramSubarray mechanisms.
 */

#ifndef CORUSCANT_BASELINES_DRAM_PIM_HPP
#define CORUSCANT_BASELINES_DRAM_PIM_HPP

#include <vector>

#include "arch/timing.hpp"
#include "baselines/dram_subarray.hpp"
#include "core/pim_logic.hpp"
#include "util/stats.hpp"

namespace coruscant {

/** Common interface for the two DRAM PIM baselines. */
class DramPimUnit
{
  public:
    explicit DramPimUnit(std::size_t row_bits)
        : timing(DdrTiming::dram()), rowBits(row_bits)
    {}
    virtual ~DramPimUnit() = default;

    /**
     * Two-operand bulk-bitwise operation in place: @p acc becomes
     * @p acc op @p b, charged as one two-operand step.
     */
    virtual void fold(BulkOp op, BitVector &acc, const BitVector &b) = 0;

    /** Two-operand bulk-bitwise operation: fold() into a copy of @p a. */
    BitVector
    bulk2(BulkOp op, const BitVector &a, const BitVector &b)
    {
        BitVector acc = a;
        fold(op, acc, b);
        return acc;
    }

    /** NOT of one row. */
    virtual BitVector bulkNot(const BitVector &a) = 0;

    /**
     * Multi-operand operation composed from two-operand steps (these
     * designs have no multi-operand primitive), folded into one
     * accumulator.
     */
    BitVector bulkMulti(BulkOp op, const std::vector<BitVector> &ops);

    const CostLedger &ledger() const { return costs; }
    void resetCosts() { costs.reset(); }

  protected:
    /** Panic unless both rows of a step are rowBits wide. */
    void checkWidths(const BitVector &a, const BitVector &b) const;

    /** Charge one AAP (ACTIVATE-ACTIVATE-PRECHARGE). */
    void chargeAap();

    /** Charge one AP (ACTIVATE-PRECHARGE). */
    void chargeAp();

    DdrTiming timing;
    std::size_t rowBits;
    CostLedger costs;
};

/** Ambit: TRA + RowClone + DCC over a scratch subarray. */
class AmbitUnit : public DramPimUnit
{
  public:
    explicit AmbitUnit(std::size_t row_bits);

    void fold(BulkOp op, BitVector &acc, const BitVector &b) override;
    BitVector bulkNot(const BitVector &a) override;

    /** AAP count for a two-operand op (published sequences). */
    static std::size_t aapCount(BulkOp op);

  private:
    // Scratch subarray: rows 0..2 = T0..T2 (TRA group), 3 = DCC,
    // 4 = constant zero, 5 = constant one, 6/7 = operand staging.
    DramSubarray scratch;
};

/** ELP2IM: pseudo-precharge in-SA logic, no operand copies. */
class Elp2ImUnit : public DramPimUnit
{
  public:
    explicit Elp2ImUnit(std::size_t row_bits);

    void fold(BulkOp op, BitVector &acc, const BitVector &b) override;
    BitVector bulkNot(const BitVector &a) override;

    /** Row-activation phases for a two-operand op. */
    static std::size_t phaseCount(BulkOp op);
};

} // namespace coruscant

#endif // CORUSCANT_BASELINES_DRAM_PIM_HPP
