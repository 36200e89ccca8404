/**
 * @file
 * Prior DWM processing-in-memory proposals: DW-NN and SPIM.
 *
 * DW-NN (Yu et al., ASP-DAC 2014) builds a PIM processing element with
 * dedicated circuitry that passes current through two stacked domains,
 * measuring the aggregate giant magnetoresistance to compute XOR; a
 * precharge sense amplifier over three nanowires derives the carry.
 * Both sum and carry are computed bit-serially, with the operands
 * shifted into alignment for every bit.
 *
 * SPIM (Liu et al., ISPA 2017) extends DWM storage with dedicated
 * skyrmion-based computing units: custom ferromagnetic domains joined
 * by channels that implement OR/AND, composed into full adders.
 *
 * Neither design's RTL is available; the paper compares against their
 * published 8-bit operation costs (Table III).  These models carry
 * bit-serial cost formulas whose per-bit constants are calibrated to
 * reproduce the published 8-bit values exactly.
 */

#ifndef CORUSCANT_BASELINES_DWM_PIM_BASELINES_HPP
#define CORUSCANT_BASELINES_DWM_PIM_BASELINES_HPP

#include <cstdint>

#include "core/op_cost.hpp"

namespace coruscant {

/** How a five-operand addition is composed from two-operand units. */
enum class ComposeMode
{
    AreaOptimized,    ///< one adder reused serially
    LatencyOptimized, ///< replicated adders in a tree
};

/** Cost model of one prior DWM PIM design. */
class DwmPimBaseline
{
  public:
    /** Per-design calibration constants (see the .cpp). */
    struct Calibration
    {
        // addition: cycles = addPerBit * bits + addSetup
        double addPerBit;
        double addSetup;
        // m-operand composition overheads
        double serialRestage;  ///< extra cycles per intermediate result
        double treeOverhead;   ///< latency-optimized extra cycles
        // multiplication: cycles = mulPerBitSq * bits^2 + mulSetup
        double mulPerBitSq;
        double mulSetup;
        // energy: pJ = ePerBitAdd * bits + eAddSetup (per 2-op add)
        double ePerBitAdd;
        double eAddSetup;
        double eMulPerBitSq;
        double eMulSetup;
        // areas (um^2) for Table III
        double areaAdd2;
        double areaAdd5Area;
        double areaAdd5Latency;
        double areaMul;
    };

    explicit DwmPimBaseline(Calibration c)
        : cal(c)
    {}

    /** Published-cost-calibrated DW-NN model. */
    static DwmPimBaseline dwNn();

    /** Published-cost-calibrated SPIM model. */
    static DwmPimBaseline spim();

    /** Two-operand addition cost for `bits`-bit words. */
    OpCost addCost(std::size_t bits) const;

    /**
     * Multi-operand addition composed from two-operand additions
     * (these designs have no multi-operand primitive).
     */
    OpCost addCost(std::size_t operands, std::size_t bits,
                   ComposeMode mode) const;

    /** Two-operand multiplication cost (shift-and-add, O(n^2)). */
    OpCost multiplyCost(std::size_t bits) const;

    /** Processing-element area for Table III. */
    double areaUm2(std::size_t operands, bool multiply,
                   ComposeMode mode = ComposeMode::AreaOptimized) const;

  private:
    Calibration cal;
};

} // namespace coruscant

#endif // CORUSCANT_BASELINES_DWM_PIM_BASELINES_HPP
