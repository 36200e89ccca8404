/**
 * @file
 * Area model for the CORUSCANT PIM extensions (paper Table I, Table III).
 *
 * Two granularities:
 *
 *  1. Processing-element areas (Table III): the standalone area of one
 *     CORUSCANT arithmetic slice, comparable against DW-NN and SPIM
 *     processing elements.  The paper reports these from FreePDK45
 *     synthesis scaled to F = 32 nm; we carry the published values and
 *     a component decomposition.
 *
 *  2. Main-memory overhead (Table I): the fractional area added to a
 *     1 GB DWM main memory when one tile per subarray is PIM-enabled
 *     ("1-PIM").  Modeled bottom-up from cell area (2F^2), the extra
 *     overhead domains required to move the ports to TR spacing, the
 *     added access port, the multi-level sense circuit, and the PIM
 *     logic; per-wire circuit constants are calibrated against the
 *     paper's published percentages (see area_model.cpp).
 */

#ifndef CORUSCANT_DWM_AREA_MODEL_HPP
#define CORUSCANT_DWM_AREA_MODEL_HPP

#include <cstddef>

namespace coruscant {

/** Which PIM capabilities a design includes (paper Table I columns). */
struct PimFeatureSet
{
    std::size_t trd = 7;     ///< transverse read distance
    bool addition = true;    ///< multi-operand addition (carry chain)
    bool multiplication = true; ///< logical-shift path + reduction
    bool bulkBitwise = true; ///< full bulk-bitwise op decoding

    /** Paper Table I columns. */
    static PimFeatureSet add2();       ///< TRD = 3 two-operand adder
    static PimFeatureSet add5();       ///< TRD = 7 five-operand adder
    static PimFeatureSet mulAdd5();    ///< + multiplication
    static PimFeatureSet mulAdd5Bbo(); ///< + bulk-bitwise ops
};

/**
 * Area accounting for DWM with CORUSCANT extensions, at the paper's
 * geometry: F = 32 nm, X = 512 wires of Y = DeviceParams::domainsPerWire
 * domains, 16 tiles per subarray sharing one PIM tile.
 */
class AreaModel
{
  public:
    /** Cell area in um^2 (DWM: 2 F^2 per domain). */
    static double cellAreaUm2();

    /** Baseline DBC area (two optimally placed ports), um^2. */
    static double baselineDbcAreaUm2();

    /** Extra area a PIM-enabled DBC adds over the baseline, um^2. */
    static double pimExtraAreaUm2(const PimFeatureSet &f);

    /**
     * Fractional overhead of PIM-enabling one tile per subarray
     * (paper Table I row "Area Overhead 1-PIM").
     */
    static double memoryOverheadFraction(const PimFeatureSet &f);

    /**
     * Standalone processing-element area for Table III.
     * @param trd 3, 5, or 7
     * @param operands 2 or 5 (adder arity class)
     * @param multiply whether the slice is the multiplier configuration
     */
    static double peAreaUm2(std::size_t trd, std::size_t operands,
                            bool multiply);

    /** Overhead domains per wire for ports at TR spacing. */
    static std::size_t pimOverheadDomains(std::size_t trd);

    /** Overhead domains per wire with two optimally spaced ports. */
    static std::size_t baselineOverheadDomains();
};

} // namespace coruscant

#endif // CORUSCANT_DWM_AREA_MODEL_HPP
