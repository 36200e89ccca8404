#include "dwm/area_model.hpp"

#include "dwm/device_params.hpp"

namespace coruscant {

PimFeatureSet
PimFeatureSet::add2()
{
    return {3, true, false, false};
}

PimFeatureSet
PimFeatureSet::add5()
{
    return {7, true, false, false};
}

PimFeatureSet
PimFeatureSet::mulAdd5()
{
    return {7, true, true, false};
}

PimFeatureSet
PimFeatureSet::mulAdd5Bbo()
{
    return {7, true, true, true};
}

// ---------------------------------------------------------------------
// Per-wire circuit constants (um^2 at F = 32 nm), calibrated so the
// 1-PIM memory overhead reproduces paper Table I exactly:
//   ADD2 3.7%, ADD5 9.2%, MUL+ADD5 9.4%, MUL+ADD5+BBO 10.0%
// with a baseline DBC area of cells (48 domains x 512 wires x 2F^2)
// plus a 20 um^2 periphery share (sense amplifiers, write drivers,
// local decode) per DBC.  Derivation in DESIGN.md Section 3.
// ---------------------------------------------------------------------

namespace {

constexpr double featureUm = 32.0 / 1000.0; // F = 32 nm
constexpr std::size_t wires = DeviceParams{}.wiresPerDbc; // X
constexpr std::size_t domains = DeviceParams::domainsPerWire; // Y
constexpr std::size_t tilesPerSubarray = 16; // tiles sharing one PIM tile

constexpr double peripheryPerDbcUm2 = 20.0;
constexpr double carryLogicUm2 = 0.02;        // C computation per wire
constexpr double superCarryLogicUm2 = 0.05;   // C' computation per wire
constexpr double multShiftPathUm2 = 0.004395; // inter-wire shift mux
constexpr double bboDecodeUm2 = 0.013184;     // full bulk-bitwise decode

/** Multi-level TR sense circuit per wire, by TRD. */
double
senseUpgradeUm2(std::size_t trd)
{
    if (trd <= 3)
        return 0.03469;
    if (trd <= 5)
        return 0.07423;
    return 0.11377;
}

} // namespace

double
AreaModel::cellAreaUm2()
{
    return 2.0 * featureUm * featureUm; // DWM: 2 F^2 per domain
}

std::size_t
AreaModel::baselineOverheadDomains()
{
    // Two ports at the optimal quarter positions: every data row is
    // within Y/4 of a port, so Y/2 overhead domains suffice
    // (paper Sec. III-A: "reduces overhead domains from 31 to 16").
    return domains / 2;
}

std::size_t
AreaModel::pimOverheadDomains(std::size_t trd)
{
    // Ports moved to TR spacing: overhead grows to Y - TRD
    // (25 for Y = 32, TRD = 7, matching the paper).
    return domains - trd;
}

double
AreaModel::baselineDbcAreaUm2()
{
    double cells = static_cast<double>(
                       wires * (domains + baselineOverheadDomains())) *
                   cellAreaUm2();
    return cells + peripheryPerDbcUm2;
}

double
AreaModel::pimExtraAreaUm2(const PimFeatureSet &f)
{
    std::size_t extra_domains =
        pimOverheadDomains(f.trd) > baselineOverheadDomains()
            ? pimOverheadDomains(f.trd) - baselineOverheadDomains()
            : 0;
    double area = static_cast<double>(wires * extra_domains)
                  * cellAreaUm2();
    double per_wire = senseUpgradeUm2(f.trd);
    if (f.addition) {
        per_wire += carryLogicUm2;
        if (DeviceParams{.trd = f.trd}.hasSuperCarry())
            per_wire += superCarryLogicUm2;
    }
    if (f.multiplication)
        per_wire += multShiftPathUm2;
    if (f.bulkBitwise)
        per_wire += bboDecodeUm2;
    return area + per_wire * static_cast<double>(wires);
}

double
AreaModel::memoryOverheadFraction(const PimFeatureSet &f)
{
    // One PIM tile per subarray of `tilesPerSubarray` tiles; every DBC
    // in the PIM tile carries the extension, so the fraction of DBCs
    // extended is 1 / tilesPerSubarray.
    double frac_pim = 1.0 / static_cast<double>(tilesPerSubarray);
    return frac_pim * pimExtraAreaUm2(f) / baselineDbcAreaUm2();
}

double
AreaModel::peAreaUm2(std::size_t trd, std::size_t operands, bool multiply)
{
    // Published synthesis results (paper Table III), with linear
    // interpolation for TRD = 5 which the paper's table omits.
    // Components: sense circuit grows with TRD; the five-operand
    // configuration adds the super-carry logic; the multiplier
    // configuration adds the inter-wire shift path.
    auto base = [](std::size_t t) {
        // two-operand adder slice
        if (t <= 3)
            return 2.16;
        if (t <= 5)
            return 2.88;
        return 3.60;
    };
    double area = base(trd);
    if (operands > 2 && DeviceParams{.trd = trd}.hasSuperCarry())
        area += 1.34; // super-carry logic (5-op adder)
    if (multiply)
        area += trd <= 3 ? 1.64 : (trd <= 5 ? 0.885 : 0.13);
    return area;
}

} // namespace coruscant
