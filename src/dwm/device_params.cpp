#include "dwm/device_params.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace coruscant {

// ---------------------------------------------------------------------
// Energy calibration.
//
// Fixed by physical reports in the paper and its device references:
//   writeEnergyPj  = 0.1   (paper Sec. I: "circa 0.1 pJ per write")
//   shiftEnergyPj  = 0.02  (shift current pulse, small vs. write)
//   pimLogicEnergyPj = 0.35 (FreePDK45-synthesized PIM block, scaled)
//
// The TR energies are then pinned by the Table III composites:
//   2-op add, TRD = 3, 8 bits, 10.15 pJ total:
//     setup 2 row writes (16 bits) + 1 shift (8 wires), loop 8 TRs +
//     15 carry-chain bit writes (the final carry is masked)
//       =>  tr3 = 0.51125 pJ
//   5-op add, TRD = 7, 8 bits, 22.14 pJ total:
//     setup 5 row writes (40 bits) + 5 shifts, loop 8 TRs + 21 bit
//     writes (8 S + 7 C + 6 C')
//       =>  tr7 = 1.555 pJ
//
// Between/beyond those points we interpolate linearly in the window
// length (TR current rises with the series resistance of the segment).
// ---------------------------------------------------------------------

namespace {

constexpr double trSlope = (1.555 - 0.51125) / 4.0;      // per domain
constexpr double trIntercept = 0.51125 - 3.0 * trSlope;  // at window 0

} // namespace

double
DeviceParams::trEnergyPj(std::size_t window) const
{
    if (window <= 1)
        return readEnergyPj; // degenerate TR == normal port read
    return std::max(0.1, trIntercept + trSlope
                    * static_cast<double>(window));
}

std::size_t
DeviceParams::leftPortRow() const
{
    // Centered-ish window; matches the paper's ports at data rows
    // 14 and 20 for Y = 32, TRD = 7 (Section III-A).
    std::size_t slack = domainsPerWire - trd;
    return std::min(slack / 2 + 2, slack);
}

std::size_t
DeviceParams::leftOverhead() const
{
    // Rows to the right of the right port must be able to shift left
    // into it; the data then extends into the left overhead region.
    return (domainsPerWire - 1) - rightPortRow();
}

std::size_t
DeviceParams::rightOverhead() const
{
    // Mirror: rows left of the left port shift right into it.
    return leftPortRow();
}

DeviceParams
DeviceParams::coruscantDefault()
{
    DeviceParams p;
    p.validate();
    return p;
}

DeviceParams
DeviceParams::withTrd(std::size_t trd)
{
    DeviceParams p;
    p.trd = trd;
    p.validate();
    return p;
}

void
DeviceParams::validate() const
{
    fatalIf(wiresPerDbc == 0, "DBC must have at least one nanowire");
    fatalIf(trd == 0, "TRD must be positive");
    fatalIf(trd > domainsPerWire,
            "TRD (", trd, ") exceeds data domains (", domainsPerWire, ")");
}

void
DeviceParams::checkPimTrd(std::size_t t)
{
    fatalIf(t < kMinPimTrd || t > kMaxPimTrd, "the PIM unit needs TRD in [",
            kMinPimTrd, ", ", kMaxPimTrd, "] (got ", t, ")");
}

void
DeviceParams::checkVote(std::size_t n, std::size_t window)
{
    fatalIf(!voteFits(n, window), "a vote needs an odd N in [3, ",
            std::min(window, kMaxPimTrd), "], got ", n);
}

} // namespace coruscant
