/**
 * @file
 * CPU + main-memory baseline (paper Table II, Sec. V-C).
 *
 * Models the non-PIM alternative: operands stream over the DDR3-1600
 * bus to an Intel Xeon X5670-class processor and results stream back.
 * Energy is the paper's transfer cost of 1250 pJ/Byte plus the CPU ALU
 * energies (111 pJ per 32-bit add, 164 pJ per 32-bit multiply).  The
 * Fig. 10 latency of this system is the Polybench system model's
 * (apps/polybench/system_model).
 */

#ifndef CORUSCANT_BASELINES_CPU_SYSTEM_HPP
#define CORUSCANT_BASELINES_CPU_SYSTEM_HPP

#include <cstdint>

#include "arch/timing.hpp"

namespace coruscant {

/** Energy constants from paper Table II. */
struct CpuEnergy
{
    static constexpr double transferPjPerByte = 1250.0;
    static constexpr double add32Pj = 111.0;
    static constexpr double mul32Pj = 164.0;
};

/**
 * Average DW shift per CPU-side DWM access: sequential streams keep
 * the ports near the data.
 */
inline constexpr unsigned kCpuDwmAvgShift = 4;

/** Streamed access trace summary. */
struct AccessSummary
{
    std::uint64_t linesRead = 0;    ///< 64-byte lines fetched
    std::uint64_t linesWritten = 0; ///< 64-byte lines stored
    std::uint64_t adds32 = 0;       ///< 32-bit CPU additions
    std::uint64_t muls32 = 0;       ///< 32-bit CPU multiplications
};

/** CPU system over main memory. */
class CpuSystem
{
  public:
    /** Data-movement plus ALU energy, in pJ. */
    double energyPj(const AccessSummary &s) const;
};

/**
 * ISAAC ReRAM crossbar accelerator (Shafiee et al., ISCA 2016), as a
 * published-throughput analytical stand-in for paper Table IV.
 *
 * The paper cites ISAAC's CNN inference throughput directly; we carry
 * those numbers plus a MAC-rate extrapolation for other networks.
 */
struct IsaacModel
{
    // Published comparison points used in paper Table IV.
    static constexpr double alexnetFps = 34.0;
    static constexpr double lenet5Fps = 2581.0;

    /** Rough FPS for a network with @p macs multiply-accumulates. */
    static double
    estimateFps(double macs)
    {
        // Calibrated on the AlexNet point (~666M MACs per inference).
        constexpr double effectiveMacsPerSec = 34.0 * 666e6;
        return effectiveMacsPerSec / macs;
    }
};

} // namespace coruscant

#endif // CORUSCANT_BASELINES_CPU_SYSTEM_HPP
