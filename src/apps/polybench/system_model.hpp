/**
 * @file
 * System-level latency/energy model for the Polybench experiments
 * (paper Fig. 10 and Fig. 11).
 *
 * Three systems are compared on the same kernel trace:
 *   - CPU + DRAM and CPU + DWM: the trace's loads/stores stream
 *     through the cache hierarchy; misses pay the technology's access
 *     time.  The CPU sustains a bounded number of outstanding misses
 *     (memory-level parallelism), which bounds how much latency
 *     overlaps.
 *   - CORUSCANT PIM: additions and multiplications execute in the
 *     PIM-enabled DBCs.  Every PIM tile processes one 512-bit row per
 *     operation (16 32-bit lanes), operand rows are marshaled through
 *     the subarray row buffer, and the per-channel command bus issues
 *     the address-bearing commands — the paper's "high throughput
 *     mode", whose queuing delay dominates (~80%) the PIM runtime.
 *
 * The modeling constants (system_model.cpp) are documented calibration
 * points; the relative results across kernels are emergent from the
 * traces.
 */

#ifndef CORUSCANT_APPS_POLYBENCH_SYSTEM_MODEL_HPP
#define CORUSCANT_APPS_POLYBENCH_SYSTEM_MODEL_HPP

#include "apps/polybench/kernels.hpp"
#include "arch/config.hpp"
#include "core/op_cost.hpp"

namespace coruscant {

/** Per-kernel results for Fig. 10 / Fig. 11. */
struct PolybenchResult
{
    std::string kernel;
    std::uint64_t cpuDramCycles = 0;
    std::uint64_t cpuDwmCycles = 0;
    std::uint64_t pimCycles = 0;
    double cpuEnergyPj = 0.0; ///< data movement + CPU ALU (DWM system)
    double pimEnergyPj = 0.0;
    double pimQueueFraction = 0.0; ///< share of PIM time issue-bound

    double
    latencyGainVsDwm() const
    {
        return static_cast<double>(cpuDwmCycles) /
               static_cast<double>(pimCycles);
    }

    double
    latencyGainVsDram() const
    {
        return static_cast<double>(cpuDramCycles) /
               static_cast<double>(pimCycles);
    }

    double
    energyGain() const
    {
        return cpuEnergyPj / pimEnergyPj;
    }
};

/** Evaluates kernel traces on the three systems of the paper's memory. */
class PolybenchSystemModel
{
  public:
    /** Measures the 32-bit add and multiply every kernel uses. */
    PolybenchSystemModel();

    PolybenchResult evaluate(const KernelRun &run) const;

  private:
    MemoryConfig cfg;
    OpCost addCost; ///< two-operand add of one lane
    OpCost mulCost; ///< multiply of one lane
};

} // namespace coruscant

#endif // CORUSCANT_APPS_POLYBENCH_SYSTEM_MODEL_HPP
