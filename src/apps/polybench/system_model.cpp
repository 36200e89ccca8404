#include "apps/polybench/system_model.hpp"

#include <algorithm>
#include <cmath>

#include "arch/timing.hpp"
#include "baselines/cpu_system.hpp"
#include "controller/queue_model.hpp"

namespace coruscant {

namespace {

// Calibration constants of the system model.
// CPU side:
constexpr double cacheHitFraction = 0.87; ///< accesses served on chip
constexpr double cacheLatency = 8.0;      ///< cycles for a cache hit
constexpr double memoryLevelParallelism = 5.5; ///< outstanding misses
constexpr double controllerOverhead = 16.0; ///< per-miss queue/bus cycles
/** Fraction of accesses with no spatial locality (strided operand
 *  walks): these move a whole 64 B line per element. */
constexpr double strideFraction = 0.30;

// PIM side:
constexpr std::size_t dataBits = 32; ///< lane width for polybench data
/** Address-bearing commands per PIM-tile operation (16 lanes x one DBC
 *  row per tile): each lane op needs ACT+CAS pairs for two operand
 *  copies, the compute trigger, and the write-back. */
constexpr std::uint64_t issueCmdsPerTileOp = 128;
/** Operand/result rows marshaled per operation through the subarray
 *  row buffer. */
constexpr std::size_t marshaledRows = 3;

/**
 * Lines @p accesses move: unit-stride accesses amortize 16 elements
 * per 64 B line; strided accesses move a line per element.
 */
double
streamedLines(double accesses)
{
    constexpr double elements_per_line =
        BusConfig::lineBytes / (dataBits / 8);
    return accesses * ((1.0 - strideFraction) / elements_per_line
                       + strideFraction);
}

std::uint64_t
cpuLatency(const OpRecorder &trace, const DdrTiming &timing)
{
    double accesses =
        static_cast<double>(trace.loads + trace.stores);
    if (accesses == 0)
        return 0;
    double lines = streamedLines(accesses);
    double t_mem =
        static_cast<double>(timing.readCycles(kCpuDwmAvgShift)) +
        controllerOverhead;
    double per_access = cacheHitFraction * cacheLatency +
                        (1.0 - cacheHitFraction) * t_mem;
    // Latency-bound: bounded miss overlap.  Bandwidth-bound: miss
    // traffic on the 16 B/cycle data bus.
    double latency_bound =
        accesses * per_access / memoryLevelParallelism;
    double bus_bound = lines * (1.0 - cacheHitFraction)
                       * static_cast<double>(BusConfig::lineBurstCycles());
    return static_cast<std::uint64_t>(
        std::llround(std::max(latency_bound, bus_bound)));
}

} // namespace

PolybenchSystemModel::PolybenchSystemModel()
{
    CoruscantCostModel cost(cfg.device.trd);
    addCost = cost.add(2, dataBits);
    mulCost = cost.multiply(dataBits);
}

PolybenchResult
PolybenchSystemModel::evaluate(const KernelRun &run) const
{
    PolybenchResult res;
    res.kernel = run.name;
    const OpRecorder &t = run.trace;

    res.cpuDramCycles = cpuLatency(t, DdrTiming::dram());
    res.cpuDwmCycles = cpuLatency(t, DdrTiming::dwm());

    // ------------------------------------------------------------------
    // PIM latency: lane-pack the adds and multiplies, dispatch over the
    // PIM tiles in high-throughput mode.
    // ------------------------------------------------------------------
    std::size_t add_lanes = cfg.device.wiresPerDbc / dataBits;
    std::size_t mul_lanes = cfg.device.wiresPerDbc / (2 * dataBits);
    std::uint64_t add_ops = (t.adds + add_lanes - 1) / add_lanes;
    std::uint64_t mul_ops = (t.muls + mul_lanes - 1) / mul_lanes;

    // Operand marshaling through the subarray row buffer.
    std::uint64_t marshal =
        static_cast<std::uint64_t>(marshaledRows) *
        (DdrTiming::dwm().readCycles(1) + DdrTiming::dwm().writeCycles(1));

    std::size_t pim_tiles =
        cfg.banks * cfg.subarraysPerBank; // one PIM tile per subarray

    // A PIM tile fires its 16 DBC lanes as one unit; issue commands
    // are per tile-op.
    std::uint64_t add_tile_ops =
        (add_ops + cfg.pimDbcsPerSubarray - 1) / cfg.pimDbcsPerSubarray;
    std::uint64_t mul_tile_ops =
        (mul_ops + cfg.pimDbcsPerSubarray - 1) / cfg.pimDbcsPerSubarray;
    auto sa = runUniform(pim_tiles, add_tile_ops, addCost.cycles + marshal,
                         issueCmdsPerTileOp);
    auto sm = runUniform(pim_tiles, mul_tile_ops, mulCost.cycles + marshal,
                         issueCmdsPerTileOp);
    res.pimCycles = sa.makespanCycles + sm.makespanCycles;
    double issue_total = static_cast<double>(sa.issueCycles
                                             + sm.issueCycles);
    res.pimQueueFraction =
        res.pimCycles > 0
            ? std::min(1.0, issue_total
                                / static_cast<double>(res.pimCycles))
            : 0.0;

    // ------------------------------------------------------------------
    // Energy (Fig. 11): CPU system moves every operand over the bus at
    // line granularity and computes in the ALU; PIM computes in place.
    // ------------------------------------------------------------------
    CpuSystem cpu;
    double accesses = static_cast<double>(t.loads + t.stores);
    double lines = streamedLines(accesses);
    AccessSummary s;
    s.linesRead = static_cast<std::uint64_t>(
        lines * static_cast<double>(t.loads) / accesses);
    s.linesWritten = static_cast<std::uint64_t>(
        lines * static_cast<double>(t.stores) / accesses);
    s.adds32 = t.adds;
    s.muls32 = t.muls;
    res.cpuEnergyPj = cpu.energyPj(s);

    double marshal_energy =
        static_cast<double>(marshaledRows * cfg.device.wiresPerDbc) *
        (cfg.device.readEnergyPj + cfg.device.writeEnergyPj);
    res.pimEnergyPj =
        static_cast<double>(add_ops)
            * (addCost.energyPj * static_cast<double>(add_lanes)
               + marshal_energy) +
        static_cast<double>(mul_ops)
            * (mulCost.energyPj * static_cast<double>(mul_lanes)
               + marshal_energy);
    return res;
}

} // namespace coruscant
