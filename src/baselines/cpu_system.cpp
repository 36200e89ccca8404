#include "baselines/cpu_system.hpp"

#include <algorithm>

namespace coruscant {

std::uint64_t
CpuSystem::latencyCycles(const AccessSummary &s) const
{
    std::uint64_t lines = s.linesRead + s.linesWritten;
    if (lines == 0)
        return 0;
    // Data-bus occupancy: every line crosses the bus once.
    std::uint64_t bus_cycles = lines * BusConfig::lineBurstCycles();
    // Bank occupancy: each access holds its bank for the closed-page
    // access time; banks run in parallel.
    std::uint64_t bank_cycles =
        s.linesRead * timing_.readCycles(kCpuDwmAvgShift) +
        s.linesWritten * timing_.writeCycles(kCpuDwmAvgShift);
    std::uint64_t bank_limited = (bank_cycles + kBanks - 1) / kBanks;
    // The stream cannot finish before its last access completes.
    std::uint64_t tail = timing_.readCycles(kCpuDwmAvgShift);
    return std::max(bus_cycles, bank_limited) + tail;
}

double
CpuSystem::energyPj(const AccessSummary &s) const
{
    double bytes =
        static_cast<double>(s.linesRead + s.linesWritten)
        * static_cast<double>(BusConfig::lineBytes);
    return bytes * CpuEnergy::transferPjPerByte +
           static_cast<double>(s.adds32) * CpuEnergy::add32Pj +
           static_cast<double>(s.muls32) * CpuEnergy::mul32Pj;
}

} // namespace coruscant
