#include "baselines/cpu_system.hpp"

namespace coruscant {

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
