/**
 * @file
 * Prints paper Table II: the DWM system parameters this reproduction
 * is configured with.
 */

#include "arch/config.hpp"
#include "arch/timing.hpp"
#include "baselines/cpu_system.hpp"
#include "bench_util.hpp"

using namespace coruscant;

int
main()
{
    bench::header("Table II: DWM system parameters");
    MemoryConfig cfg;
    bench::row("Memory size (GB)",
               static_cast<double>(cfg.capacityBytes()) / (1 << 30), 1.0);
    bench::row("Number of banks", static_cast<double>(cfg.banks), 32);
    bench::row("Subarrays per bank",
               static_cast<double>(cfg.subarraysPerBank), 64);
    bench::row("Tiles per subarray",
               static_cast<double>(cfg.tilesPerSubarray), 16);
    bench::row("DBCs per tile (15 + 1-PIM)",
               static_cast<double>(cfg.dbcsPerTile), 16);
    bench::row("Memory cycle (ns)", BusConfig::cycleNs, 1.25);
    bench::row("Bus speed (MHz)", 1000.0 / BusConfig::cycleNs / 0.8, 1000);

    bench::subheader("timing (cycles)");
    auto dram = DdrTiming::dram();
    auto dwm = DdrTiming::dwm();
    std::printf("  DRAM tRAS-tRCD-tRP-tCAS-tWR : %u-%u-%u-%u-%u "
                "(paper: 20-8-8-8-8)\n",
                dram.tRas, dram.tRcd, dram.tRp, dram.tCas, dram.tWr);
    std::printf("  DWM  tRAS-tRCD-S-tCAS-tWR   : %u-%u-S-%u-%u "
                "(paper: 9-4-S-4-4)\n",
                dwm.tRas, dwm.tRcd, dwm.tCas, dwm.tWr);

    bench::subheader("energy constants (paper Table II)");
    bench::row("add 32-bit CPU (pJ/op)", CpuEnergy::add32Pj, 111.0);
    bench::row("mult 32-bit CPU (pJ/op)", CpuEnergy::mul32Pj, 164.0);
    bench::row("E_trans (pJ/Byte)", CpuEnergy::transferPjPerByte, 1250.0);

    bench::subheader("derived PIM geometry");
    bench::rowPlain("total DBCs", static_cast<double>(cfg.totalDbcs()));
    bench::rowPlain("PIM-enabled DBCs",
                    static_cast<double>(cfg.totalPimDbcs()));
    bench::rowPlain("domains per nanowire (TRD=7)",
                    static_cast<double>(cfg.device.totalDomains()));
    return 0;
}
