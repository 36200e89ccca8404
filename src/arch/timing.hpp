/**
 * @file
 * DDR-style timing parameters for the DRAM and DWM main memories.
 *
 * Paper Table II: DDR3-1600 interface, 1000 MHz bus, 1.25 ns memory
 * cycle; DRAM tRAS-tRCD-tRP-tCAS-tWR = 20-8-8-8-8 cycles; DWM =
 * 9-4-S-4-4, where the precharge slot is replaced by the data-dependent
 * shift time S (spintronic memory needs no precharge).
 */

#ifndef CORUSCANT_ARCH_TIMING_HPP
#define CORUSCANT_ARCH_TIMING_HPP

#include <cstddef>
#include <cstdint>

namespace coruscant {

/** Row-level timing of one memory technology, in memory cycles. */
struct DdrTiming
{
    unsigned tRas;  ///< activate-to-precharge
    unsigned tRcd;  ///< activate-to-column
    unsigned tRp;   ///< precharge (DWM: replaced by shifting, see below)
    unsigned tCas;  ///< column access (read latency)
    unsigned tWr;   ///< write recovery
    bool shiftBased; ///< tRp slot is a per-access DW shift time

    /** Paper Table II DRAM timing. */
    static constexpr DdrTiming
    dram()
    {
        return {20, 8, 8, 8, 8, false};
    }

    /** Paper Table II DWM timing (S = shift cycles per access). */
    static constexpr DdrTiming
    dwm()
    {
        return {9, 4, 0, 4, 4, true};
    }

    /** Closed-page access cost for a read with @p shift_cycles of S. */
    unsigned
    readCycles(unsigned shift_cycles = 1) const
    {
        return tRcd + tCas + (shiftBased ? shift_cycles : tRp);
    }

    /** Closed-page access cost for a write. */
    unsigned
    writeCycles(unsigned shift_cycles = 1) const
    {
        return tRcd + tWr + (shiftBased ? shift_cycles : tRp);
    }
};

/** System-level interface constants (paper Table II). */
struct BusConfig
{
    static constexpr double cycleNs = 1.25; ///< memory cycle (DDR3-1600)
    static constexpr std::size_t busBytesPerCycle = 16; ///< 16 B per cycle
    static constexpr std::size_t lineBytes = 64; ///< cache-line transfer

    /** Bus cycles to move one cache line. */
    static constexpr std::size_t
    lineBurstCycles()
    {
        return lineBytes / busBytesPerCycle;
    }
};

} // namespace coruscant

#endif // CORUSCANT_ARCH_TIMING_HPP
