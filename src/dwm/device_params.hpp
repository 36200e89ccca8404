/**
 * @file
 * Device-level timing, energy, and geometry parameters for DWM.
 *
 * The paper (Section V-A) derives these from NVSim, LTSPICE sense-circuit
 * simulation, FreePDK45 synthesis scaled to F = 32 nm, and LLG
 * micromagnetics.  None of those tools ship with the paper, so this
 * reproduction embeds the *derived* per-primitive constants, calibrated so
 * the composite operation costs published in the paper (Table III and the
 * 26-cycle 8-bit five-operand add walk-through in Section V-B) are
 * reproduced.  See DESIGN.md Section 3 "Calibration".
 */

#ifndef CORUSCANT_DWM_DEVICE_PARAMS_HPP
#define CORUSCANT_DWM_DEVICE_PARAMS_HPP

#include <cstddef>

namespace coruscant {

/**
 * Per-primitive latency (cycles), energy (pJ), and geometry for a DWM
 * nanowire array with transverse access.
 *
 * All latencies are in memory cycles.  The paper uses a 1 ns device
 * cycle for DBC-level microbenchmarks (Section V-B) and a 1.25 ns
 * DDR3-1600 memory cycle at system level (Table II).
 */
struct DeviceParams
{
    // ------------------------------------------------------------------
    // Geometry.  Only the wire count and TRD vary between
    // configurations; every other constant is the paper's (DESIGN.md
    // "Model constants").
    // ------------------------------------------------------------------
    /** Nanowires ganged in a domain-block cluster (bits per row). */
    std::size_t wiresPerDbc = 512;

    /** Data domains per nanowire (distinct row addresses), Y. */
    static constexpr std::size_t domainsPerWire = 32;

    /** Maximum transverse read distance (domains per TR), TRD. */
    std::size_t trd = 7;

    // ------------------------------------------------------------------
    // Latency (cycles; the paper's 1 ns DBC-level cycle)
    // ------------------------------------------------------------------
    static constexpr unsigned shiftCycles = 1; ///< one-domain shift
    static constexpr unsigned readCycles = 1;  ///< access-port row read
    static constexpr unsigned writeCycles = 1; ///< access-port row write
    static constexpr unsigned trCycles = 1;    ///< transverse read
    static constexpr unsigned twCycles = 1;    ///< transverse write

    // ------------------------------------------------------------------
    // Energy (pJ).  Row-level primitives touch `wiresPerDbc` wires; the
    // per-bit values below are multiplied by the number of active wires.
    // Calibration (see device_params.cpp): with the paper's ~0.1 pJ/bit
    // write, the Table III composites for 2-op add (TRD = 3, 10.15 pJ)
    // and 5-op add (TRD = 7, 22.14 pJ) pin the remaining constants.
    // ------------------------------------------------------------------
    static constexpr double writeEnergyPj = 0.1;  ///< per bit written
    static constexpr double readEnergyPj = 0.05;  ///< per bit read
    static constexpr double shiftEnergyPj = 0.02; ///< per wire per shift
    static constexpr double pimLogicEnergyPj = 0.35; ///< PIM block/wire
    static constexpr double twEnergyPj = 0.14;    ///< TW per wire

    static_assert(domainsPerWire > 0, "a nanowire stores at least one row");

    /** TR energy per wire as a function of the window length. */
    double trEnergyPj(std::size_t window) const;

    // ------------------------------------------------------------------
    // Derived geometry for the two-port PIM nanowire (paper Sec. III-A):
    // ports are spaced so the inclusive window spans `trd` domains;
    // overhead domains let every data row reach a port.
    // ------------------------------------------------------------------

    /** Data-row index aligned with the left port at shift offset 0. */
    std::size_t leftPortRow() const;

    /** Data-row index aligned with the right port at shift offset 0. */
    std::size_t rightPortRow() const { return leftPortRow() + trd - 1; }

    /** Overhead domains on the left extremity. */
    std::size_t leftOverhead() const;

    /** Overhead domains on the right extremity. */
    std::size_t rightOverhead() const;

    /** Total physical domains per nanowire. */
    std::size_t
    totalDomains() const
    {
        return domainsPerWire + leftOverhead() + rightOverhead();
    }

    // Adder and carry-save shape (paper Sec. III-C/D), stated once.
    // From TRD 5 on, the PIM block emits the super carry C' (weight 4)
    // and one TR reduces TRD rows to S, C, C'; below, 3 rows to S, C.

    /** Maximum addition operands for this TRD (ports carry C / C'). */
    constexpr std::size_t
    maxAddOperands() const
    {
        return trd <= 3 ? 2 : trd - 2;
    }

    /** Whether the PIM block emits the super carry C'. */
    constexpr bool hasSuperCarry() const { return trd >= 5; }

    /** Rows one carry-save reduction takes. */
    constexpr std::size_t
    csaInputs() const
    {
        return hasSuperCarry() ? trd : 3;
    }

    /** Rows one carry-save reduction leaves: S, C and C' if any. */
    constexpr std::size_t
    csaOutputs() const
    {
        return hasSuperCarry() ? 3 : 2;
    }

    // The TRD range the PIM unit computes at, stated once (the paper
    // evaluates 3, 5 and 7).  The carry chain needs two operand rows
    // and a carry row in the window, so TRD 2 cannot add.  S, C and C'
    // weigh 1, 2 and 4, so one TR sums a count of at most 7: from TRD 8
    // on a count needs a weight-8 output.  validate() checks only the
    // geometry, which DBC-level code uses on its own.
    static constexpr std::size_t kMinPimTrd = 3;
    static constexpr std::size_t kMaxPimTrd = 7;

    /** Throws FatalError unless @p t lies in [kMinPimTrd, kMaxPimTrd]. */
    static void checkPimTrd(std::size_t t);

    /**
     * Whether N replicas make a vote that one TR of @p window rows
     * senses: N odd and 3 <= N <= min(window, kMaxPimTrd).
     */
    static constexpr bool
    voteFits(std::size_t n, std::size_t window = kMaxPimTrd)
    {
        return n % 2 == 1 && 3 <= n && n <= kMaxPimTrd && n <= window;
    }

    /** Throws FatalError unless voteFits(@p n, @p window). */
    static void checkVote(std::size_t n, std::size_t window);

    /** Preset matching the paper's defaults (TRD = 7, 512 x 32 DBC). */
    static DeviceParams coruscantDefault();

    /** Preset with a different transverse read distance. */
    static DeviceParams withTrd(std::size_t trd);

    /** Validate invariants; throws FatalError on a bad configuration. */
    void validate() const;
};

} // namespace coruscant

#endif // CORUSCANT_DWM_DEVICE_PARAMS_HPP
