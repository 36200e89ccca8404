/**
 * @file
 * DWM main memory: the full bank/subarray/tile/DBC hierarchy with
 * shift-aware access timing (paper Fig. 2, Table II).
 *
 * Storage is sparse: DBC state is materialized on first touch, so a
 * 1 GB memory can be modeled without allocating a gigabyte.  Every
 * access charges the DWM DDR timing, with the precharge slot replaced
 * by the actual DW shift distance between the DBC's current port
 * alignment and the requested row — the "S" of Table II.
 *
 * Reliability pipeline (paper Sec. II-A, II-D, V-F): when
 * MemoryConfig::reliability enables it, every shift pulse may over- or
 * under-shift (ShiftFaultModel), each DBC dedicates one extra nanowire
 * to the AlignmentGuard ramp pattern, and the memory checks/corrects
 * alignment at the configured cadence (per access, per cpim via the
 * controller, or by periodic scrubbing), charging guard TRs and
 * corrective shifts to the cost ledger.  DBCs whose corrected-fault
 * count crosses a threshold are retired: their rows are migrated to a
 * spare DBC and the address transparently remapped.
 */

#ifndef CORUSCANT_ARCH_DWM_MEMORY_HPP
#define CORUSCANT_ARCH_DWM_MEMORY_HPP

#include <memory>
#include <optional>
#include <unordered_map>

#include "arch/config.hpp"
#include "core/coruscant_unit.hpp"
#include "dwm/alignment_guard.hpp"
#include "dwm/data_fault.hpp"
#include "dwm/dbc.hpp"
#include "dwm/shift_fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "reliability/ecc/secded.hpp"
#include "util/stats.hpp"

namespace coruscant {

/**
 * The memory's reliability event counters: the one record every
 * getter reads.  A copy is a snapshot; the difference of two
 * snapshots is what happened between them, and checkLine returns the
 * difference across its one check.
 */
struct MemoryEvents
{
    std::uint64_t guardChecks = 0; ///< line checks + scrub entries
    std::uint64_t misaligned = 0;  ///< checks that found a misalignment
    std::uint64_t correctedMisalignments = 0; ///< corrective pulses
    std::uint64_t uncorrectable = 0;  ///< checks that could not realign
    std::uint64_t retired = 0;        ///< DBCs retired to spares
    std::uint64_t retireFailures = 0; ///< retirements with no spare left
    std::uint64_t eccCorrections = 0; ///< SECDED words corrected
    std::uint64_t eccDue = 0;         ///< SECDED words flagged DUE

    /** Events between @p before and this later snapshot. */
    MemoryEvents
    since(const MemoryEvents &before) const
    {
        return {guardChecks - before.guardChecks,
                misaligned - before.misaligned,
                correctedMisalignments - before.correctedMisalignments,
                uncorrectable - before.uncorrectable,
                retired - before.retired,
                retireFailures - before.retireFailures,
                eccCorrections - before.eccCorrections,
                eccDue - before.eccDue};
    }

    /** Something was flagged detected-uncorrectable. */
    bool flagged() const { return uncorrectable > 0 || eccDue > 0; }

    /** Something was detected and corrected. */
    bool
    fixed() const
    {
        return correctedMisalignments > 0 || eccCorrections > 0;
    }
};

/** Outcome of a full scrub sweep. */
struct ScrubReport
{
    std::size_t scanned = 0;       ///< DBCs checked
    std::size_t corrected = 0;     ///< DBCs realigned by the sweep
    std::size_t uncorrectable = 0; ///< DBCs left misaligned
};

/** Outcome of an ECC scrub sweep over stored lines. */
struct EccScrubReport
{
    std::size_t scannedRows = 0;       ///< rows decoded
    std::size_t correctedRows = 0;     ///< rows corrected + rewritten
    std::size_t uncorrectableRows = 0; ///< rows with DUE words
};

/** Sparse, shift-aware DWM main memory with PIM-enabled DBCs. */
class DwmMainMemory
{
  public:
    explicit DwmMainMemory(const MemoryConfig &cfg = MemoryConfig{});

    const MemoryConfig &config() const { return cfg; }
    const AddressMap &addressMap() const { return amap; }

    /**
     * Read the 512-bit line at @p loc (charges DWM timing).
     * @pre every field of @p loc is in range, as AddressMap::decode
     *      returns it.
     */
    BitVector readLine(const LineAddress &loc);

    /** readLine at the line holding @p byte_addr. */
    BitVector readLine(std::uint64_t byte_addr);

    /** Write the 512-bit line at @p loc (charges DWM timing). */
    void writeLine(const LineAddress &loc, const BitVector &data);

    /** writeLine at the line holding @p byte_addr. */
    void writeLine(std::uint64_t byte_addr, const BitVector &data);

    /**
     * PIM unit serving a location's subarray.  Lazily materialized;
     * each subarray has `pimDbcsPerSubarray` PIM DBCs, selected by
     * @p pim_index.
     */
    CoruscantUnit &pimUnit(std::size_t bank, std::size_t subarray,
                           std::size_t pim_index = 0);

    // --- Guarded execution ----------------------------------------------

    /**
     * Guard-check (and correct) the DBC holding @p loc.  Used by the
     * controller around cpim instructions (GuardPolicy::PerCpim) and
     * by tests.  Returns the events of this one check (guardChecks is
     * 0 when no guard is configured, 1 otherwise).  May retire the
     * DBC (remapping its addresses).
     */
    MemoryEvents checkLine(const LineAddress &loc);

    /** checkLine at the line holding @p byte_addr. */
    MemoryEvents checkLine(std::uint64_t byte_addr);

    /** Guard-check every materialized DBC (deterministic order). */
    ScrubReport scrubAll();

    /**
     * ECC scrub: decode every stored row of every materialized DBC
     * (after applying pending retention decay) and rewrite the rows
     * SECDED can still correct, so single-bit retention flips are
     * cleaned before a second flip makes the word uncorrectable.
     * A no-op returning zeros when ECC is off.
     */
    EccScrubReport scrubEcc();

    // --- Observability ---------------------------------------------------

    /**
     * Attach observability.  Components created in @p reg:
     *  - "memory": modeled line accesses (Reads/Writes at line
     *    granularity, access shifts, access energy);
     *  - "memory/dbc": functional device primitives of every
     *    materialized DBC (existing and future), whatever triggered
     *    them;
     *  - "memory/pim": modeled primitives charged by the PIM units;
     *  - "guard": guard TRs, corrective shifts, corrected
     *    misalignments, and reliability-pipeline energy.
     * "memory" and "memory/dbc" observe the same accesses at different
     * abstraction levels, so compare counters within a component, not
     * across them.  Scrub sweeps and PIM ops emit spans on @p trace
     * (process row @p pid) when given.  Both are non-owning.
     */
    void attachObs(obs::MetricsRegistry &reg,
                   obs::TraceSink *trace = nullptr, std::uint32_t pid = 0);

    // --- Reliability statistics -----------------------------------------

    /** Guard checks performed (line checks + scrub entries). */
    std::uint64_t guardChecks() const { return ev.guardChecks; }

    /** Checks that found the cluster misaligned. */
    std::uint64_t detectedMisalignments() const { return ev.misaligned; }

    /** Single-position misalignments corrected (corrective pulses). */
    std::uint64_t
    correctedMisalignments() const { return ev.correctedMisalignments; }

    /** Checks that could not restore alignment. */
    std::uint64_t uncorrectableEvents() const { return ev.uncorrectable; }

    /** DBCs retired to spares so far. */
    std::size_t retiredDbcs() const { return ev.retired; }

    /** Retirements refused because the spare pool was exhausted. */
    std::uint64_t retirementFailures() const { return ev.retireFailures; }

    /** Shift faults injected into this memory's DBCs so far. */
    std::uint64_t
    injectedShiftFaults() const
    {
        return shiftInjector ? shiftInjector->injectedFaults() : 0;
    }

    /** SECDED words corrected on reads and scrubs. */
    std::uint64_t eccCorrections() const { return ev.eccCorrections; }

    /** SECDED words flagged uncorrectable (DUE). */
    std::uint64_t eccDetectedUncorrectable() const { return ev.eccDue; }

    /** Data-domain faults injected into this memory so far. */
    std::uint64_t
    injectedDataFaults() const
    {
        return dataInjector ? dataInjector->injectedFaults() : 0;
    }

    /** The reliability event counters above, in one record. */
    const MemoryEvents &events() const { return ev; }

    // --- Test / campaign backdoors --------------------------------------

    /** Physically misalign the DBC holding @p byte_addr by one step. */
    void injectShiftFaultAt(std::uint64_t byte_addr, bool toward_left);

    /** Aggregate access cost (timing charged in memory cycles). */
    const CostLedger &ledger() const { return costs; }
    void resetCosts() { costs.reset(); }

    /** The guarded-cpim retry ladder (validated at construction). */
    const RetryLadder &retryLadder() const { return ladder; }

    /**
     * Charge the controller's retry-ladder backoff wait (cycles spent
     * idle between a detected fault and the re-execution) so guarded
     * retries appear in the same ledger as the work they delay.
     */
    void
    chargeRetryBackoff(std::uint64_t cycles)
    {
        if (cycles > 0)
            costs.charge(Cost::RetryBackoff, cycles, 0.0);
    }

    /** Total DW shift steps performed by accesses so far. */
    std::uint64_t totalShifts() const { return shiftSteps; }

    /** DBCs materialized so far (sparse footprint). */
    std::size_t touchedDbcs() const { return dbcs.size(); }

  private:
    /** One materialized DBC plus its reliability bookkeeping. */
    struct MemDbc
    {
        explicit MemDbc(const DeviceParams &params) : dbc(params) {}
        DomainBlockCluster dbc;
        std::uint64_t logicalId = 0;  ///< pre-remap dbcId
        std::uint64_t physicalId = 0; ///< sparse-storage key (defect map)
        std::uint64_t corrected = 0;  ///< corrective pulses applied here
        std::uint64_t eccDue = 0;     ///< DUE words observed here
        /** Ledger cycle of each row's last write/scrub (retention). */
        std::vector<std::uint64_t> rowRefreshCycle;
    };

    MemDbc &dbcFor(const LineAddress &loc);
    MemDbc &materialize(std::uint64_t physical_id,
                        std::uint64_t logical_id);
    unsigned alignForAccess(DomainBlockCluster &dbc, std::size_t row);

    /**
     * Align the DBC for @p loc and, under GuardPolicy::PerAccess,
     * guard-check it after the alignment shifts (so a faulty shift is
     * corrected before the port touches the row).  Returns the serving
     * state and accumulates the shift count into @p shifts.
     */
    MemDbc &alignChecked(const LineAddress &loc, unsigned &shifts);

    /**
     * Run one guard correct() pass on @p state, charge its costs,
     * count its events, and retire the cluster if warranted.  Returns
     * the state serving the logical DBC afterwards (the replacement,
     * if retired).
     */
    MemDbc &guardMaintain(MemDbc &state);

    /** Periodic-scrub hook, called once per line access. */
    void tickAccess();

    /**
     * Visit every materialized DBC in id order (bit-identical runs)
     * inside trace span @p name; returns the sum of what @p visit
     * returns (units scanned).
     */
    template <class Visit>
    std::size_t sweep(const char *name, const char *category,
                      Visit &&visit);

    /** Charge one line access (data and ECC lanes); count @p kind. */
    void chargeAccess(Cost category, std::uint64_t cycles,
                      double port_pj, unsigned shifts,
                      obs::Counter kind);

    /** Migrate @p state to a spare DBC; returns the replacement. */
    MemDbc *retire(MemDbc &state);

    /**
     * Materialize pending retention decay on @p state's row @p row
     * (flips applied to the stored bits) and stamp it refreshed.
     */
    void applyRetention(MemDbc &state, std::size_t row);

    /** Count @p faults injected data faults; mark them as @p name. */
    void noteDataFaults(const char *name, std::uint64_t faults);

    /**
     * SECDED-decode the row read back from @p state: correct its data
     * and check lanes in place, count the words, and escalate repeated
     * DUEs into retirement (which may invalidate @p state).
     */
    void eccDecode(MemDbc &state, BitVector &row);

    /** Count a decode's SECDED words; true once @p state is worn out. */
    bool tallyEcc(MemDbc &state, const LineSecded::Result &res);

    /** A row's data and check lanes: the wires data faults reach. */
    std::size_t
    payloadWires() const { return cfg.device.wiresPerDbc + eccLanes; }

    MemoryConfig cfg;
    RetryLadder ladder;
    AddressMap amap;
    DeviceParams dbcParams; ///< cfg.device plus check/guard lanes
    std::optional<AlignmentGuard> guard;
    std::optional<LineSecded> ecc;
    std::size_t eccLanes = 0;
    std::unique_ptr<ShiftFaultModel> shiftInjector;
    std::unique_ptr<DataFaultModel> dataInjector;
    std::unordered_map<std::uint64_t, std::unique_ptr<MemDbc>> dbcs;
    std::unordered_map<std::uint64_t, std::uint64_t> remap; ///< logical->physical
    std::unordered_map<std::uint64_t, std::unique_ptr<CoruscantUnit>>
        pimUnits;
    CostLedger costs;
    obs::ComponentMetrics *memMetrics = nullptr;   ///< non-owning
    obs::ComponentMetrics *dbcMetrics = nullptr;   ///< non-owning
    obs::ComponentMetrics *pimMetrics = nullptr;   ///< non-owning
    obs::ComponentMetrics *guardMetrics = nullptr; ///< non-owning
    obs::ComponentMetrics *eccMetrics = nullptr;   ///< non-owning
    obs::TraceSink *traceSink = nullptr;           ///< non-owning
    std::uint32_t tracePid = 0;
    std::uint64_t shiftSteps = 0;
    std::uint64_t accesses = 0;
    MemoryEvents ev;
};

} // namespace coruscant

#endif // CORUSCANT_ARCH_DWM_MEMORY_HPP
