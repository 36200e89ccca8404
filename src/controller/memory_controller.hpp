/**
 * @file
 * The CORUSCANT memory controller: executes cpim instructions against
 * the DWM main memory (paper Sec. III-E).
 *
 * For each cpim the controller:
 *   1. validates the instruction against the ISA limits;
 *   2. reads the operand rows from their home locations (operands are
 *      consecutive rows of one DBC at the source address; the memory
 *      charges shift-aware DWM timing for each);
 *   3. drives the subarray's PIM unit, which charges its own staging
 *      and compute costs; and
 *   4. writes the result row to the destination address.
 *
 * Ordinary load/store traffic bypasses the PIM unit entirely (the
 * orange path of paper Fig. 4(a)) via DwmMainMemory::read/writeLine.
 *
 * Guarded execution (GuardPolicy::PerCpim): the controller wraps each
 * cpim in the memory's RetryLadder (the same ladder type the service
 * layer climbs) —
 *
 *   1. guard-check (and realign) the source and destination DBCs;
 *   2. read operands, compute, write the result;
 *   3. guard-check both DBCs again; if a misalignment was detected
 *      and corrected mid-instruction, or an ECC word came back
 *      uncorrectable, the operands may have been read corrupt, so
 *      wait `retryBackoffCycles << k` on rung k, then re-read,
 *      recompute, and rewrite (at most ReliabilityConfig::maxRetries
 *      rungs);
 *   4. if a check reports an uncorrectable misalignment, escalate:
 *      the instruction is classified detected-uncorrectable (a DUE in
 *      the DUE/SDC taxonomy) — its result cannot be trusted and the
 *      source data may be lost.
 *
 * An exhausted ladder keeps the last result: a DUE if the last attempt
 * still saw an uncorrectable ECC word, else Corrected (the last
 * post-check realigned the clusters, though the result may be
 * suspect).  The service mirror reports an exhausted shift-fault
 * ladder as a DUE instead.
 */

#ifndef CORUSCANT_CONTROLLER_MEMORY_CONTROLLER_HPP
#define CORUSCANT_CONTROLLER_MEMORY_CONTROLLER_HPP

#include <cstdint>
#include <vector>

#include "arch/dwm_memory.hpp"
#include "controller/cpim_isa.hpp"

namespace coruscant {

/** How a guarded cpim instruction completed. */
enum class ExecOutcome
{
    Clean,         ///< no misalignment observed anywhere
    Corrected,     ///< misalignments detected and corrected (retried)
    Uncorrectable, ///< a DBC could not be realigned; result untrusted
    SparesExhausted, ///< untrusted AND retirement found no spare left:
                     ///< a typed capacity error — the serving layer
                     ///< rejects/steers instead of retrying forever
};

/** Result of one guarded cpim execution. */
struct ExecReport
{
    BitVector result;
    ExecOutcome outcome = ExecOutcome::Clean;
    unsigned retries = 0; ///< full re-executions after post-checks
};

/** Executes cpim instructions end to end. */
class MemoryController
{
  public:
    explicit MemoryController(DwmMainMemory &memory)
        : mem(memory)
    {}

    /**
     * Execute @p inst and return the result row.  Throws FatalError
     * for ISA violations.  Equivalent to executeGuarded(inst).result.
     */
    BitVector execute(const CpimInstruction &inst);

    /**
     * Execute @p inst under the memory's guard policy and report how
     * the retry ladder resolved it.  With GuardPolicy::None or no
     * guard configured this is a plain single-shot execution.
     */
    ExecReport executeGuarded(const CpimInstruction &inst);

    /** Byte address of operand row @p i for an instruction at @p src. */
    std::uint64_t operandAddress(std::uint64_t src, std::size_t i) const;

    /**
     * Attach observability: each cpim counts one Request (plus its
     * ladder Retries) into @p m, and emits one complete span on
     * @p trace covering the instruction's slice of the memory's cycle
     * timeline, on row (@p pid, source bank).  Non-owning.
     */
    void
    attachObs(obs::ComponentMetrics *m, obs::TraceSink *trace = nullptr,
              std::uint32_t pid = 0)
    {
        metrics = m;
        traceSink = trace;
        tracePid = pid;
    }

    /** Total instructions executed. */
    std::uint64_t executedInstructions() const { return executed; }

    /** Instructions that needed at least one ladder retry. */
    std::uint64_t retriedInstructions() const { return retried; }

    /** Instructions that hit an exhausted spare pool. */
    std::uint64_t spareExhaustedInstructions() const
    {
        return spareExhaustedCount;
    }

  private:
    /**
     * Read operands and compute; no result write, no NMR.  @p src is
     * inst.src decoded.
     */
    BitVector computeResult(const CpimInstruction &inst,
                            const LineAddress &src);

    /**
     * One full execution: compute (replicated + voted when
     * ReliabilityConfig::pimNmr routes PIM ops through NMR under data
     * faults) and write the result row.  @p src and @p dst are
     * inst.src and inst.dst decoded.
     */
    BitVector computeOnce(const CpimInstruction &inst,
                          const LineAddress &src, const LineAddress &dst);

    /** Record counters and the instruction span after an execution. */
    void noteExecution(const CpimInstruction &inst,
                       const LineAddress &src, const ExecReport &report,
                       std::uint64_t cycles_before);

    DwmMainMemory &mem;
    obs::ComponentMetrics *metrics = nullptr; ///< non-owning, optional
    obs::TraceSink *traceSink = nullptr;      ///< non-owning, optional
    std::uint32_t tracePid = 0;
    std::uint64_t executed = 0;
    std::uint64_t retried = 0;
    std::uint64_t spareExhaustedCount = 0;
    // Per-cpim scratch rows, kept so their storage outlives the cpim.
    std::vector<BitVector> operandRows; ///< computeResult's operands
    std::vector<BitVector> replicaRows; ///< computeOnce's NMR replicas
};

} // namespace coruscant

#endif // CORUSCANT_CONTROLLER_MEMORY_CONTROLLER_HPP
