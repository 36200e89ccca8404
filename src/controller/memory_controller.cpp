#include "controller/memory_controller.hpp"

#include <iomanip>
#include <sstream>

#include "util/logging.hpp"

namespace coruscant {

namespace {

std::string
hexAddr(std::uint64_t addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

/** One-line instruction summary for diagnostics. */
std::string
describe(const CpimInstruction &inst)
{
    std::ostringstream os;
    os << "cpim " << cpimOpName(inst.op) << " src="
       << hexAddr(inst.src) << " dst=" << hexAddr(inst.dst)
       << " operands=" << static_cast<unsigned>(inst.operands)
       << " blocksize=" << inst.blockSize;
    return os.str();
}

/**
 * Operand row @p i of an instruction whose first operand is @p src
 * (decoded from byte address @p src_addr): the same DBC, @p i rows on.
 */
LineAddress
operandLine(const DwmMainMemory &mem, const LineAddress &src,
            std::uint64_t src_addr, std::size_t i)
{
    LineAddress loc = src;
    loc.row += i;
    // Diagnostics are formatted only on failure: this runs per operand.
    if (loc.row >= mem.config().device.domainsPerWire)
        fatal("operand row ", i, " of src=", hexAddr(src_addr),
              " (DBC row ", loc.row, ") runs past the end of the DBC (",
              mem.config().device.domainsPerWire, " rows)");
    return loc;
}

} // namespace

std::uint64_t
MemoryController::operandAddress(std::uint64_t src, std::size_t i) const
{
    const AddressMap &amap = mem.addressMap();
    return amap.encode(operandLine(mem, amap.decode(src), src, i));
}

BitVector
MemoryController::computeResult(const CpimInstruction &inst,
                                const LineAddress &src)
{
    CoruscantUnit &unit = mem.pimUnit(src.bank, src.subarray);

    // Gather operand rows (charges DWM access timing per row).
    std::vector<BitVector> &ops = operandRows;
    ops.clear();
    for (std::size_t i = 0; i < inst.operands; ++i)
        ops.push_back(mem.readLine(operandLine(mem, src, inst.src, i)));

    if (std::optional<BulkOp> bulk = cpimBulkOp(inst.op)) {
        // NOT senses its first operand row only.
        if (*bulk == BulkOp::Not)
            ops.resize(1);
        return unit.bulkBitwise(*bulk, ops);
    }
    switch (inst.op) {
      case CpimOp::Add:
        return unit.add(ops, inst.blockSize);
      case CpimOp::Reduce:
        // The carry rows remain resident in the DBC.
        return unit.reduce(ops, inst.blockSize).sum;
      case CpimOp::Multiply:
        return unit.multiply(ops[0], ops[1], inst.blockSize / 2);
      case CpimOp::Max:
        return unit.maxOfRows(ops, inst.blockSize);
      case CpimOp::Relu:
        return unit.relu(ops[0], inst.blockSize);
      case CpimOp::Vote:
        return unit.nmrVote(ops);
      case CpimOp::Copy:
        return ops[0];
      default: // the bulk ops, above
        panic("unhandled cpim op ", cpimOpName(inst.op));
    }
}

BitVector
MemoryController::computeOnce(const CpimInstruction &inst,
                              const LineAddress &src,
                              const LineAddress &dst)
{
    const ReliabilityConfig &rel = mem.config().reliability;
    // ECC protects lines crossing the port, but in-situ compute senses
    // raw operand lanes with transverse reads — check bits mean
    // nothing to a TR.  When data faults are live, PIM ops fall back
    // to whole-op N-modular redundancy (paper Sec. III-F): each
    // replica re-reads its operands (re-sampling any transient
    // disturbance) and the unit majority-votes the replica rows.
    bool nmr = rel.pimNmr > 1 && rel.dataFaultsEnabled() &&
               inst.op != CpimOp::Copy;
    BitVector result;
    if (nmr) {
        CoruscantUnit &unit = mem.pimUnit(src.bank, src.subarray);
        replicaRows.clear();
        for (std::size_t i = 0; i < rel.pimNmr; ++i)
            replicaRows.push_back(computeResult(inst, src));
        result = unit.nmrVote(replicaRows);
    } else {
        result = computeResult(inst, src);
    }
    mem.writeLine(dst, result);
    return result;
}

ExecReport
MemoryController::executeGuarded(const CpimInstruction &inst)
{
    std::string err = inst.validate(mem.config().device.trd);
    if (!err.empty())
        fatal(describe(inst), ": ", err);
    // Decoded once: every operand read, the result write and the guard
    // checks below address these lines.
    const LineAddress src = mem.addressMap().decode(inst.src);
    const LineAddress dst = mem.addressMap().decode(inst.dst);

    ++executed;
    std::uint64_t cycles_before = mem.ledger().cycles();
    ExecReport report;
    bool corrected = false;
    bool uncorrectable = false;
    bool spares_exhausted = false;
    if (mem.config().reliability.guardPolicy != GuardPolicy::PerCpim) {
        // Per-access and scrub policies run inside the memory itself;
        // an unguarded memory executes single-shot.  Surface any event
        // the memory hit during this instruction.
        MemoryEvents before = mem.events();
        report.result = computeOnce(inst, src, dst);
        MemoryEvents seen = mem.events().since(before);
        corrected = seen.fixed();
        uncorrectable = seen.flagged();
        spares_exhausted = seen.retireFailures > 0;
    } else {
        // Guard-check (and correct) both clusters; the events of the
        // two checks.
        auto check_both = [&] {
            MemoryEvents before = mem.events();
            mem.checkLine(src);
            mem.checkLine(dst);
            return mem.events().since(before);
        };
        // Rung 1: realign the source and destination clusters up front
        // so the operand reads (all in the source DBC, by the ISA)
        // start from a known-good position.
        MemoryEvents pre = check_both();
        corrected = pre.correctedMisalignments > 0;
        uncorrectable = pre.uncorrectable > 0;
        spares_exhausted = pre.retireFailures > 0;

        // Rungs 2-3: execute, then re-check; a fault that struck
        // between the pre-check and the post-check may have corrupted
        // the operand reads or the result write, so climb the ladder:
        // back off, re-read and recompute.
        bool ecc_due = false;
        bool exhausted = mem.retryLadder().climb(
            [&](std::size_t) {
                MemoryEvents before = mem.events();
                report.result = computeOnce(inst, src, dst);
                MemoryEvents run = mem.events().since(before);
                MemoryEvents post = check_both();
                uncorrectable |= post.uncorrectable > 0;
                // Only the checks' refused retirements count; one an
                // ECC DUE asked for during `run` does not, unlike in
                // the branch above.
                spares_exhausted |= post.retireFailures > 0;
                if (uncorrectable)
                    return false;
                // An ECC DUE during this attempt means an operand or
                // the result crossed the port unprotected; like a
                // mid-instruction misalignment it warrants a
                // re-execution — transient flips re-sample clean, and
                // only persistent damage survives the ladder.
                bool misaligned = post.misaligned > 0;
                ecc_due = run.eccDue > 0;
                corrected |= misaligned || run.eccCorrections > 0;
                return misaligned || ecc_due;
            },
            [&](std::uint64_t backoff) {
                mem.chargeRetryBackoff(backoff);
                ++report.retries;
            });
        // An exhausted ladder keeps the last (suspect) result; a
        // still-uncorrectable ECC word is a DUE, a misalignment the
        // last post-check corrected is not.
        uncorrectable |= exhausted && ecc_due;
    }

    if (report.retries > 0)
        ++retried;
    // Rung 4: escalate.  An uncorrectable misalignment or DUE word means
    // the result is untrusted.  When the escalation itself failed for
    // capacity (no spare to retire onto), report the typed capacity
    // error so callers shed load instead of hammering a cluster that
    // can never be replaced.
    if (spares_exhausted) {
        report.outcome = ExecOutcome::SparesExhausted;
        ++spareExhaustedCount;
    } else if (uncorrectable) {
        report.outcome = ExecOutcome::Uncorrectable;
    } else if (corrected) {
        report.outcome = ExecOutcome::Corrected;
    }
    noteExecution(inst, src, report, cycles_before);
    return report;
}

void
MemoryController::noteExecution(const CpimInstruction &inst,
                                const LineAddress &src,
                                const ExecReport &report,
                                std::uint64_t cycles_before)
{
    if (metrics) {
        metrics->add(obs::Counter::Requests);
        metrics->add(obs::Counter::Retries, report.retries);
    }
    if (traceSink && traceSink->on()) {
        traceSink->span(cpimOpName(inst.op), "cpim", cycles_before,
                        mem.ledger().cycles() - cycles_before, tracePid,
                        static_cast<std::uint32_t>(src.bank), "retries",
                        static_cast<double>(report.retries));
    }
}

BitVector
MemoryController::execute(const CpimInstruction &inst)
{
    return executeGuarded(inst).result;
}

} // namespace coruscant
