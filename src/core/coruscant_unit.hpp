/**
 * @file
 * CoruscantUnit: one PIM-enabled domain-block cluster.
 *
 * This is the paper's core contribution (Section III): a DBC whose two
 * access ports are spaced at the transverse-read distance, a
 * seven-level sense amplifier per nanowire, and the PIM block of
 * Fig. 4(b).  The unit executes:
 *
 *   - multi-operand bulk-bitwise logic (Sec. III-B): one TR evaluates
 *     up to TRD operand rows at once;
 *   - multi-operand addition (Sec. III-C): a sequential carry chain
 *     across nanowires, S/C/C' written through the inter-wire
 *     connections, all blocksize-lanes advancing in parallel;
 *   - 7->3 carry-save reduction and three multiplication strategies
 *     (Sec. III-D): constant (CSD/Booth), arbitrary (partial-product
 *     groups), and optimized (CSA reduction, O(n));
 *   - the max function with transverse-write segmented shifting
 *     (Sec. IV-B) and ReLU (Sec. IV-C);
 *   - N-modular-redundancy majority voting (Sec. III-F).
 *
 * Every operation manipulates real bits in the underlying
 * DomainBlockCluster (so results are checkable against golden
 * arithmetic) and charges cycles/energy for each device primitive to a
 * CostLedger, using the per-primitive constants in DeviceParams.
 *
 * Data layout: a DBC row is an X-bit bit-slice across the nanowires.
 * Arithmetic interprets rows as packed lanes of `blockSize` bits; an
 * operand word's bit k lives in wire (lane*blockSize + k), exactly as
 * in paper Fig. 6 where bit_0 of all operands is evaluated by a TR of
 * dwm_0.
 */

#ifndef CORUSCANT_CORE_CORUSCANT_UNIT_HPP
#define CORUSCANT_CORE_CORUSCANT_UNIT_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/pim_logic.hpp"
#include "dwm/dbc.hpp"
#include "dwm/device_params.hpp"
#include "dwm/fault_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/bit_vector.hpp"
#include "util/stats.hpp"

namespace coruscant {

/** Multiplication strategies of paper Section III-D. */
enum class MulStrategy
{
    Arbitrary,    ///< partial products summed in adder-arity groups
    OptimizedCsa, ///< 7->3 reductions, then one final addition
};

/** Result of a 7->3 (or 3->2) operand reduction. */
struct CsaRows
{
    BitVector sum;        ///< weight-1 row (S)
    BitVector carry;      ///< weight-2 row, already shifted one wire
    BitVector superCarry; ///< weight-4 row, already shifted two wires
    bool hasSuperCarry = true; ///< DeviceParams::hasSuperCarry()
};

/** A PIM-enabled DBC executing CORUSCANT operations. */
class CoruscantUnit
{
  public:
    /**
     * @param params device configuration (TRD, geometry, energies)
     * @param fault_probability per-TR +/-1 level fault rate (0 = off)
     * @param seed fault-injection RNG seed
     */
    explicit CoruscantUnit(const DeviceParams &params,
                           double fault_probability = 0.0,
                           std::uint64_t seed = 1);

    const DeviceParams &params() const { return dev; }

    /** Bits per row. */
    std::size_t width() const { return dev.wiresPerDbc; }

    /** Data rows. */
    std::size_t rows() const { return dev.domainsPerWire; }

    /** Cost accounting for all operations since the last reset. */
    const CostLedger &ledger() const { return costs; }
    CostLedger &ledger() { return costs; }
    void resetCosts() { costs.reset(); }

    /** Faults injected into TRs so far. */
    std::uint64_t injectedFaults() const { return faults.injectedFaults(); }

    /**
     * Attach an observability counter set: the charged primitives
     * (shift pulses, TRs, TWs, port reads/writes) and their energy
     * are mirrored into it.  Counts reflect the *modeled* cost — one
     * pulse per charge — not the functional simulation's internal
     * accesses, so the unit's internal DBC is deliberately left
     * uninstrumented (attaching both would double-count).
     * Non-owning; nullptr detaches.
     */
    void attachMetrics(obs::ComponentMetrics *m) { metrics = m; }

    /**
     * Attach a trace sink: every public operation emits one complete
     * span on row (@p pid, @p tid) covering its slice of the modeled
     * cycle timeline (the ledger's cycle counter is the clock).
     * Non-owning; nullptr detaches.
     */
    void
    attachTrace(obs::TraceSink *sink, std::uint32_t pid = 0,
                std::uint32_t tid = 0)
    {
        trace = sink;
        tracePid = pid;
        traceTid = tid;
    }

    // ------------------------------------------------------------------
    // Backdoor row read (tests and verification; charges nothing)
    // ------------------------------------------------------------------
    BitVector peekRow(std::size_t row) const;

    // ------------------------------------------------------------------
    // Bulk-bitwise operations (Sec. III-B)
    // ------------------------------------------------------------------

    /**
     * Multi-operand bulk-bitwise operation over up to TRD operand rows.
     *
     * Operands are staged into the TR window (unused slots padded with
     * the operation's identity value as in paper Fig. 7), one TR
     * evaluates all wires, and the PIM block selects the result.
     *
     * @param op the logic operation
     * @param operands the words of 1..TRD rows: row i takes the first
     *        words of operands[i] (zeros past the end of a shorter
     *        span; words and bits past width() are dropped)
     * @param active_wires wires carrying data (energy attribution);
     *        defaults to the full row
     * @param write_back also write the result row back at the left port
     * @param use_tw stage operands with transverse writes, fusing each
     *        operand write with its alignment shift (paper Sec. IV-B:
     *        "TW can also reduce the cycles required for padding
     *        operations where the number of operands < TRD")
     * @return the result row
     */
    BitVector bulkBitwise(BulkOp op, std::span<const WordSpan> operands,
                          std::size_t active_wires = 0,
                          bool write_back = false, bool use_tw = false);

    /** bulkBitwise() over the rows of @p operands, each width() bits. */
    BitVector bulkBitwise(BulkOp op, const std::vector<BitVector> &operands,
                          std::size_t active_wires = 0,
                          bool write_back = false, bool use_tw = false);

    /**
     * bulkBitwise() into @p result, a row of width() bits that the
     * caller keeps.  The window is staged in place, the TR counts
     * into the unit's kept planes and the PIM block decodes into
     * @p result, so with no faults to sense the step allocates
     * nothing.
     */
    void bulkBitwise(BulkOp op, std::span<const WordSpan> operands,
                     BitVector &result, std::size_t active_wires = 0,
                     bool write_back = false, bool use_tw = false);

    // ------------------------------------------------------------------
    // Multi-operand addition (Sec. III-C)
    // ------------------------------------------------------------------

    /**
     * Add up to maxAddOperands() operand rows, treating each row as
     * packed `block_size`-bit lanes.  Lane sums are modulo
     * 2^block_size (carries are masked at lane boundaries, as the
     * memory controller masks bitlines per the cpim blocksize).
     *
     * Cost model: staging writes one interior slot per cycle pair
     * (write + shift), then each bit position costs one TR plus one
     * parallel S/C/C' write — the paper's 10 + 16 = 26 cycles for the
     * 8-bit five-operand case.
     *
     * @return the result row (sums in each lane)
     */
    BitVector add(const std::vector<BitVector> &operands,
                  std::size_t block_size, std::size_t active_wires = 0);

    // ------------------------------------------------------------------
    // Carry-save reduction and multiplication (Sec. III-D)
    // ------------------------------------------------------------------

    /**
     * Reduce up to DeviceParams::csaInputs() operand rows to
     * csaOutputs() rows of equal total sum: TRD->3 with the super
     * carry, else 3->2, in O(1) time (paper: 4 cycles).
     * Carries crossing a lane boundary are masked.
     */
    CsaRows reduce(const std::vector<BitVector> &rows,
                   std::size_t block_size, std::size_t active_wires = 0);

    /**
     * Sum an arbitrary number of operand rows (large-cardinality
     * addition, paper Sec. III-D.3): rows are collapsed with 7->3
     * (or 3->2) carry-save reductions until at most the adder arity
     * remains, then one multi-operand addition finishes — O(n) in the
     * row count, vs. the O(n log n) chains of grouped additions.
     */
    BitVector reduceAndSum(std::vector<BitVector> rows,
                           std::size_t block_size,
                           std::size_t active_wires = 0);

    /**
     * Multiply packed lanes: each lane holds an `operand_bits`-bit
     * value of A (low bits) in a lane of width 2*operand_bits; the
     * product fills the lane.
     *
     * @param a_row multiplicand lanes
     * @param b_row multiplier lanes (same packing)
     * @param operand_bits n; lanes are 2n wide
     * @param strategy partial-product summation strategy
     */
    BitVector multiply(const BitVector &a_row, const BitVector &b_row,
                       std::size_t operand_bits,
                       MulStrategy strategy = MulStrategy::OptimizedCsa,
                       std::size_t active_wires = 0);

    /**
     * Multiply packed lanes by a compile-time constant using CSD
     * (Booth) recoding (paper Sec. III-D.1).  Negative digits are
     * realized as one's complement plus a correction row.
     */
    BitVector multiplyByConstant(const BitVector &a_row,
                                 std::uint64_t constant,
                                 std::size_t operand_bits,
                                 std::size_t active_wires = 0);

    // ------------------------------------------------------------------
    // Max / ReLU (Sec. IV-B, IV-C)
    // ------------------------------------------------------------------

    /**
     * Lane-wise maximum of up to TRD candidate rows, MSB-to-LSB with
     * predicated elimination.
     *
     * @param candidates 1..TRD rows of packed `word_bits` lanes
     * @param use_tw rotate candidates with transverse writes
     *        (paper's segmented shifting) instead of full-DBC shifts
     */
    BitVector maxOfRows(const std::vector<BitVector> &candidates,
                        std::size_t word_bits,
                        std::size_t active_wires = 0, bool use_tw = true);

    /**
     * Lane-wise ReLU on two's-complement lanes: lanes with the sign
     * bit set are zeroed by a predicated row refresh.
     */
    BitVector relu(const BitVector &row, std::size_t block_size,
                   std::size_t active_wires = 0);

    // ------------------------------------------------------------------
    // N-modular redundancy (Sec. III-F)
    // ------------------------------------------------------------------

    /**
     * Majority vote over N = 3, 5, or 7 replica rows using the C'
     * (>= 4 of 7) circuit with the padding configuration of paper
     * Fig. 7 (TRD = 7) or the thermometer threshold for smaller TRD.
     */
    BitVector nmrVote(const std::vector<BitVector> &replicas,
                      std::size_t active_wires = 0);

    /**
     * Multi-operand addition with per-step voting (paper Sec. III-F):
     * at every bit position the transverse read is performed N times
     * and each of S / C / C' is majority-voted before being written,
     * so single-TR faults cannot propagate down the carry chain.
     * Costs N TRs plus one voting cycle per bit position instead of
     * one TR — the reliability end of the paper's trade-off (vs.
     * repeating the whole addition and voting once at the end).
     */
    BitVector addStepVoted(const std::vector<BitVector> &operands,
                           std::size_t block_size, std::size_t n,
                           std::size_t active_wires = 0);

    /**
     * Execute @p op N times and vote.  Models the paper's
     * reliability/performance trade-off: the full operation is
     * repeated and the vote appended.
     */
    template <typename Op>
    BitVector
    nmrExecute(std::size_t n, Op op)
    {
        std::vector<BitVector> replicas;
        replicas.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            replicas.push_back(op());
        return nmrVote(replicas);
    }

  private:
    friend class CoruscantUnitTestPeer;

    /**
     * RAII span over a public operation: captures the ledger's cycle
     * counter on entry and emits a complete trace event on exit.
     * Nested operations (multiply -> reduce -> add) produce properly
     * nested spans because they share the same modeled clock.
     */
    class OpSpan
    {
      public:
        OpSpan(CoruscantUnit &u, const char *name)
            : unit(u), opName(name),
              active(u.trace != nullptr && u.trace->on()),
              start(active ? u.costs.cycles() : 0)
        {
        }

        ~OpSpan()
        {
            if (active)
                unit.trace->span(opName, "cpim", start,
                                 unit.costs.cycles() - start,
                                 unit.tracePid, unit.traceTid);
        }

        OpSpan(const OpSpan &) = delete;
        OpSpan &operator=(const OpSpan &) = delete;

      private:
        CoruscantUnit &unit;
        const char *opName;
        bool active;
        std::uint64_t start;
    };

    /** Mirror a charged primitive into the attached counter set. */
    void
    noteCost(obs::Counter c, std::uint64_t n, double energy_pj)
    {
        if (metrics) {
            metrics->add(c, n);
            metrics->addEnergy(energy_pj);
        }
    }

    // Charged device primitives (implementation helpers).
    void chargeTrAll(std::size_t active_wires);
    void chargeRowWrite(std::size_t active_wires);
    void chargeRowRead(std::size_t active_wires);
    void chargeShifts(std::size_t steps, std::size_t active_wires);
    void chargeTwRow(std::size_t active_wires);

    /**
     * Charge @p rows operand rows staged into the window: each a TW
     * with @p use_tw, else a port write and a one-step shift.
     */
    void chargeStaging(std::size_t rows, std::size_t active_wires,
                       bool use_tw);
    void chargeCopy(std::size_t active_wires);

    /**
     * Stage operand rows, given by their words as in bulkBitwise(),
     * into the TR window from slot @p interior_offset on, and fill
     * every other window slot with @p pad_ones, in place and in one
     * pass; returns the window start.
     */
    std::size_t stageWindow(std::span<const WordSpan> interior_rows,
                            bool pad_ones, std::size_t interior_offset);

    /** stageWindow() over the rows of @p interior_rows, each width() bits. */
    std::size_t stageWindow(const std::vector<BitVector> &interior_rows,
                            bool pad_ones, std::size_t interior_offset);

    std::size_t resolveActive(std::size_t active_wires) const;

    /** Row with wires 0, @p block, 2*@p block, ... below @p wires set. */
    BitVector laneStarts(std::size_t block, std::size_t wires) const;

    /**
     * The carry chain shared by add() and addStepVoted(): stage the
     * operands, then per bit position one lane-strided TR sensed
     * @p samples times per lane (majority-voted when more than one)
     * and one S/C/C' write.  Arguments are already validated.
     */
    BitVector carryChain(const std::vector<BitVector> &operands,
                         std::size_t block_size, std::size_t act,
                         std::size_t samples);

    /** Sum a list of operand rows with grouped additions. */
    BitVector addMany(std::vector<BitVector> rows, std::size_t block_size,
                      std::size_t active_wires);

    DeviceParams dev;
    /** TR plus PIM block energy per wire, as chargeTrAll() books it. */
    double trPjPerWire;
    DomainBlockCluster dbc;
    /**
     * The count planes of the unit's row-wide TRs, sized for the TR
     * window at construction and recounted in place at every TR.
     */
    CountPlanes windowPlanes;
    TrFaultModel faults;
    CostLedger costs;
    obs::ComponentMetrics *metrics = nullptr; ///< non-owning, optional
    obs::TraceSink *trace = nullptr;          ///< non-owning, optional
    std::uint32_t tracePid = 0;
    std::uint32_t traceTid = 0;
};

} // namespace coruscant

#endif // CORUSCANT_CORE_CORUSCANT_UNIT_HPP
