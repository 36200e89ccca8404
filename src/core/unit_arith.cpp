/**
 * @file
 * CoruscantUnit multi-operand addition and 7->3 reduction.
 *
 * Addition (paper Sec. III-C, Fig. 6): operand words lie across
 * nanowires (bit k in wire lane*B + k).  The carry chain walks bit
 * positions; at step k a TR evaluates C'(k-2), the operand bits, and
 * C(k-1); the PIM block emits S into the left-port row of wire k, C
 * into the right-port row of wire k+1, and C' into the left-port row
 * of wire k+2.  All blocksize lanes advance in the same step, so the
 * loop costs 2 cycles per bit position regardless of how many words
 * are packed in the row.
 *
 * Layouts (DeviceParams states the shape):
 *  - With the super carry (TRD >= 5): operands occupy the TRD-2
 *    interior window rows (zero padded), C' and S share the left-port
 *    row, C the right-port row.  Staging costs (TRD-2) write+shift
 *    pairs: the paper's 10-cycle setup for TRD = 7.
 *  - Without it (compact): operands from the left-port row on, the
 *    carry rides the right-port row (counts <= 3).  Staging writes
 *    each operand, shifting between: at TRD = 3, write/shift/write,
 *    the paper's 19-cycle 8-bit total.
 */

#include <algorithm>

#include "core/coruscant_unit.hpp"
#include "util/logging.hpp"

namespace coruscant {

BitVector
CoruscantUnit::add(const std::vector<BitVector> &operands,
                   std::size_t block_size, std::size_t active_wires)
{
    OpSpan span(*this, "add");
    std::size_t act = resolveActive(active_wires);
    std::size_t m = operands.size();
    fatalIf(m == 0, "addition needs at least one operand");
    fatalIf(m > dev.maxAddOperands(), "TRD = ", dev.trd, " supports ",
            dev.maxAddOperands(), "-operand addition, got ", m);
    fatalIf(block_size == 0, "block size must be positive");
    fatalIf(act % block_size != 0,
            "active wires must be a whole number of lanes");
    return carryChain(operands, block_size, act, 1);
}

BitVector
CoruscantUnit::carryChain(const std::vector<BitVector> &operands,
                          std::size_t block_size, std::size_t act,
                          std::size_t samples)
{
    const std::size_t m = operands.size();
    const bool has_super = dev.hasSuperCarry();
    std::size_t ws = stageWindow(operands, false, has_super ? 1 : 0);

    // Staging cost (see file header).
    if (has_super) {
        chargeStaging(dev.maxAddOperands(), act, false);
    } else {
        for (std::size_t i = 0; i < m; ++i) {
            chargeRowWrite(act);
            if (i + 1 < m)
                chargeShifts(1, act);
        }
    }

    const std::size_t lanes = act / block_size;

    // Step k senses wire k of every lane at once; the outputs land on
    // the lane wires (S), one wire up (C) and two wires up (C').  A
    // lane's writes stay inside the lane, so no lane's sense sees
    // another lane's writes from the same step.
    dbc.carryChain(laneStarts(block_size, act), block_size, samples,
                   &faults, has_super);
    // Each step's charges, in the order the step makes them.
    for (std::size_t k = 0; k < block_size; ++k) {
        const bool write_c = k + 1 < block_size;
        const bool write_cp = has_super && k + 2 < block_size;
        std::size_t bits_written =
            lanes * (1 + std::size_t{write_c} + std::size_t{write_cp});
        for (std::size_t r = 0; r < samples; ++r)
            chargeTrAll(lanes);
        if (samples > 1) {
            // One voting-logic cycle plus the parallel write.
            double vote_pj =
                static_cast<double>(lanes) * dev.pimLogicEnergyPj;
            costs.charge(Cost::Vote, 1, vote_pj);
            if (metrics)
                metrics->addEnergy(vote_pj);
        }
        chargeRowWrite(bits_written);
    }

    return dbc.peekRow(ws); // S lands in the left-port row
}

CsaRows
CoruscantUnit::reduce(const std::vector<BitVector> &rows,
                      std::size_t block_size, std::size_t active_wires)
{
    OpSpan span(*this, "reduce");
    std::size_t act = resolveActive(active_wires);
    std::size_t m = rows.size();
    const bool has_super = dev.hasSuperCarry();
    fatalIf(m == 0, "reduction needs at least one row");
    fatalIf(m > dev.csaInputs(), "TRD = ", dev.trd, " reduces at most ",
            dev.csaInputs(), " rows, got ", m);
    fatalIf(block_size == 0, "block size must be positive");
    std::size_t ws = stageWindow(rows, false, 0);

    dbc.transverseReadPlanes(windowPlanes, &faults);
    const CountPlanes &counts = windowPlanes;
    chargeTrAll(act);

    // Weight-2 carries land one wire up, weight-4 two wires up;
    // carries may not cross a lane boundary (the controller masks
    // bitlines at the cpim blocksize).
    BitVector lane_start = laneStarts(block_size, dev.wiresPerDbc);
    CsaRows out;
    out.sum = counts.plane(0);
    out.carry = counts.plane(1).shiftedLeft(1) & ~lane_start;
    out.superCarry =
        has_super ? counts.plane(2).shiftedLeft(2)
                        & ~(lane_start | lane_start.shiftedLeft(1))
                  : BitVector(dev.wiresPerDbc);
    out.hasSuperCarry = has_super;

    // Write-back phases: S at the left port, C at the right port, C'
    // after a one-domain shift (paper: 4 cycles total per reduction).
    dbc.pokeRow(ws, out.sum);
    chargeRowWrite(act);
    dbc.pokeRow(ws + dev.trd - 1, out.carry);
    chargeRowWrite(act);
    if (has_super) {
        dbc.pokeRow(ws + 1, out.superCarry);
        chargeRowWrite(act);
    }
    return out;
}

BitVector
CoruscantUnit::reduceAndSum(std::vector<BitVector> rows,
                            std::size_t block_size,
                            std::size_t active_wires)
{
    OpSpan span(*this, "reduce_and_sum");
    std::size_t act = resolveActive(active_wires);
    fatalIf(rows.empty(), "reduceAndSum needs at least one row");
    std::size_t round = 0;
    while (rows.size() > dev.maxAddOperands()) {
        std::size_t batch = std::min(dev.csaInputs(), rows.size());
        // Re-align the window, and gather rows that are neither a
        // freshly laid contiguous run (round 0) nor outputs of the
        // previous reduction.
        chargeShifts(1, act);
        std::size_t outputs_in_window =
            round == 0 ? dev.csaInputs() : dev.csaOutputs();
        if (batch > outputs_in_window) {
            for (std::size_t g = outputs_in_window; g < batch; ++g) {
                chargeCopy(act);
                chargeShifts(1, act);
            }
        }
        std::vector<BitVector> group(rows.begin(),
                                     rows.begin() + batch);
        rows.erase(rows.begin(), rows.begin() + batch);
        CsaRows red = reduce(group, block_size, act);
        rows.push_back(red.sum);
        rows.push_back(red.carry);
        if (red.hasSuperCarry)
            rows.push_back(red.superCarry);
        ++round;
    }
    return addMany(std::move(rows), block_size, act);
}

BitVector
CoruscantUnit::addStepVoted(const std::vector<BitVector> &operands,
                            std::size_t block_size, std::size_t n,
                            std::size_t active_wires)
{
    OpSpan span(*this, "add_step_voted");
    std::size_t act = resolveActive(active_wires);
    std::size_t m = operands.size();
    // N TRs in turn, voted in the PIM block: no window bounds N.
    DeviceParams::checkVote(n, DeviceParams::kMaxPimTrd);
    fatalIf(m == 0 || m > dev.maxAddOperands(),
            "operand count out of range for TRD = ", dev.trd);
    fatalIf(block_size == 0 || act % block_size != 0,
            "active wires must be a whole number of lanes");
    return carryChain(operands, block_size, act, n);
}

BitVector
CoruscantUnit::addMany(std::vector<BitVector> rows, std::size_t block_size,
                       std::size_t active_wires)
{
    fatalIf(rows.empty(), "addMany needs at least one row");
    std::size_t arity = dev.maxAddOperands();
    // First group takes `arity` rows; later groups reserve one slot
    // for the running partial sum.
    BitVector acc;
    bool have_acc = false;
    std::size_t i = 0;
    while (i < rows.size() || !have_acc) {
        std::vector<BitVector> group;
        if (have_acc)
            group.push_back(acc);
        while (group.size() < arity && i < rows.size())
            group.push_back(rows[i++]);
        acc = add(group, block_size, active_wires);
        have_acc = true;
        if (i >= rows.size())
            break;
    }
    return acc;
}

} // namespace coruscant
