/**
 * @file
 * CoruscantUnit max function, ReLU, and N-modular-redundancy voting.
 *
 * Max (paper Sec. IV-B, Fig. 8): candidate words are rows between the
 * access ports.  For each bit position, MSB to LSB, a TR counts how
 * many candidates carry a '1'; if any does, every candidate is rotated
 * through the right port, lanes whose bit is '0' are eliminated by a
 * predicated row-buffer reset, and the (possibly zeroed) word re-enters
 * through the left port with a transverse write, whose segmented shift
 * returns each word to its original slot.  Without TW each rotation
 * needs a full-DBC shift plus a separate write (the paper's 28.5%
 * cycle-saving ablation).
 *
 * NMR voting (Sec. III-F, Fig. 7(c)/(d)): N in {3,5,7} replica rows are
 * placed between the heads with (7-N)/2 preset '1' rows and as many
 * '0' rows; the C' (>= 4-of-7) output is then exactly the majority.
 */

#include <algorithm>

#include "core/coruscant_unit.hpp"
#include "util/logging.hpp"

namespace coruscant {

namespace {

/** @p row with every wire from @p n up cleared. */
BitVector
firstWires(const BitVector &row, std::size_t n)
{
    BitVector out(row.size());
    out.insert(0, row.slice(0, n));
    return out;
}

/**
 * @p starts with every set wire spread over the @p width wires from it
 * upward: lane-start bits become whole-lane masks.
 */
BitVector
spreadOverLanes(BitVector starts, std::size_t width)
{
    // Each pass doubles the covered run without passing @p width.
    for (std::size_t filled = 1; filled < width;) {
        std::size_t step = std::min(filled, width - filled);
        starts |= starts.shiftedLeft(step);
        filled += step;
    }
    return starts;
}

} // namespace

BitVector
CoruscantUnit::maxOfRows(const std::vector<BitVector> &candidates,
                         std::size_t word_bits, std::size_t active_wires,
                         bool use_tw)
{
    OpSpan span(*this, "max_of_rows");
    std::size_t act = resolveActive(active_wires);
    std::size_t m = candidates.size();
    fatalIf(m == 0, "max needs at least one candidate");
    fatalIf(m > dev.trd, "max compares at most TRD = ", dev.trd,
            " candidates, got ", m);
    fatalIf(word_bits == 0, "word size must be positive");
    fatalIf(act % word_bits != 0,
            "active wires must be a whole number of word lanes");
    const std::size_t lanes = act / word_bits;

    stageWindow(candidates, false, 0);
    chargeStaging(m, act, false);

    const BitVector lane_start = laneStarts(word_bits, act);
    for (std::size_t bit = word_bits; bit-- > 0;) {
        // One lane-strided TR across the candidates' bits at this
        // position: which lanes have some candidate with a '1'.
        BitVector probe = lane_start.shiftedLeft(bit);
        BitVector any_one =
            dbc.transverseReadWires(probe, 1, &faults).atLeast(1) & probe;
        chargeTrAll(lanes);

        // Rotate all TRD window rows through the ports, eliminating
        // lanes that have a '0' where some candidate has a '1'.
        for (std::size_t rot = 0; rot < dev.trd; ++rot) {
            BitVector row = dbc.readRowAtPort(Port::Right);
            chargeRowRead(act);
            // Predicated row-buffer reset of the eliminated lanes.
            row &= ~spreadOverLanes((any_one & ~row).shiftedRight(bit),
                                    word_bits);
            dbc.transverseWriteRow(row);
            if (use_tw) {
                chargeTwRow(act);
            } else {
                // Full-wire shift plus an ordinary port write.
                chargeShifts(1, act);
                chargeRowWrite(act);
            }
        }
    }

    // Survivors all equal the maximum (or everything is zero); a final
    // TR reads the max out as the per-wire OR, regardless of which
    // slot holds it.
    dbc.transverseReadPlanes(windowPlanes, &faults);
    BitVector result = firstWires(windowPlanes.atLeast(1), act);
    chargeTrAll(act);
    chargeRowRead(act);
    return result;
}

BitVector
CoruscantUnit::relu(const BitVector &row, std::size_t block_size,
                    std::size_t active_wires)
{
    OpSpan span(*this, "relu");
    std::size_t act = resolveActive(active_wires);
    fatalIf(block_size == 0, "block size must be positive");
    fatalIf(act % block_size != 0,
            "active wires must be a whole number of lanes");
    fatalIf(row.size() != dev.wiresPerDbc, "row width mismatch");
    const std::size_t lanes = act / block_size;

    // Sign test on the MSB wires, then a predicated row refresh
    // (paper Sec. IV-C): 2 cycles.
    const std::size_t msb = block_size - 1;
    BitVector negative = row & laneStarts(block_size, act).shiftedLeft(msb);
    BitVector result =
        row & ~spreadOverLanes(negative.shiftedRight(msb), block_size);
    chargeTrAll(lanes);
    chargeRowWrite(act);
    std::size_t ws = dbc.rowAtPort(Port::Left);
    dbc.pokeRow(ws, result);
    return result;
}

BitVector
CoruscantUnit::nmrVote(const std::vector<BitVector> &replicas,
                       std::size_t active_wires)
{
    OpSpan span(*this, "nmr_vote");
    std::size_t act = resolveActive(active_wires);
    std::size_t n = replicas.size();
    DeviceParams::checkVote(n, dev.trd);

    // TRD = 7 (paper Fig. 7): (7-N)/2 preset '1' rows and as many '0'
    // rows make the C' (>= 4 of 7) output the exact majority.  Smaller
    // windows: zero padding and the thermometer level at the majority.
    const bool fig7 = dev.trd == 7;
    const std::size_t ones_pad = fig7 ? (7 - n) / 2 : 0;
    const std::size_t threshold = fig7 ? 4 : (n + 1) / 2;
    std::size_t ws = stageWindow(replicas, false, 0);
    for (std::size_t i = 0; i < ones_pad; ++i)
        dbc.fillRow(ws + n + i, true);
    // Replicas are outputs of prior PIM steps already resident in the
    // DBC; cost is one alignment shift, the TR, and the result write.
    chargeShifts(1, act);
    dbc.transverseReadPlanes(windowPlanes, &faults);
    BitVector result = firstWires(windowPlanes.atLeast(threshold), act);
    chargeTrAll(act);
    dbc.writeRowAtPort(Port::Left, result);
    chargeRowWrite(act);
    return result;
}

} // namespace coruscant
