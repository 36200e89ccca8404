/**
 * @file
 * CoruscantUnit construction, charged primitives, and bulk-bitwise ops.
 */

#include "core/coruscant_unit.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "util/logging.hpp"

namespace coruscant {

namespace {

/**
 * The words of a list of operand rows, in order, for the word-span
 * forms, held inline; each row's width is checked once, here.  No TR
 * window holds more rows than a wire has domains.
 */
class RowWords
{
  public:
    RowWords(const std::vector<BitVector> &rows, std::size_t width)
        : n(rows.size())
    {
        fatalIf(n > capacity, "a TR window holds at most ", capacity,
                " rows, got ", n);
        for (std::size_t i = 0; i < n; ++i) {
            fatalIf(rows[i].size() != width, "operand row width mismatch");
            words[i] = rows[i].words();
        }
    }

    std::span<const WordSpan> span() const { return {words, n}; }

  private:
    static constexpr std::size_t capacity = DeviceParams::domainsPerWire;

    // In a union, so a call does not zero the slots it leaves unused;
    // assigning a slot begins its lifetime (spans copy trivially).
    union
    {
        WordSpan words[capacity];
    };
    std::size_t n;
};

} // namespace

CoruscantUnit::CoruscantUnit(const DeviceParams &params,
                             double fault_probability, std::uint64_t seed)
    : dev(params),
      trPjPerWire(dev.trEnergyPj(dev.trd) + dev.pimLogicEnergyPj),
      dbc(params),
      windowPlanes(params.wiresPerDbc, {}, std::bit_width(params.trd)),
      faults(fault_probability, seed)
{
    dev.validate();
    DeviceParams::checkPimTrd(dev.trd);
}

BitVector
CoruscantUnit::peekRow(std::size_t row) const
{
    return dbc.peekRow(row);
}

std::size_t
CoruscantUnit::resolveActive(std::size_t active_wires) const
{
    if (active_wires == 0)
        return dev.wiresPerDbc;
    fatalIf(active_wires > dev.wiresPerDbc, "active wires ", active_wires,
            " exceed DBC width ", dev.wiresPerDbc);
    return active_wires;
}

BitVector
CoruscantUnit::laneStarts(std::size_t block, std::size_t wires) const
{
    BitVector starts(dev.wiresPerDbc);
    // Word by word: the lane starts below wires in [64 j, 64 j + 64).
    starts.setWords([block, wires, next = std::size_t{0}](
                        std::size_t j) mutable {
        const std::size_t end = std::min(64 * j + 64, wires);
        std::uint64_t word = 0;
        for (; next < end; next += block)
            word |= std::uint64_t{1} << (next - 64 * j);
        return word;
    });
    return starts;
}

// ---------------------------------------------------------------------
// Charged device primitives
// ---------------------------------------------------------------------

void
CoruscantUnit::chargeTrAll(std::size_t active_wires)
{
    double pj = static_cast<double>(active_wires) * trPjPerWire;
    costs.charge(Cost::Tr, dev.trCycles, pj);
    noteCost(obs::Counter::TrPulses, 1, pj);
}

void
CoruscantUnit::chargeRowWrite(std::size_t active_wires)
{
    double pj = static_cast<double>(active_wires) * dev.writeEnergyPj;
    costs.charge(Cost::Write, dev.writeCycles, pj);
    noteCost(obs::Counter::Writes, 1, pj);
}

void
CoruscantUnit::chargeRowRead(std::size_t active_wires)
{
    double pj = static_cast<double>(active_wires) * dev.readEnergyPj;
    costs.charge(Cost::Read, dev.readCycles, pj);
    noteCost(obs::Counter::Reads, 1, pj);
}

void
CoruscantUnit::chargeShifts(std::size_t steps, std::size_t active_wires)
{
    if (steps == 0)
        return;
    double pj = static_cast<double>(steps)
                * static_cast<double>(active_wires) * dev.shiftEnergyPj;
    costs.charge(Cost::Shift, steps * dev.shiftCycles, pj);
    noteCost(obs::Counter::Shifts, steps, pj);
}

void
CoruscantUnit::chargeTwRow(std::size_t active_wires)
{
    double pj = static_cast<double>(active_wires) * dev.twEnergyPj;
    costs.charge(Cost::Tw, dev.twCycles, pj);
    noteCost(obs::Counter::TwPulses, 1, pj);
}

void
CoruscantUnit::chargeStaging(std::size_t rows, std::size_t active_wires,
                             bool use_tw)
{
    // Per row, the charges chargeTwRow(), or chargeRowWrite() then
    // chargeShifts(1, ...), make, with the same cycles and energy
    // bits.  All ledger charges come first and then all counter notes,
    // each in row order: a counter's energy store could alias a ledger
    // total, so a note between two charges would send every total
    // back through memory.
    const double act = static_cast<double>(active_wires);
    const double tw_pj = act * dev.twEnergyPj;
    const double write_pj = act * dev.writeEnergyPj;
    const double shift_pj = act * dev.shiftEnergyPj;
    for (std::size_t i = 0; i < rows; ++i) {
        if (use_tw) {
            costs.charge(Cost::Tw, dev.twCycles, tw_pj);
        } else {
            costs.charge(Cost::Write, dev.writeCycles, write_pj);
            costs.charge(Cost::Shift, dev.shiftCycles, shift_pj);
        }
    }
    if (!metrics)
        return;
    for (std::size_t i = 0; i < rows; ++i) {
        if (use_tw) {
            noteCost(obs::Counter::TwPulses, 1, tw_pj);
        } else {
            noteCost(obs::Counter::Writes, 1, write_pj);
            noteCost(obs::Counter::Shifts, 1, shift_pj);
        }
    }
}

// ---------------------------------------------------------------------
// Window staging
// ---------------------------------------------------------------------

std::size_t
CoruscantUnit::stageWindow(std::span<const WordSpan> interior_rows,
                           bool pad_ones, std::size_t interior_offset)
{
    // Functional placement of operand rows into the TR window.  The
    // cycle/energy cost of staging is charged by the calling operation
    // (it depends on the choreography); padding rows are the preset
    // constants of paper Fig. 7 and cost nothing to "write"; only the
    // slots no operand row takes are padded.  The pads are rewritten
    // on every call: faults and other operations change window rows.
    // Operands past the window (a reduction wider than TRD) are
    // staged too.
    return dbc.stageWindow(
        std::max(dev.trd, interior_offset + interior_rows.size()),
        interior_offset, interior_rows, pad_ones);
}

std::size_t
CoruscantUnit::stageWindow(const std::vector<BitVector> &interior_rows,
                           bool pad_ones, std::size_t interior_offset)
{
    return stageWindow(RowWords(interior_rows, dev.wiresPerDbc).span(),
                       pad_ones, interior_offset);
}

// ---------------------------------------------------------------------
// Bulk-bitwise operations
// ---------------------------------------------------------------------

BitVector
CoruscantUnit::bulkBitwise(BulkOp op, std::span<const WordSpan> operands,
                           std::size_t active_wires, bool write_back,
                           bool use_tw)
{
    BitVector result(dev.wiresPerDbc);
    bulkBitwise(op, operands, result, active_wires, write_back, use_tw);
    return result;
}

void
CoruscantUnit::bulkBitwise(BulkOp op, std::span<const WordSpan> operands,
                           BitVector &result, std::size_t active_wires,
                           bool write_back, bool use_tw)
{
    OpSpan span(*this, "bulk_bitwise");
    std::size_t act = resolveActive(active_wires);
    std::size_t m = operands.size();
    fatalIf(m == 0, "bulk op needs at least one operand");
    fatalIf(m > dev.trd, "bulk op limited to TRD = ", dev.trd,
            " operands, got ", m);
    fatalIf(op == BulkOp::Not && m != 1, "NOT takes exactly one operand");
    fatalIf(op == BulkOp::Maj && m != dev.trd,
            "MAJ is the full-window majority; use nmrVote for voting");
    fatalIf(result.size() != dev.wiresPerDbc, "result row width ",
            result.size(), " != DBC width ", dev.wiresPerDbc);

    // Padding identity: '1' rows for AND/NAND, '0' rows otherwise
    // (paper Fig. 7(a)/(b)).
    bool pad_ones = (op == BulkOp::And || op == BulkOp::Nand);
    stageWindow(operands, pad_ones, 0);

    // Staging cost: each operand is written at an access port and
    // shifted into place; padding rows are preset.  With transverse
    // writes the segment shift is fused with the write, halving the
    // staging cycles (paper Sec. IV-B).
    chargeStaging(m, act, use_tw);

    // One transverse read evaluates every wire; the PIM block (or the
    // orange direct path, for OR) selects the output.  The effective
    // window for AND is the operand count plus the '1' padding, i.e.
    // all TRD domains must read '1'.
    dbc.transverseReadPlanes(windowPlanes, &faults);
    bulkOpRow(op, windowPlanes, dev.trd, result);
    chargeTrAll(act);

    if (write_back) {
        dbc.writeRowAtPort(Port::Left, result);
        chargeRowWrite(act);
    }
}

BitVector
CoruscantUnit::bulkBitwise(BulkOp op, const std::vector<BitVector> &operands,
                           std::size_t active_wires, bool write_back,
                           bool use_tw)
{
    return bulkBitwise(op, RowWords(operands, dev.wiresPerDbc).span(),
                       active_wires, write_back, use_tw);
}

} // namespace coruscant
