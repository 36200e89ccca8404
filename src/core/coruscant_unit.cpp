/**
 * @file
 * CoruscantUnit construction, charged primitives, and bulk-bitwise ops.
 */

#include "core/coruscant_unit.hpp"

#include <array>

#include "util/logging.hpp"

namespace coruscant {

namespace {

/**
 * Pointers to the rows of a vector, in order, for the span forms,
 * held inline.  No TR window holds more rows than a wire has domains.
 */
class RowPointers
{
  public:
    explicit RowPointers(const std::vector<BitVector> &rows)
        : n(rows.size())
    {
        fatalIf(n > ptrs.size(), "a TR window holds at most ", ptrs.size(),
                " rows, got ", n);
        for (std::size_t i = 0; i < n; ++i)
            ptrs[i] = &rows[i];
    }

    std::span<const BitVector *const> span() const { return {ptrs.data(), n}; }

  private:
    std::array<const BitVector *, DeviceParams::domainsPerWire> ptrs;
    std::size_t n;
};

} // namespace

CoruscantUnit::CoruscantUnit(const DeviceParams &params,
                             double fault_probability, std::uint64_t seed)
    : dev(params), dbc(params), faults(fault_probability, seed)
{
    dev.validate();
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
    for (std::size_t w = 0; w < wires; w += block)
        starts.set(w, true);
    return starts;
}

// ---------------------------------------------------------------------
// Charged device primitives
// ---------------------------------------------------------------------

void
CoruscantUnit::chargeTrAll(std::size_t active_wires)
{
    double pj = static_cast<double>(active_wires)
                * (dev.trEnergyPj(dev.trd) + dev.pimLogicEnergyPj);
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

// ---------------------------------------------------------------------
// Window staging
// ---------------------------------------------------------------------

std::size_t
CoruscantUnit::stageWindow(std::span<const BitVector *const> interior_rows,
                           bool pad_ones, std::size_t interior_offset)
{
    // Functional placement of operand rows into the TR window.  The
    // cycle/energy cost of staging is charged by the calling operation
    // (it depends on the choreography); padding rows are the preset
    // constants of paper Fig. 7 and cost nothing to "write"; only the
    // slots no operand row takes are padded.  The pads are rewritten
    // on every call: faults and other operations change window rows.
    std::size_t ws = dbc.rowAtPort(Port::Left);
    panicIf(ws + dev.trd > dev.domainsPerWire,
            "TR window extends past the data rows");
    const std::size_t end = interior_offset + interior_rows.size();
    for (std::size_t r = 0; r < dev.trd; ++r)
        if (r < interior_offset || r >= end)
            dbc.fillRow(ws + r, pad_ones);
    for (std::size_t i = 0; i < interior_rows.size(); ++i) {
        fatalIf(interior_rows[i]->size() != dev.wiresPerDbc,
                "operand row width mismatch");
        dbc.pokeRow(ws + interior_offset + i, *interior_rows[i]);
    }
    return ws;
}

std::size_t
CoruscantUnit::stageWindow(const std::vector<BitVector> &interior_rows,
                           bool pad_ones, std::size_t interior_offset)
{
    return stageWindow(RowPointers(interior_rows).span(), pad_ones,
                       interior_offset);
}

// ---------------------------------------------------------------------
// Bulk-bitwise operations
// ---------------------------------------------------------------------

BitVector
CoruscantUnit::bulkBitwise(BulkOp op,
                           std::span<const BitVector *const> operands,
                           std::size_t active_wires, bool write_back,
                           bool use_tw)
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

    // Padding identity: '1' rows for AND/NAND, '0' rows otherwise
    // (paper Fig. 7(a)/(b)).
    bool pad_ones = (op == BulkOp::And || op == BulkOp::Nand);
    stageWindow(operands, pad_ones, 0);

    // Staging cost: each operand is written at an access port and
    // shifted into place; padding rows are preset.  With transverse
    // writes the segment shift is fused with the write, halving the
    // staging cycles (paper Sec. IV-B).
    for (std::size_t i = 0; i < m; ++i) {
        if (use_tw) {
            chargeTwRow(act);
        } else {
            chargeRowWrite(act);
            chargeShifts(1, act);
        }
    }

    // One transverse read evaluates every wire; the PIM block (or the
    // orange direct path, for OR) selects the output.  The effective
    // window for AND is the operand count plus the '1' padding, i.e.
    // all TRD domains must read '1'.
    BitVector result =
        bulkOpRow(op, dbc.transverseReadPlanes(&faults), dev.trd);
    chargeTrAll(act);

    if (write_back) {
        dbc.writeRowAtPort(Port::Left, result);
        chargeRowWrite(act);
    }
    return result;
}

BitVector
CoruscantUnit::bulkBitwise(BulkOp op, const std::vector<BitVector> &operands,
                           std::size_t active_wires, bool write_back,
                           bool use_tw)
{
    return bulkBitwise(op, RowPointers(operands).span(), active_wires,
                       write_back, use_tw);
}

} // namespace coruscant
