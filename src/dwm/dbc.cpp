#include "dwm/dbc.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace coruscant {

DomainBlockCluster::DomainBlockCluster(const DeviceParams &params)
    : dev(params),
      physRows(params.totalDomains(), BitVector(params.wiresPerDbc))
{
    dev.validate();
}

void
DomainBlockCluster::shiftLeft()
{
    panicIf(!canShiftLeft(), "shift would push data off the left end");
    note(obs::Counter::Shifts);
    ++offset;
    perturbShift(true);
}

void
DomainBlockCluster::shiftRight()
{
    panicIf(!canShiftRight(), "shift would push data off the right end");
    note(obs::Counter::Shifts);
    --offset;
    perturbShift(false);
}

void
DomainBlockCluster::perturbShift(bool toward_left)
{
    ShiftOutcome outcome =
        shiftFaults ? shiftFaults->sample() : ShiftOutcome::Normal;
    if (outcome != ShiftOutcome::Normal)
        note(obs::Counter::FaultsInjected);
    // The bookkeeping (offset) always advances by one; what the pulse
    // physically did depends on the outcome.
    if (outcome != ShiftOutcome::UnderShift)
        injectShiftFault(toward_left);
    if (outcome == ShiftOutcome::OverShift)
        injectShiftFault(toward_left);
}

bool
DomainBlockCluster::canShiftLeft() const
{
    return offset < static_cast<int>(dev.leftOverhead());
}

bool
DomainBlockCluster::canShiftRight() const
{
    return offset > -static_cast<int>(dev.rightOverhead());
}

std::size_t
DomainBlockCluster::portPhysical(Port port) const
{
    std::size_t base = dev.leftOverhead();
    return port == Port::Left ? base + dev.leftPortRow()
                              : base + dev.rightPortRow();
}

std::size_t
DomainBlockCluster::physicalIndex(std::size_t row) const
{
    panicIf(row >= dev.domainsPerWire, "row out of range");
    return dev.leftOverhead() + row - offset;
}

std::size_t
DomainBlockCluster::rowAtPort(Port port) const
{
    std::size_t base_row =
        port == Port::Left ? dev.leftPortRow() : dev.rightPortRow();
    return base_row + offset;
}

bool
DomainBlockCluster::canAlign(std::size_t row, Port port) const
{
    if (row >= dev.domainsPerWire)
        return false;
    std::size_t base_row =
        port == Port::Left ? dev.leftPortRow() : dev.rightPortRow();
    int needed = static_cast<int>(row) - static_cast<int>(base_row);
    return needed >= -static_cast<int>(dev.rightOverhead()) &&
           needed <= static_cast<int>(dev.leftOverhead());
}

std::size_t
DomainBlockCluster::alignRowToPort(std::size_t row, Port port)
{
    fatalIf(!canAlign(row, port), "row ", row,
            " cannot be aligned with the requested port");
    std::size_t base_row =
        port == Port::Left ? dev.leftPortRow() : dev.rightPortRow();
    int needed = static_cast<int>(row) - static_cast<int>(base_row);
    std::size_t shifts = 0;
    while (offset < needed) {
        shiftLeft();
        ++shifts;
    }
    while (offset > needed) {
        shiftRight();
        ++shifts;
    }
    return shifts;
}

std::size_t
DomainBlockCluster::alignWindowStart(std::size_t row)
{
    fatalIf(row + dev.trd > dev.domainsPerWire,
            "window [", row, ", ", row + dev.trd, ") exceeds data rows");
    return alignRowToPort(row, Port::Left);
}

BitVector
DomainBlockCluster::readRowAtPort(Port port) const
{
    note(obs::Counter::Reads);
    return physRows[portPhysical(port)];
}

void
DomainBlockCluster::writeRowAtPort(Port port, const BitVector &row)
{
    fatalIf(row.size() != dev.wiresPerDbc,
            "row width ", row.size(), " != DBC width ", dev.wiresPerDbc);
    note(obs::Counter::Writes);
    physRows[portPhysical(port)] = row;
}

std::size_t
DomainBlockCluster::transverseReadWire(std::size_t wire,
                                       TrFaultModel *faults) const
{
    note(obs::Counter::TrPulses);
    std::size_t lo = portPhysical(Port::Left);
    std::size_t hi = portPhysical(Port::Right);
    std::size_t count = 0;
    for (std::size_t i = lo; i <= hi; ++i)
        count += physRows[i].get(wire) ? 1 : 0;
    if (faults) {
        std::size_t observed = faults->perturb(count, dev.trd);
        if (observed != count)
            note(obs::Counter::FaultsInjected);
        return observed;
    }
    return count;
}

CountPlanes
DomainBlockCluster::countRows(std::size_t lo, std::size_t hi) const
{
    return CountPlanes(dev.wiresPerDbc,
                       std::span(physRows).subspan(lo, hi - lo));
}

CountPlanes
DomainBlockCluster::transverseReadPlanes(TrFaultModel *faults) const
{
    note(obs::Counter::TrPulses);
    CountPlanes counts =
        countRows(portPhysical(Port::Left), portPhysical(Port::Right) + 1);
    if (faults && faults->active()) {
        for (std::size_t w = 0; w < dev.wiresPerDbc; ++w) {
            std::size_t c = counts.count(w);
            std::size_t observed = faults->perturb(c, dev.trd);
            if (observed != c) {
                note(obs::Counter::FaultsInjected);
                counts.setCount(w, observed);
            }
        }
    }
    return counts;
}

std::vector<std::uint8_t>
DomainBlockCluster::transverseReadAll(TrFaultModel *faults) const
{
    return transverseReadPlanes(faults).counts<std::uint8_t>();
}

std::pair<std::size_t, std::size_t>
DomainBlockCluster::outsideRange(Port side) const
{
    if (side == Port::Left)
        return {0, portPhysical(Port::Left)};
    return {portPhysical(Port::Right) + 1, physRows.size()};
}

std::vector<std::uint16_t>
DomainBlockCluster::transverseReadOutsideAll(Port side) const
{
    note(obs::Counter::TrPulses);
    auto [lo, hi] = outsideRange(side);
    return countRows(lo, hi).counts<std::uint16_t>();
}

std::size_t
DomainBlockCluster::transverseReadOutsideWire(std::size_t wire,
                                              Port side) const
{
    note(obs::Counter::TrPulses);
    auto [lo, hi] = outsideRange(side);
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi; ++i)
        count += physRows[i].get(wire) ? 1 : 0;
    return count;
}

void
DomainBlockCluster::transverseWriteRow(const BitVector &row)
{
    fatalIf(row.size() != dev.wiresPerDbc,
            "row width ", row.size(), " != DBC width ", dev.wiresPerDbc);
    note(obs::Counter::TwPulses);
    std::size_t lo = portPhysical(Port::Left);
    std::size_t hi = portPhysical(Port::Right);
    for (std::size_t i = hi; i > lo; --i)
        physRows[i] = physRows[i - 1];
    physRows[lo] = row;
}

void
DomainBlockCluster::transverseWriteWire(std::size_t wire, bool value)
{
    note(obs::Counter::TwPulses);
    std::size_t lo = portPhysical(Port::Left);
    std::size_t hi = portPhysical(Port::Right);
    for (std::size_t i = hi; i > lo; --i)
        physRows[i].set(wire, physRows[i - 1].get(wire));
    physRows[lo].set(wire, value);
}

void
DomainBlockCluster::injectShiftFault(bool toward_left)
{
    if (toward_left) {
        std::rotate(physRows.begin(), physRows.begin() + 1,
                    physRows.end());
        physRows.back().fill(false);
    } else {
        std::rotate(physRows.begin(), physRows.end() - 1,
                    physRows.end());
        physRows.front().fill(false);
    }
    // Deliberately no offset update: the controller's bookkeeping is
    // now wrong, which is exactly what a shifting fault means.
}

BitVector
DomainBlockCluster::peekRow(std::size_t row) const
{
    return physRows[physicalIndex(row)];
}

void
DomainBlockCluster::pokeRow(std::size_t row, const BitVector &value)
{
    fatalIf(value.size() != dev.wiresPerDbc,
            "row width ", value.size(), " != DBC width ", dev.wiresPerDbc);
    physRows[physicalIndex(row)] = value;
}

bool
DomainBlockCluster::peekBit(std::size_t row, std::size_t wire) const
{
    return physRows[physicalIndex(row)].get(wire);
}

void
DomainBlockCluster::pokeBit(std::size_t row, std::size_t wire, bool value)
{
    physRows[physicalIndex(row)].set(wire, value);
}

} // namespace coruscant
