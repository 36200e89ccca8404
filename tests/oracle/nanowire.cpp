#include "oracle/nanowire.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace coruscant {

Nanowire::Nanowire(const DeviceParams &params)
    : dev(params), domains(params.totalDomains(), 0)
{
    dev.validate();
}

void
Nanowire::shiftLeft()
{
    panicIf(!canShiftLeft(), "shift would push data off the left end");
    note(obs::Counter::Shifts);
    ++offset;
    perturbShift(true);
}

void
Nanowire::shiftRight()
{
    panicIf(!canShiftRight(), "shift would push data off the right end");
    note(obs::Counter::Shifts);
    --offset;
    perturbShift(false);
}

void
Nanowire::injectShiftFault(bool toward_left)
{
    if (toward_left) {
        std::rotate(domains.begin(), domains.begin() + 1, domains.end());
        domains.back() = 0;
    } else {
        std::rotate(domains.begin(), domains.end() - 1, domains.end());
        domains.front() = 0;
    }
    // Deliberately no offset update: the controller's bookkeeping is
    // now wrong, which is exactly what a shifting fault means.
}

void
Nanowire::perturbShift(bool toward_left)
{
    ShiftOutcome outcome =
        shiftFaults ? shiftFaults->sample() : ShiftOutcome::Normal;
    // The bookkeeping (offset) always advances by one; what the pulse
    // physically did depends on the outcome.
    if (outcome != ShiftOutcome::UnderShift)
        injectShiftFault(toward_left);
    if (outcome == ShiftOutcome::OverShift)
        injectShiftFault(toward_left);
}

bool
Nanowire::canShiftLeft() const
{
    return offset < static_cast<int>(dev.leftOverhead());
}

bool
Nanowire::canShiftRight() const
{
    return offset > -static_cast<int>(dev.rightOverhead());
}

std::size_t
Nanowire::portPhysical(Port port) const
{
    std::size_t base = dev.leftOverhead();
    return port == Port::Left ? base + dev.leftPortRow()
                              : base + dev.rightPortRow();
}

std::size_t
Nanowire::physicalIndex(std::size_t row) const
{
    panicIf(row >= dev.domainsPerWire, "row out of range");
    return dev.leftOverhead() + row - offset;
}

std::size_t
Nanowire::rowAtPort(Port port) const
{
    std::size_t base_row =
        port == Port::Left ? dev.leftPortRow() : dev.rightPortRow();
    return base_row + offset;
}

bool
Nanowire::canAlign(std::size_t row, Port port) const
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
Nanowire::alignRowToPort(std::size_t row, Port port)
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
Nanowire::alignWindowStart(std::size_t row)
{
    fatalIf(row + dev.trd > dev.domainsPerWire,
            "window [", row, ", ", row + dev.trd, ") exceeds data rows");
    return alignRowToPort(row, Port::Left);
}

bool
Nanowire::readAtPort(Port port) const
{
    note(obs::Counter::Reads);
    return domains[portPhysical(port)] != 0;
}

void
Nanowire::writeAtPort(Port port, bool value)
{
    note(obs::Counter::Writes);
    domains[portPhysical(port)] = value ? 1 : 0;
}

std::size_t
Nanowire::transverseRead(TrFaultModel *faults) const
{
    note(obs::Counter::TrPulses);
    std::size_t lo = portPhysical(Port::Left);
    std::size_t hi = portPhysical(Port::Right);
    std::size_t count = 0;
    for (std::size_t i = lo; i <= hi; ++i)
        count += domains[i];
    if (faults)
        return faults->perturb(count, dev.trd);
    return count;
}

void
Nanowire::transverseWrite(bool value)
{
    note(obs::Counter::TwPulses);
    std::size_t lo = portPhysical(Port::Left);
    std::size_t hi = portPhysical(Port::Right);
    // The domain under the right port is pushed to ground; everything
    // between the heads advances one position toward the right port.
    for (std::size_t i = hi; i > lo; --i)
        domains[i] = domains[i - 1];
    domains[lo] = value ? 1 : 0;
}

std::size_t
Nanowire::transverseReadOutside(Port side, TrFaultModel *faults) const
{
    note(obs::Counter::TrPulses);
    std::size_t count = 0;
    if (side == Port::Left) {
        std::size_t hi = portPhysical(Port::Left);
        for (std::size_t i = 0; i < hi; ++i)
            count += domains[i];
        if (faults)
            return faults->perturb(count, hi);
    } else {
        std::size_t lo = portPhysical(Port::Right);
        for (std::size_t i = lo + 1; i < domains.size(); ++i)
            count += domains[i];
        if (faults)
            return faults->perturb(count, domains.size() - lo - 1);
    }
    return count;
}

bool
Nanowire::peekRow(std::size_t row) const
{
    return domains[physicalIndex(row)] != 0;
}

void
Nanowire::pokeRow(std::size_t row, bool value)
{
    domains[physicalIndex(row)] = value ? 1 : 0;
}

} // namespace coruscant
