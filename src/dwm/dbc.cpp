#include "dwm/dbc.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "util/logging.hpp"

namespace coruscant {

DomainBlockCluster::DomainBlockCluster(const DeviceParams &params)
    : dev(params),
      ring(params.totalDomains(), BitVector(params.wiresPerDbc))
{
    dev.validate();
    leftOver = dev.leftOverhead();
    rightOver = dev.rightOverhead();
    leftPort = dev.leftPortRow();
    rightPort = dev.rightPortRow();
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
    return offset < static_cast<int>(leftOver);
}

bool
DomainBlockCluster::canShiftRight() const
{
    return offset > -static_cast<int>(rightOver);
}

std::size_t
DomainBlockCluster::physicalIndex(std::size_t row) const
{
    panicIf(row >= dev.domainsPerWire, "row out of range");
    return leftOver + row - offset;
}

std::size_t
DomainBlockCluster::alignRowToPort(std::size_t row, Port port)
{
    fatalIf(!canAlign(row, port), "row ", row,
            " cannot be aligned with the requested port");
    int needed =
        static_cast<int>(row) - static_cast<int>(basePortRow(port));
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

BitVector
DomainBlockCluster::readRowAtPort(Port port) const
{
    note(obs::Counter::Reads);
    return physRow(portPhysical(port));
}

void
DomainBlockCluster::writeRowAtPort(Port port, const BitVector &row)
{
    fatalIf(row.size() != dev.wiresPerDbc,
            "row width ", row.size(), " != DBC width ", dev.wiresPerDbc);
    note(obs::Counter::Writes);
    physRow(portPhysical(port)) = row;
}

std::size_t
DomainBlockCluster::sense(std::size_t c, TrFaultModel &faults) const
{
    std::size_t observed = faults.perturb(c, dev.trd);
    if (observed != c)
        note(obs::Counter::FaultsInjected);
    return observed;
}

std::size_t
DomainBlockCluster::rangeCount(std::size_t wire, std::size_t lo,
                               std::size_t hi) const
{
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi; ++i)
        count += physRow(i).get(wire) ? 1 : 0;
    return count;
}

std::size_t
DomainBlockCluster::transverseReadWire(std::size_t wire,
                                       TrFaultModel *faults) const
{
    note(obs::Counter::TrPulses);
    std::size_t count = rangeCount(wire, portPhysical(Port::Left),
                                   portPhysical(Port::Right) + 1);
    return faults ? sense(count, *faults) : count;
}

void
DomainBlockCluster::windowCounts(CountPlanes &counts) const
{
    static_assert(std::bit_width(DeviceParams::domainsPerWire) <=
                      CountPlanes::maxPlanes,
                  "a whole-wire window fits the count planes");
    // The window's rows, gathered through physRow(): a window that
    // straddles the ring's wrap sits at both ends of `ring`.
    const std::size_t lo = portPhysical(Port::Left);
    const std::size_t n = portPhysical(Port::Right) + 1 - lo;
    std::array<const BitVector *, DeviceParams::domainsPerWire> rows;
    for (std::size_t i = 0; i < n; ++i)
        rows[i] = &physRow(lo + i);
    counts.recount(std::span(rows.data(), n));
}

void
DomainBlockCluster::senseWires(CountPlanes &counts, const BitVector &wires,
                               std::size_t samples,
                               TrFaultModel &faults) const
{
    // Counts never exceed the window, so every sample fits the planes.
    const std::size_t planes = counts.planes();
    for (std::size_t j = 0; j < wires.numWords(); ++j) {
        for (std::uint64_t m = wires.word(j); m != 0; m &= m - 1) {
            const std::size_t w = j * 64 + std::countr_zero(m);
            const std::size_t c = counts.count(w);
            // Per-plane tally of the samples' bits.
            std::size_t ones[CountPlanes::maxPlanes] = {};
            for (std::size_t r = 0; r < samples; ++r) {
                const std::size_t observed = sense(c, faults);
                for (std::size_t k = 0; k < planes; ++k)
                    ones[k] += (observed >> k) & 1;
            }
            std::size_t voted = 0;
            for (std::size_t k = 0; k < planes; ++k)
                voted |= std::size_t{2 * ones[k] > samples} << k;
            if (voted != c)
                counts.setCount(w, voted);
        }
    }
}

CountPlanes
DomainBlockCluster::transverseReadPlanes(TrFaultModel *faults) const
{
    CountPlanes counts(dev.wiresPerDbc, {});
    transverseReadPlanes(counts, faults);
    return counts;
}

void
DomainBlockCluster::transverseReadPlanes(CountPlanes &counts,
                                         TrFaultModel *faults) const
{
    note(obs::Counter::TrPulses);
    windowCounts(counts);
    if (faults && faults->active())
        senseWires(counts, BitVector(dev.wiresPerDbc, true), 1, *faults);
}

CountPlanes
DomainBlockCluster::transverseReadWires(const BitVector &wires,
                                        std::size_t samples,
                                        TrFaultModel *faults) const
{
    panicIf(wires.size() != dev.wiresPerDbc, "sensed wire mask width ",
            wires.size(), " != DBC width ", dev.wiresPerDbc);
    panicIf(samples % 2 == 0, "a per-bit vote needs an odd number of ",
            "samples, got ", samples);
    // Counting the sensed wires is a pass over the mask: only when
    // a counter set is attached.
    if (metrics)
        metrics->add(obs::Counter::TrPulses, wires.popcount() * samples);
    CountPlanes counts(dev.wiresPerDbc, {});
    windowCounts(counts);
    if (faults && faults->active())
        senseWires(counts, wires, samples, *faults);
    return counts;
}

void
DomainBlockCluster::carryChain(BitVector lane_starts, std::size_t block,
                               std::size_t samples, TrFaultModel *faults,
                               bool has_super)
{
    panicIf(lane_starts.size() != dev.wiresPerDbc, "sensed wire mask width ",
            lane_starts.size(), " != DBC width ", dev.wiresPerDbc);
    panicIf(samples % 2 == 0, "a per-bit vote needs an odd number of ",
            "samples, got ", samples);
    const std::size_t lo = portPhysical(Port::Left);
    const std::size_t hi = portPhysical(Port::Right);
    BitVector &s = physRow(lo);
    BitVector &c = physRow(hi);
    // The interior rows, gathered through physRow() as in
    // windowCounts(), counted once in planes that hold the whole
    // window's count.
    std::array<const BitVector *, DeviceParams::domainsPerWire> rows;
    const std::size_t n = hi - lo - 1;
    for (std::size_t i = 0; i < n; ++i)
        rows[i] = &physRow(lo + 1 + i);
    const CountPlanes interior(dev.wiresPerDbc, std::span(rows.data(), n),
                               std::bit_width(hi + 1 - lo));
    const std::array<const BitVector *, 2> ports = {&s, &c};
    const bool sensed = faults && faults->active();
    // Step k's sensed wires: the lane starts, shifted in place.
    BitVector &wires = lane_starts;
    for (std::size_t k = 0; k < block; ++k) {
        // Counting the sensed wires is a pass over the mask: only when
        // a counter set is attached.
        if (metrics)
            metrics->add(obs::Counter::TrPulses, wires.popcount() * samples);
        CountPlanes counts(interior, ports);
        if (sensed)
            senseWires(counts, wires, samples, *faults);
        // The plane spans are captured by value: a word stored into s
        // or c may alias the counter, so a span read through it would
        // be reloaded at every word.  A plane past the top one reads
        // as zero.  Every row, the planes included, has the DBC's word
        // count.
        const std::span<const std::uint64_t> p0 = counts.planeWords(0);
        const std::span<const std::uint64_t> p1 = counts.planeWords(1);
        const std::span<const std::uint64_t> p2 = counts.planeWords(2);
        const bool write_cp = has_super && k + 2 < block;
        // S on the sensed wires, then C' two wires up (over S where
        // they meet).  The bits a shift moves into the next word wait
        // in registers.
        s.setWords([&s, &wires, p0, p2, write_cp, m_prev = std::uint64_t{0},
                    cp_prev = std::uint64_t{0}](std::size_t j) mutable {
            const std::uint64_t m = wires.word(j);
            const std::uint64_t cp = j < p2.size() ? p2[j] : 0;
            const std::uint64_t m2 =
                write_cp ? (m << 2) | (m_prev >> 62) : 0;
            const std::uint64_t bits = (p0[j] & m & ~m2) |
                                       (((cp << 2) | (cp_prev >> 62)) & m2);
            m_prev = m;
            cp_prev = cp;
            return (s.word(j) & ~(m | m2)) | bits;
        });
        if (k + 1 < block) {
            // C one wire up.
            c.setWords([&c, &wires, p1, m_prev = std::uint64_t{0},
                        c_prev = std::uint64_t{0}](std::size_t j) mutable {
                const std::uint64_t m = wires.word(j);
                const std::uint64_t cb = j < p1.size() ? p1[j] : 0;
                const std::uint64_t m1 = (m << 1) | (m_prev >> 63);
                const std::uint64_t bits = ((cb << 1) | (c_prev >> 63)) & m1;
                m_prev = m;
                c_prev = cb;
                return (c.word(j) & ~m1) | bits;
            });
        }
        // The lane mask moves to the next bit position, in place.
        wires.setWords([&wires, carry = std::uint64_t{0}](
                           std::size_t j) mutable {
            const std::uint64_t w = wires.word(j);
            const std::uint64_t out = (w << 1) | carry;
            carry = w >> 63;
            return out;
        });
    }
}

std::vector<std::uint8_t>
DomainBlockCluster::transverseReadAll(TrFaultModel *faults) const
{
    return transverseReadPlanes(faults).counts();
}

std::pair<std::size_t, std::size_t>
DomainBlockCluster::outsideRange(Port side) const
{
    if (side == Port::Left)
        return {0, portPhysical(Port::Left)};
    return {portPhysical(Port::Right) + 1, ring.size()};
}

std::size_t
DomainBlockCluster::transverseReadOutsideWire(std::size_t wire,
                                              Port side) const
{
    note(obs::Counter::TrPulses);
    auto [lo, hi] = outsideRange(side);
    return rangeCount(wire, lo, hi);
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
        physRow(i) = physRow(i - 1);
    physRow(lo) = row;
}

void
DomainBlockCluster::injectShiftFault(bool toward_left)
{
    // Every domain moves one position; the ring turns instead, and
    // the slot that wraps around becomes the blank domain entering at
    // the far extremity.
    const std::size_t last = ring.size() - 1;
    if (toward_left) {
        head = head == last ? 0 : head + 1;
        physRow(last).fill(false);
    } else {
        head = head == 0 ? last : head - 1;
        physRow(0).fill(false);
    }
    // Deliberately no offset update: the controller's bookkeeping is
    // now wrong, which is exactly what a shifting fault means.
}

BitVector
DomainBlockCluster::peekRow(std::size_t row) const
{
    return physRow(physicalIndex(row));
}

void
DomainBlockCluster::pokeRow(std::size_t row, const BitVector &value)
{
    fatalIf(value.size() != dev.wiresPerDbc,
            "row width ", value.size(), " != DBC width ", dev.wiresPerDbc);
    // Same width: a word copy in place.
    physRow(physicalIndex(row)).assignWords(value.words());
}

void
DomainBlockCluster::fillRow(std::size_t row, bool value)
{
    const std::uint64_t word = value ? ~0ULL : 0ULL;
    physRow(physicalIndex(row)).setWords([word](std::size_t) { return word; });
}

std::size_t
DomainBlockCluster::stageWindow(std::size_t count, std::size_t offset,
                                std::span<const WordSpan> operands,
                                bool pad)
{
    const std::size_t first = rowAtPort(Port::Left);
    panicIf(first + count > dev.domainsPerWire ||
                offset + operands.size() > count,
            "staged rows extend past the data rows");
    const std::uint64_t pad_word = pad ? ~0ULL : 0ULL;
    // Ring slots from the window start on, wrapping at the end.
    const std::size_t slots = ring.size();
    std::size_t slot = head + portPhysical(Port::Left);
    if (slot >= slots)
        slot -= slots;
    for (std::size_t r = 0; r < count; ++r) {
        BitVector &row = ring[slot];
        slot = slot + 1 == slots ? 0 : slot + 1;
        // Wraps to a huge index for the rows before the operands.
        const std::size_t i = r - offset;
        if (i < operands.size())
            row.assignWords(operands[i]);
        else
            row.setWords([pad_word](std::size_t) { return pad_word; });
    }
    return first;
}

bool
DomainBlockCluster::peekBit(std::size_t row, std::size_t wire) const
{
    return physRow(physicalIndex(row)).get(wire);
}

void
DomainBlockCluster::pokeBit(std::size_t row, std::size_t wire, bool value)
{
    physRow(physicalIndex(row)).set(wire, value);
}

} // namespace coruscant
