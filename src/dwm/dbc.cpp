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
DomainBlockCluster::portPhysical(Port port) const
{
    return leftOver + basePortRow(port);
}

std::size_t
DomainBlockCluster::physicalIndex(std::size_t row) const
{
    panicIf(row >= dev.domainsPerWire, "row out of range");
    return leftOver + row - offset;
}

std::size_t
DomainBlockCluster::rowAtPort(Port port) const
{
    return basePortRow(port) + offset;
}

bool
DomainBlockCluster::canAlign(std::size_t row, Port port) const
{
    if (row >= dev.domainsPerWire)
        return false;
    int needed =
        static_cast<int>(row) - static_cast<int>(basePortRow(port));
    return needed >= -static_cast<int>(rightOver) &&
           needed <= static_cast<int>(leftOver);
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
DomainBlockCluster::senseVoted(std::size_t c, std::size_t samples,
                               std::size_t planes,
                               TrFaultModel &faults) const
{
    // Per-plane tally of the samples' bits.
    std::size_t ones[64] = {};
    for (std::size_t r = 0; r < samples; ++r) {
        std::size_t observed = sense(c, faults);
        for (std::size_t k = 0; k < planes; ++k)
            ones[k] += (observed >> k) & 1;
    }
    std::size_t voted = 0;
    for (std::size_t k = 0; k < planes; ++k)
        voted |= std::size_t{2 * ones[k] > samples} << k;
    return voted;
}

std::size_t
DomainBlockCluster::windowCount(std::size_t wire) const
{
    std::size_t lo = portPhysical(Port::Left);
    std::size_t hi = portPhysical(Port::Right);
    std::size_t count = 0;
    for (std::size_t i = lo; i <= hi; ++i)
        count += physRow(i).get(wire) ? 1 : 0;
    return count;
}

std::size_t
DomainBlockCluster::transverseReadWire(std::size_t wire,
                                       TrFaultModel *faults) const
{
    note(obs::Counter::TrPulses);
    std::size_t count = windowCount(wire);
    return faults ? sense(count, *faults) : count;
}

CountPlanes
DomainBlockCluster::windowCounts() const
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
    CountPlanes counts(dev.wiresPerDbc, n);
    counts.addRows(std::span(rows.data(), n));
    return counts;
}

CountPlanes
DomainBlockCluster::transverseReadPlanes(TrFaultModel *faults) const
{
    note(obs::Counter::TrPulses);
    CountPlanes counts = windowCounts();
    if (faults && faults->active()) {
        for (std::size_t w = 0; w < dev.wiresPerDbc; ++w) {
            std::size_t c = counts.count(w);
            std::size_t observed = sense(c, *faults);
            if (observed != c)
                counts.setCount(w, observed);
        }
    }
    return counts;
}

void
DomainBlockCluster::checkSensed(const BitVector &wires,
                                std::size_t samples) const
{
    panicIf(wires.size() != dev.wiresPerDbc, "sensed wire mask width ",
            wires.size(), " != DBC width ", dev.wiresPerDbc);
    panicIf(samples % 2 == 0, "a per-bit vote needs an odd number of ",
            "samples, got ", samples);
}

CountPlanes
DomainBlockCluster::transverseReadWires(const BitVector &wires,
                                        std::size_t samples,
                                        TrFaultModel *faults) const
{
    checkSensed(wires, samples);
    note(obs::Counter::TrPulses, wires.popcount() * samples);
    CountPlanes counts = windowCounts();
    if (!faults || !faults->active())
        return counts;
    // Counts never exceed the window, so every sample fits the planes.
    for (std::size_t j = 0; j < wires.numWords(); ++j) {
        for (std::uint64_t m = wires.word(j); m != 0; m &= m - 1) {
            std::size_t w = j * 64 + std::countr_zero(m);
            std::size_t c = counts.count(w);
            std::size_t voted =
                senseVoted(c, samples, counts.planes(), *faults);
            if (voted != c)
                counts.setCount(w, voted);
        }
    }
    return counts;
}

void
DomainBlockCluster::carryStep(const BitVector &wires, std::size_t samples,
                              TrFaultModel *faults, std::size_t s_row,
                              std::size_t c_row, bool write_c,
                              bool write_cp)
{
    checkSensed(wires, samples);
    note(obs::Counter::TrPulses, wires.popcount() * samples);
    const bool faulty = faults && faults->active();
    const std::size_t lo = portPhysical(Port::Left);
    const std::size_t hi = portPhysical(Port::Right);
    BitVector &s = physRow(physicalIndex(s_row));
    BitVector &c = physRow(physicalIndex(c_row));
    // Planes 0-2 of a run of words, on the stack; a row wider than a
    // run takes several.
    constexpr std::size_t run = BitVector::inlineWords;
    // The previous word's sensed wires and planes 1-2: C and C' move
    // their top bits into the next word.
    std::uint64_t m_prev = 0, p1_prev = 0, p2_prev = 0;
    for (std::size_t j0 = 0; j0 < wires.numWords(); j0 += run) {
        const std::size_t n = std::min(run, wires.numWords() - j0);
        // Ripple count mod 8: a carry out of plane 2 is dropped.
        std::uint64_t p0[run] = {}, p1[run] = {}, p2[run] = {};
        for (std::size_t i = lo; i <= hi; ++i) {
            const BitVector &row = physRow(i);
            for (std::size_t j = 0; j < n; ++j) {
                const std::uint64_t x = row.word(j0 + j);
                const std::uint64_t c0 = p0[j] & x;
                p0[j] ^= x;
                p2[j] ^= p1[j] & c0;
                p1[j] ^= c0;
            }
        }
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t word = j0 + j;
            const std::uint64_t m = wires.word(word);
            if (faulty) {
                // A fault's direction depends on the whole count (a
                // read of an empty or a full window errs inward only),
                // which planes 0-2 lose past 7 rows: sense the wire's
                // own count.
                for (std::uint64_t left = m; left != 0; left &= left - 1) {
                    const int b = std::countr_zero(left);
                    const std::uint64_t v = senseVoted(
                        windowCount(word * 64 + b), samples, 3, *faults);
                    const std::uint64_t bit = 1ULL << b;
                    p0[j] = (p0[j] & ~bit) | ((v & 1) << b);
                    p1[j] = (p1[j] & ~bit) | (((v >> 1) & 1) << b);
                    p2[j] = (p2[j] & ~bit) | (((v >> 2) & 1) << b);
                }
            }
            // S on the sensed wires, then C' two wires up (over S
            // where they meet), and C one wire up.
            std::uint64_t s_mask = m;
            std::uint64_t s_bits = p0[j] & m;
            if (write_cp) {
                const std::uint64_t m2 = (m << 2) | (m_prev >> 62);
                const std::uint64_t cp = (p2[j] << 2) | (p2_prev >> 62);
                s_mask |= m2;
                s_bits = (s_bits & ~m2) | (cp & m2);
            }
            s.setWord(word, (s.word(word) & ~s_mask) | s_bits);
            if (write_c) {
                const std::uint64_t m1 = (m << 1) | (m_prev >> 63);
                const std::uint64_t cb = (p1[j] << 1) | (p1_prev >> 63);
                c.setWord(word, (c.word(word) & ~m1) | (cb & m1));
            }
            m_prev = m;
            p1_prev = p1[j];
            p2_prev = p2[j];
        }
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
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi; ++i)
        count += physRow(i).get(wire) ? 1 : 0;
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
    physRow(physicalIndex(row)) = value;
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
