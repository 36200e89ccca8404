#include "dwm/alignment_guard.hpp"

#include "util/logging.hpp"

namespace coruscant {

AlignmentGuard::AlignmentGuard(const DeviceParams &params,
                               std::size_t guard_wire)
    : dev(params), wire(guard_wire)
{
    fatalIf(guard_wire >= params.wiresPerDbc,
            "guard wire out of range");
    fatalIf(params.trd < 2,
            "alignment guard needs a multi-domain TR window");
}

bool
AlignmentGuard::patternBit(std::size_t row) const
{
    // Triangle ramp with period 2*TRD.  Because patternBit(r + trd) is
    // always the complement of patternBit(r), the sliding-window ones
    // count changes by exactly one at EVERY window position — so a
    // single-position misalignment is always detectable, never just
    // between peaks.
    return (row % (2 * dev.trd)) < dev.trd;
}

void
AlignmentGuard::install(DomainBlockCluster &dbc) const
{
    for (std::size_t r = 0; r < dev.domainsPerWire; ++r)
        dbc.pokeBit(r, wire, patternBit(r));
}

std::size_t
AlignmentGuard::expectedCount(std::size_t window_start) const
{
    std::size_t c = 0;
    for (std::size_t i = 0; i < dev.trd; ++i)
        c += patternBit(window_start + i) ? 1 : 0;
    return c;
}

bool
AlignmentGuard::edgeAliasPossible(std::size_t window_start) const
{
    // At the last window position an over-shift pulls a blank overhead
    // domain into the window; the count then aliases the aligned value
    // exactly when the row shifted out carried a 0.  (The mirror case
    // at window_start == 0 cannot occur: an under-shift pushes
    // patternBit(trd - 1) out, and the phase-0 ramp has that bit set.)
    return window_start + dev.trd == dev.domainsPerWire &&
           !patternBit(window_start);
}

std::size_t
AlignmentGuard::expectedOutsideLeft(std::size_t window_start) const
{
    // Overhead domains left of the data are zero by construction (the
    // zero-fill invariant of shifting), so the outer-left segment sees
    // exactly the guard bits of the data rows before the window.
    std::size_t c = 0;
    for (std::size_t r = 0; r < window_start; ++r)
        c += patternBit(r) ? 1 : 0;
    return c;
}

AlignmentStatus
AlignmentGuard::checkCounted(const DomainBlockCluster &dbc,
                             std::size_t &trs, bool &edge) const
{
    edge = false;
    std::size_t ws = dbc.windowStartRow();
    std::size_t measured = dbc.transverseReadWire(wire);
    ++trs;
    if (measured == expectedCount(ws)) {
        if (edgeAliasPossible(ws)) {
            // Disambiguate with the outer-left segmented TR: an
            // over-shift moves one pattern 1 (patternBit(0) = 1 at
            // least) past the left port, so the segment count drops
            // below its expected value.
            std::size_t outside =
                dbc.transverseReadOutsideWire(wire, Port::Left);
            ++trs;
            if (outside < expectedOutsideLeft(ws)) {
                edge = true;
                return AlignmentStatus::OffByPlusOne;
            }
        }
        return AlignmentStatus::Aligned;
    }
    // A one-position fault shows a neighbouring window's count; at the
    // ramp's peaks both neighbours share it and the direction is
    // ambiguous (Unknown) — correct() resolves that by guess-and-verify.
    // At window position 0 the minus neighbour's window reaches one
    // blank overhead domain, so its count is expectedCount(0) minus the
    // patternBit(trd - 1) the window no longer covers.
    std::size_t minus_expected =
        ws > 0 ? expectedCount(ws - 1)
               : expectedCount(0) - (patternBit(dev.trd - 1) ? 1 : 0);
    bool plus = measured == expectedCount(ws + 1);
    bool minus = measured == minus_expected;
    if (plus && !minus)
        return AlignmentStatus::OffByPlusOne;
    if (minus && !plus)
        return AlignmentStatus::OffByMinusOne;
    return AlignmentStatus::Unknown;
}

AlignmentStatus
AlignmentGuard::check(const DomainBlockCluster &dbc) const
{
    std::size_t trs = 0;
    bool edge = false;
    return checkCounted(dbc, trs, edge);
}

GuardCorrection
AlignmentGuard::correct(DomainBlockCluster &dbc) const
{
    GuardCorrection r;
    bool edge = false;
    r.initial = checkCounted(dbc, r.guardTrs, edge);
    if (r.initial == AlignmentStatus::Aligned) {
        r.aligned = true;
        return r;
    }
    // Guess-and-verify pulse ladder, never moving the window: pulse in
    // the indicated (or guessed) direction, re-check, reverse a failed
    // guess.  Single-position faults need at most three pulses (wrong
    // guess, undo, right direction); the bound leaves headroom for a
    // corrective pulse itself faulting under the injector.
    AlignmentStatus status = r.initial;
    // First guess points away from the nearer wire extremity: a wrong
    // guess then lands in overhead slack instead of pushing the
    // outermost data row off the wire.
    bool primary_left = dbc.shiftOffset() < 0;
    bool guessed = false;
    for (int pulse = 0; pulse < 6; ++pulse) {
        bool toward_left;
        if (status == AlignmentStatus::OffByPlusOne) {
            // One position too far toward the left extremity: move back
            // right.
            toward_left = false;
        } else if (status == AlignmentStatus::OffByMinusOne) {
            toward_left = true;
        } else {
            // Direction unknown (ramp peak): guess the primary
            // direction once, then the opposite until the re-check
            // verifies a guess.
            toward_left = guessed ? !primary_left : primary_left;
            guessed = true;
        }
        bool was_edge = edge;
        dbc.injectShiftFault(toward_left);
        ++r.correctiveShifts;
        status = checkCounted(dbc, r.guardTrs, edge);
        if (status == AlignmentStatus::Aligned) {
            r.aligned = true;
            r.corrected = true;
            return r;
        }
        if (was_edge && !toward_left &&
            status == AlignmentStatus::OffByMinusOne) {
            // The outer segmented TR claimed an over-shift, yet one
            // right pulse made the WINDOW count read under-shifted: the
            // cluster was in fact aligned and the outer deficit is a
            // destroyed guard bit (the edge domain an earlier maximum-
            // excursion over-shift pushed off the wire).  Undo the
            // pulse and report the damage; re-checking would only trip
            // the same false alarm until the pattern is rewritten.
            dbc.injectShiftFault(true);
            ++r.correctiveShifts;
            r.aligned = true;
            r.corrected = true;
            r.patternDamaged = true;
            return r;
        }
    }
    return r;
}

} // namespace coruscant
