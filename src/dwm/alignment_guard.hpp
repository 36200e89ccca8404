/**
 * @file
 * TR-based shift-alignment guard.
 *
 * DWM shifting is imprecise: a current pulse can over- or under-shift
 * ("shifting faults", paper Sec. II-A).  The transverse read was
 * originally proposed exactly for this (paper Sec. II-D, and the
 * DSN'19 / TNANO'20 work it cites): dedicate a position-encoding
 * pattern and compare its TR ones-count against the expected value —
 * a one-position misalignment changes the count by exactly one.
 *
 * This guard dedicates one nanowire of the DBC to a triangle-ramp
 * pattern whose sliding-window ones count changes by exactly one per
 * window position, so a single TR of the guard wire detects any
 * single-position misalignment at every window position.  At the
 * ramp's peaks and troughs both neighbour positions share a count, so
 * the fault *direction* is ambiguous there; correction resolves it by
 * guess-and-verify pulses (the corrective pulse is re-checked, and
 * reversed if the count did not return to the expected value).  The
 * one structural blind spot — at the last window position an
 * over-shift can alias as aligned, because the domain entering the
 * window from the overhead region carries no pattern — is closed with
 * a segmented TR over the guard wire's outer-left segment (paper
 * Fig. 3), which sees the missing edge row.  No check ever moves the
 * window, so guarded accesses keep their alignment.  The mechanism is
 * orthogonal to the PIM operations (the paper assumes such protection
 * reaches >10-year MTTF at <1% overhead).
 */

#ifndef CORUSCANT_DWM_ALIGNMENT_GUARD_HPP
#define CORUSCANT_DWM_ALIGNMENT_GUARD_HPP

#include <cstdint>

#include "dwm/dbc.hpp"

namespace coruscant {

/** Result of an alignment check. */
enum class AlignmentStatus
{
    Aligned,      ///< guard count matches the expected position
    OffByPlusOne, ///< cluster sits one position too far left-shifted
    OffByMinusOne, ///< one position under-shifted
    Unknown,      ///< count deviates but the direction is ambiguous
};

/**
 * Detailed outcome of one correct() pass, so the memory
 * controller can charge the guard TRs and the corrective pulses to
 * its cost ledger.
 */
struct GuardCorrection
{
    AlignmentStatus initial = AlignmentStatus::Aligned;
    bool aligned = false;   ///< cluster observed aligned at the end
    bool corrected = false; ///< at least one corrective pulse verified
    /**
     * The ladder proved the cluster aligned but the guard pattern
     * itself damaged (an over-shift at maximum excursion pushes the
     * edge domain off the wire, guard bit included).  The owner should
     * rewrite the guard track or later edge checks will false-alarm.
     */
    bool patternDamaged = false;
    std::size_t guardTrs = 0;          ///< guard-wire transverse reads
    std::size_t correctiveShifts = 0;  ///< untracked corrective pulses
};

/** Guard-pattern management and misalignment detection. */
class AlignmentGuard
{
  public:
    /**
     * @param params device geometry
     * @param guard_wire which nanowire carries the pattern
     */
    explicit AlignmentGuard(const DeviceParams &params,
                            std::size_t guard_wire = 0);

    std::size_t guardWire() const { return wire; }

    /** Write the ramp pattern into the guard wire of @p dbc. */
    void install(DomainBlockCluster &dbc) const;

    /** Pattern bit for data row @p row. */
    bool patternBit(std::size_t row) const;

    /** Expected guard TR count when the window starts at @p row. */
    std::size_t expectedCount(std::size_t window_start) const;

    /**
     * Check the cluster against its own believed window position
     * (dbc.windowStartRow()): one TR of the guard wire, plus one
     * segmented outer TR at the edge-aliasing window position.
     */
    AlignmentStatus check(const DomainBlockCluster &dbc) const;

    /**
     * Check and, if a misalignment is detected, issue corrective
     * pulses until the cluster is verified aligned again (bounded
     * attempts).  At direction-ambiguous positions the first pulse is
     * a guess that is reversed when the follow-up check does not
     * converge.  A misalignment of two or more positions usually
     * cannot be attributed and is reported uncorrectable
     * (aligned = false), though the guess ladder may still recover it.
     */
    GuardCorrection correct(DomainBlockCluster &dbc) const;

  private:
    /**
     * Whether, at @p window_start, an over-shifted cluster shows the
     * aligned window count (the structural edge alias the segmented
     * outer TR resolves).
     */
    bool edgeAliasPossible(std::size_t window_start) const;

    /** Guard ones over data rows [0, window_start). */
    std::size_t expectedOutsideLeft(std::size_t window_start) const;

    /**
     * check() with TR accounting; @p edge reports whether the verdict
     * came from the segmented outer TR rather than the window count
     * (the correction ladder treats those differently: a persistent
     * outer deficit on an aligned window is pattern damage).
     */
    AlignmentStatus checkCounted(const DomainBlockCluster &dbc,
                                 std::size_t &trs, bool &edge) const;

    DeviceParams dev;
    std::size_t wire;
};

} // namespace coruscant

#endif // CORUSCANT_DWM_ALIGNMENT_GUARD_HPP
