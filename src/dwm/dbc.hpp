/**
 * @file
 * Domain-block cluster: X nanowires ganged under one shift controller.
 *
 * A DBC (paper Fig. 2(d)) is the unit of PIM: X parallel nanowires of Y
 * data domains each.  Row r of the DBC is the bit-slice at domain
 * position r across all wires (an X-bit word).  All wires shift
 * together; each wire has its own sense amplifier, so transverse reads
 * happen on all wires simultaneously.
 *
 * Representation: rows are stored as X-bit BitVectors by physical
 * domain position, which makes row-wide operations (the common case)
 * cheap.  The physical rows form a ring: moving every domain one
 * position (a shift pulse) advances the ring's head and clears the
 * row that entered at the far extremity, O(1) in the wire length.  A
 * transverse read of every wire is a vertical counter over the rows
 * in range (CountPlanes), 64 wires per machine word, filled in one
 * word-major pass over the window; every row-wide read takes that one
 * count and one fault pass.  The carry chain of a multi-operand
 * addition (carryChain) writes only the two port rows, so it counts
 * the window's interior once per add and adds the port rows at each
 * bit position, before the same fault pass.
 * The representation is property-tested against the explicit
 * per-wire Nanowire model, whose bit-serial count
 * transverseReadWire() mirrors.
 */

#ifndef CORUSCANT_DWM_DBC_HPP
#define CORUSCANT_DWM_DBC_HPP

#include <cstdint>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "dwm/count_planes.hpp"
#include "dwm/device_params.hpp"
#include "dwm/fault_model.hpp"
#include "dwm/shift_fault.hpp"
#include "obs/metrics.hpp"
#include "util/bit_vector.hpp"

namespace coruscant {

/** The two access ports of a PIM-enabled nanowire. */
enum class Port { Left, Right };

/** X nanowires x Y data rows with a shared shift offset. */
class DomainBlockCluster
{
  public:
    explicit DomainBlockCluster(const DeviceParams &params);

    const DeviceParams &params() const { return dev; }

    /** Bits per row (number of nanowires, X). */
    std::size_t width() const { return dev.wiresPerDbc; }

    /** Data rows (distinct row addresses, Y). */
    std::size_t rows() const { return dev.domainsPerWire; }

    /**
     * Attach a shifting-fault injector: every subsequent shiftLeft /
     * shiftRight pulse is sampled and may silently over- or
     * under-shift the whole cluster (non-owning; nullptr detaches).
     */
    void attachShiftFaults(ShiftFaultModel *model) { shiftFaults = model; }

    /**
     * Attach an observability counter set: every device primitive
     * (shift pulse, TR pulse, TW pulse, port read/write) increments it.
     * A cluster-wide operation counts as one pulse — all wires act
     * under the shared controller signal.  Non-owning; nullptr
     * detaches, and a detached cluster pays one branch per primitive.
     */
    void attachMetrics(obs::ComponentMetrics *m) { metrics = m; }

    // --- Shifting (all wires together) -----------------------------------

    void shiftLeft();
    void shiftRight();
    bool canShiftLeft() const;
    bool canShiftRight() const;
    int shiftOffset() const { return offset; }

    /** Data row currently aligned with @p port. */
    std::size_t
    rowAtPort(Port port) const
    {
        return basePortRow(port) + offset;
    }

    /** Whether @p row can be aligned with @p port within shift range. */
    bool
    canAlign(std::size_t row, Port port) const
    {
        if (row >= dev.domainsPerWire)
            return false;
        int needed =
            static_cast<int>(row) - static_cast<int>(basePortRow(port));
        return needed >= -static_cast<int>(rightOver) &&
               needed <= static_cast<int>(leftOver);
    }

    /** The port that reaches @p row with the shorter shift (left on a tie). */
    Port
    nearestPort(std::size_t row) const
    {
        auto dist = [&](Port p) {
            return std::abs(static_cast<long>(row) -
                            static_cast<long>(rowAtPort(p)));
        };
        bool left = canAlign(row, Port::Left);
        if (left && canAlign(row, Port::Right))
            left = dist(Port::Left) <= dist(Port::Right);
        return left ? Port::Left : Port::Right;
    }

    /** Align @p row with @p port; returns shifts performed. */
    std::size_t alignRowToPort(std::size_t row, Port port);

    /** First data row currently inside the TR window. */
    std::size_t windowStartRow() const { return rowAtPort(Port::Left); }

    // --- Row-wide port access --------------------------------------------

    /** Read the X-bit row under @p port. */
    BitVector readRowAtPort(Port port) const;

    /** Write the X-bit row under @p port. */
    void writeRowAtPort(Port port, const BitVector &row);

    // --- Transverse access ------------------------------------------------

    /**
     * Transverse read on a single wire: ones count over the TRD-domain
     * window between the ports (inclusive), optionally fault-perturbed.
     * Bit-serial; it is also the reference the word-parallel reads
     * are tested against.
     */
    std::size_t transverseReadWire(std::size_t wire,
                                   TrFaultModel *faults = nullptr) const;

    /**
     * Transverse read on every wire at once (each wire has its own
     * sense circuit), as count planes.  An active @p faults model
     * perturbs the wires' counts in wire order 0..X-1, so it draws
     * exactly as X calls of transverseReadWire() would.
     */
    CountPlanes transverseReadPlanes(TrFaultModel *faults = nullptr) const;

    /**
     * transverseReadPlanes() into @p counts, a counter of width()
     * wires that the caller keeps: it is recounted in place, so the
     * read allocates nothing once @p counts has held a window's
     * planes.
     */
    void transverseReadPlanes(CountPlanes &counts,
                              TrFaultModel *faults = nullptr) const;

    /**
     * Transverse read sensed on the wires set in @p wires only (a
     * lane-strided read: maxOfRows probes one bit of every lane).
     * The window is counted once; each selected wire is then sensed
     * @p samples times, one TR pulse each, wire by wire in ascending
     * order and sample-minor — the draw order of @p samples
     * consecutive transverseReadWire() calls per wire.  Bit k of a
     * selected wire's returned count is the majority of bit k over
     * its samples (with one sample, the observed count).  Other wires
     * hold their fault-free count.
     * @param samples odd number of senses per selected wire
     */
    CountPlanes transverseReadWires(const BitVector &wires,
                                    std::size_t samples = 1,
                                    TrFaultModel *faults = nullptr) const;

    /**
     * The carry chain of a multi-operand addition, @p block bit
     * positions long.  Step k is the lane-strided transverse read of
     * transverseReadWires(@p lane_starts << k, @p samples, @p faults),
     * then the PIM block's outputs written in place from its count
     * planes: S (count bit 0) under the left port on the sensed wires,
     * C (bit 1) under the right port one wire up while k + 1 < @p block,
     * and C' (bit 2) under the left port two wires up while
     * @p has_super and k + 2 < @p block.  The chain writes only the
     * two port rows, so the window's interior rows are counted once
     * and each step adds the port rows to those counts.  Each step
     * counts the whole window before any write, and the C and C' bits
     * that cross into the next word wait in registers.
     */
    void carryChain(BitVector lane_starts, std::size_t block,
                    std::size_t samples, TrFaultModel *faults,
                    bool has_super);

    /** transverseReadPlanes() as per-wire counts, size width(). */
    std::vector<std::uint8_t>
    transverseReadAll(TrFaultModel *faults = nullptr) const;

    /**
     * Segmented transverse read (paper Fig. 3) of one outer segment on
     * one wire: the ones count of the region between an extremity and
     * the nearer port, exclusive of the port domain.
     */
    std::size_t transverseReadOutsideWire(std::size_t wire,
                                          Port side) const;

    /**
     * Row-wide transverse write with segmented shift: on every wire the
     * window advances one domain toward the right port (the row under
     * the right port is pushed out) and @p row is written under the
     * left port.
     */
    void transverseWriteRow(const BitVector &row);

    // --- Backdoor (data load / verification; no device semantics) ---------

    /**
     * Physically move every domain one position WITHOUT updating the
     * shift bookkeeping: models a shifting fault (an over- or
     * under-shift the controller is unaware of), and equally the
     * corrective pulse that undoes one.  Domains pushed past an
     * extremity are lost.
     */
    void injectShiftFault(bool toward_left);

    BitVector peekRow(std::size_t row) const;
    void pokeRow(std::size_t row, const BitVector &value);
    /** Set every bit of @p row to @p value, in place. */
    void fillRow(std::size_t row, bool value);

    /**
     * Stage the TR window in place, in one pass: @p count rows from
     * the window start on (more than TRD stages rows past the window),
     * where row @p offset + i takes the words of @p operands[i] and
     * every other row is filled with @p pad.  An operand span shorter
     * than a row reads as zero past its end; words and bits past
     * width() are dropped.  Panics unless the operands fit the rows
     * and the rows are data rows.  Returns the window start.
     */
    std::size_t stageWindow(std::size_t count, std::size_t offset,
                            std::span<const WordSpan> operands, bool pad);
    bool peekBit(std::size_t row, std::size_t wire) const;
    void pokeBit(std::size_t row, std::size_t wire, bool value);

  private:
    /** Data row under @p port at zero shift offset. */
    std::size_t
    basePortRow(Port port) const
    {
        return port == Port::Left ? leftPort : rightPort;
    }

    /** Physical position of @p port's domain. */
    std::size_t
    portPhysical(Port port) const
    {
        return leftOver + basePortRow(port);
    }

    std::size_t physicalIndex(std::size_t row) const;

    /** The row at physical position @p pos (< totalDomains()). */
    BitVector &
    physRow(std::size_t pos)
    {
        std::size_t i = head + pos;
        return ring[i < ring.size() ? i : i - ring.size()];
    }
    const BitVector &
    physRow(std::size_t pos) const
    {
        std::size_t i = head + pos;
        return ring[i < ring.size() ? i : i - ring.size()];
    }

    /** Recount @p counts as the TR window's fault-free per-wire counts. */
    void windowCounts(CountPlanes &counts) const;

    /** Ones count of @p wire over physical rows [@p lo, @p hi). */
    std::size_t rangeCount(std::size_t wire, std::size_t lo,
                           std::size_t hi) const;

    /**
     * Sense a wire whose fault-free count is @p c once through
     * @p faults, noting an injected fault; returns the observed count.
     */
    std::size_t sense(std::size_t c, TrFaultModel &faults) const;

    /**
     * The fault pass of a row-wide read: each wire set in @p wires,
     * in ascending order, is sensed @p samples times (sample-minor)
     * from its fault-free count in @p counts, which then holds the
     * majority of each bit over the samples (the observed count, for
     * one sample).
     */
    void senseWires(CountPlanes &counts, const BitVector &wires,
                    std::size_t samples, TrFaultModel &faults) const;

    /** Physical rows [first, last) of one outer segment. */
    std::pair<std::size_t, std::size_t> outsideRange(Port side) const;

    void perturbShift(bool toward_left);

    /** Count one device primitive if a counter set is attached. */
    void
    note(obs::Counter c, std::uint64_t n = 1) const
    {
        if (metrics)
            metrics->add(c, n);
    }

    DeviceParams dev;
    // dev's port geometry, cached: every access consults it.
    std::size_t leftOver = 0;  ///< dev.leftOverhead()
    std::size_t rightOver = 0; ///< dev.rightOverhead()
    std::size_t leftPort = 0;  ///< dev.leftPortRow()
    std::size_t rightPort = 0; ///< dev.rightPortRow()
    /** Physical rows; position p is ring[(head + p) % ring.size()]. */
    std::vector<BitVector> ring;
    std::size_t head = 0;            ///< ring slot of physical position 0
    int offset = 0;                  ///< net left shifts applied
    ShiftFaultModel *shiftFaults = nullptr; ///< non-owning, optional
    obs::ComponentMetrics *metrics = nullptr; ///< non-owning, optional
};

} // namespace coruscant

#endif // CORUSCANT_DWM_DBC_HPP
