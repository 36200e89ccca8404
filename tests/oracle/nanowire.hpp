/**
 * @file
 * Single DWM nanowire with two access ports and transverse access.
 *
 * Models one racetrack: a line of magnetic domains, a shift offset, two
 * read/write access ports spaced TRD domains apart (inclusive), overhead
 * domains at both extremities so any data row can reach a port, a
 * transverse read (count of '1's between the ports), and the paper's
 * transverse write with segmented shift (Section IV-B, Fig. 9).
 *
 * The DomainBlockCluster is the workhorse used by the PIM layer; this
 * class is the test oracle for it: the per-wire reference device model
 * that the cluster representation is property-tested against.
 */

#ifndef CORUSCANT_ORACLE_NANOWIRE_HPP
#define CORUSCANT_ORACLE_NANOWIRE_HPP

#include <cstdint>
#include <vector>

#include "dwm/dbc.hpp"
#include "dwm/device_params.hpp"
#include "dwm/fault_model.hpp"
#include "dwm/shift_fault.hpp"
#include "obs/metrics.hpp"

namespace coruscant {

/** One ferromagnetic nanowire with explicit domain state. */
class Nanowire
{
  public:
    explicit Nanowire(const DeviceParams &params);

    /** Geometry in use. */
    const DeviceParams &params() const { return dev; }

    /**
     * Attach a shifting-fault injector: every subsequent shift pulse
     * may silently over- or under-shift (non-owning; nullptr detaches).
     */
    void attachShiftFaults(ShiftFaultModel *model) { shiftFaults = model; }

    /**
     * Attach an observability counter set: every device primitive
     * (shift pulse, TR pulse, TW pulse, port read/write) increments
     * it.  Non-owning; nullptr detaches.
     */
    void attachMetrics(obs::ComponentMetrics *m) { metrics = m; }

    // --- Shifting ------------------------------------------------------

    /**
     * Shift every domain one position toward the left extremity
     * (data that was at physical index i moves to i-1).
     * @pre canShiftLeft()
     */
    void shiftLeft();

    /** Shift every domain one position toward the right extremity. */
    void shiftRight();

    /** Whether a further left shift keeps all data rows on the wire. */
    bool canShiftLeft() const;

    /** Whether a further right shift keeps all data rows on the wire. */
    bool canShiftRight() const;

    /**
     * Net left shifts applied (negative = net right).  Zero means data
     * row leftPortRow() is aligned with the left port.
     */
    int shiftOffset() const { return offset; }

    /** Data row currently aligned with @p port. */
    std::size_t rowAtPort(Port port) const;

    /**
     * Shift until data row @p row is aligned with @p port.
     * @return number of single-domain shifts performed
     */
    std::size_t alignRowToPort(std::size_t row, Port port);

    /**
     * Shift until the TR window covers data rows
     * [row, row + TRD - 1].
     * @return number of single-domain shifts performed
     */
    std::size_t alignWindowStart(std::size_t row);

    /** Whether aligning @p row with @p port is within shift range. */
    bool canAlign(std::size_t row, Port port) const;

    // --- Port access ----------------------------------------------------

    /** Read the bit under @p port. */
    bool readAtPort(Port port) const;

    /** Shift-based write of @p value under @p port. */
    void writeAtPort(Port port, bool value);

    // --- Transverse access ----------------------------------------------

    /**
     * Transverse read: number of '1's in the TRD domains between the
     * ports, inclusive.  Perturbed by @p faults when provided.
     */
    std::size_t transverseRead(TrFaultModel *faults = nullptr) const;

    /**
     * Transverse write with segmented shift: domains between the ports
     * advance one position toward the right port (the bit under the
     * right port is pushed out to ground), and @p value is written
     * under the left port.  Domains outside the window are untouched.
     */
    void transverseWrite(bool value);

    /**
     * Segmented transverse read (paper Fig. 3): ones count of the
     * region between an extremity and the nearer port, exclusive of
     * the port domain itself.  The left and right outer segments can
     * be read simultaneously (disjoint current paths), so one TR
     * cycle covers both; together with the window TR this queries the
     * full nanowire in two TR operations.
     *
     * @param side which extremity's segment to count
     */
    std::size_t transverseReadOutside(Port side,
                                      TrFaultModel *faults
                                      = nullptr) const;

    /** Total ones on the wire (both outer segments + the window). */
    std::size_t
    totalOnes() const
    {
        return transverseReadOutside(Port::Left) + transverseRead() +
               transverseReadOutside(Port::Right);
    }

    // --- Backdoor (testing / data load; no device semantics) -------------

    /**
     * Physically move every domain one position WITHOUT updating the
     * shift bookkeeping: models a shifting fault, and equally the
     * corrective pulse that undoes one.  Domains pushed past an
     * extremity are lost.
     */
    void injectShiftFault(bool toward_left);

    /** Read data row @p row regardless of alignment. */
    bool peekRow(std::size_t row) const;

    /** Write data row @p row regardless of alignment. */
    void pokeRow(std::size_t row, bool value);

    /** Physical index of data row @p row at the current offset. */
    std::size_t physicalIndex(std::size_t row) const;

  private:
    std::size_t portPhysical(Port port) const;
    void perturbShift(bool toward_left);

    /** Count one device primitive if a counter set is attached. */
    void
    note(obs::Counter c) const
    {
        if (metrics)
            metrics->add(c);
    }

    DeviceParams dev;
    std::vector<std::uint8_t> domains; ///< physical positions, 0 = left
    int offset = 0;                    ///< net left shifts applied
    ShiftFaultModel *shiftFaults = nullptr; ///< non-owning, optional
    obs::ComponentMetrics *metrics = nullptr; ///< non-owning, optional
};

} // namespace coruscant

#endif // CORUSCANT_ORACLE_NANOWIRE_HPP
