/**
 * @file
 * Typed requests for the PIM service layer.
 *
 * The service layer models sustained traffic against a CORUSCANT
 * memory system: a stream of independent requests, each bound to a
 * (channel, bank, DBC alignment group) home and carrying enough
 * typing for the batcher to recognize coalescing opportunities.
 *
 * Request classes mirror the workloads the repo already reproduces in
 * closed form:
 *  - Read/Write      ordinary DWM line traffic (paper Fig. 4(a) orange
 *                    path), shift-aware DDR timing;
 *  - BulkBitwise     one operand row folded into an associative AND/OR
 *                    accumulator resident in the request's DBC group
 *                    (the bitmap-index pattern of Fig. 12) — the
 *                    batchable class: k compatible requests become one
 *                    (k+1)-operand transverse-read gang;
 *  - MultiOpAdd      an m-operand addition (Sec. V-B);
 *  - Reduce          a TRD->3 row reduction;
 *  - MacTile         a CNN tile of multiply-accumulate lanes
 *                    (Table IV workloads).
 *
 * Costs are not invented here: ServiceCostTable measures each class
 * through CoruscantCostModel (the functional simulator's ledger) and
 * the paper's Table II DWM DDR timing, so the service layer and the
 * closed-form experiments charge identical cycle counts.
 */

#ifndef CORUSCANT_SERVICE_REQUEST_HPP
#define CORUSCANT_SERVICE_REQUEST_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace coruscant {

/** Request taxonomy of the service layer. */
enum class RequestClass : std::uint8_t
{
    Read = 0,
    Write,
    BulkBitwise,
    MultiOpAdd,
    Reduce,
    MacTile,
};

/** Number of request classes (array sizing). */
inline constexpr std::size_t kRequestClasses = 6;

/** Short stable name for reports and the CLI mix syntax. */
const char *requestClassName(RequestClass cls);

/** One request in flight through the service layer. */
struct ServiceRequest
{
    std::uint64_t id = 0;       ///< unique within its channel
    RequestClass cls = RequestClass::Read;
    std::uint64_t arrival = 0;  ///< cycle the request enters the queue
    std::uint32_t bank = 0;     ///< home bank/subarray in its channel
    std::uint32_t dbcGroup = 0; ///< DBC alignment group within the bank
    std::uint32_t size = 1;     ///< class-specific size (lines,
                                ///< operands, or MAC lanes)
};

/**
 * Issue/occupancy cost of one dispatched unit of work.
 *
 * Deliberately small: one of these is built per dispatched request on
 * the engine's hot path. The device primitives behind a cost sit
 * beside it in the table and are fetched via ServiceCostTable::prims()
 * / gangPrims() only when metrics collection is enabled.
 */
struct RequestCost
{
    std::uint32_t issueCmds = 1;      ///< command-bus slots
    std::uint32_t serviceCycles = 0;  ///< bank occupancy after issue
    double energyPj = 0.0;
};

/**
 * Measured per-class costs for one device configuration.
 *
 * Built once per engine run (the functional-simulator measurements are
 * not free) and shared read-only across worker threads.
 */
class ServiceCostTable
{
  public:
    /** Measure costs for a TRD-@p trd device. */
    static ServiceCostTable build(std::size_t trd);

    /** Cost of @p req when dispatched alone (no ganging). */
    RequestCost cost(const ServiceRequest &req) const;

    /**
     * Cost of a TR gang folding @p members operand rows into a DBC
     * accumulator with one multi-operand bulk-bitwise op
     * (1 <= members <= maxGangOperands()).
     */
    RequestCost gangCost(std::size_t members) const;

    /** Largest number of requests one gang can absorb (TRD - 1). */
    std::size_t maxGangOperands() const { return gang_.size(); }

    std::size_t trd() const { return trd_; }

    /** Largest operand count a MultiOpAdd request may carry. */
    std::size_t maxAddOperands() const { return addByOperands_.size(); }

    /** Cost of an m-operand add (2 <= m <= maxAddOperands()). */
    RequestCost addCost(std::size_t operands) const;

    /**
     * Device primitives behind cost(@p req). Kept off the RequestCost
     * hot path; call only when metrics collection is enabled.
     */
    obs::PrimCounts prims(const ServiceRequest &req) const;

    /** Device primitives behind gangCost(@p members). */
    obs::PrimCounts gangPrims(std::size_t members) const;

  private:
    /** One measured slot: a cost and the device primitives behind it. */
    struct Entry
    {
        RequestCost cost;
        obs::PrimCounts prims;
    };

    /** A slot and how many times a request repeats it. */
    struct Scaled
    {
        const Entry &entry;
        std::uint32_t times;
    };

    /**
     * The slot behind class @p cls at size @p n: lines, operands, MAC
     * lanes or, for BulkBitwise, gang members.  Line traffic and MAC
     * tiles repeat their one-unit slot n times.
     */
    Scaled lookup(RequestClass cls, std::size_t n) const;

    /** The size lookup() prices @p req at. */
    static std::uint32_t sizeOf(const ServiceRequest &req);

    std::size_t trd_ = 0;
    Entry readLine_;
    Entry writeLine_;
    std::vector<Entry> gang_;          ///< [k-1] = k-member gang
    std::vector<Entry> addByOperands_; ///< [m-1] = m-operand add
    Entry reduce_;
    Entry macLane_;
};

} // namespace coruscant

#endif // CORUSCANT_SERVICE_REQUEST_HPP
