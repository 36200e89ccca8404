/**
 * @file
 * TR-gang batching of compatible bulk-bitwise requests.
 *
 * CORUSCANT's bulk-bitwise operation evaluates up to TRD operand rows
 * in a single transverse read (paper Sec. III-C); PIRM dispatches such
 * multi-operand operations circularly across subarrays to hide the
 * command bus.  The batcher exploits that: bulk-bitwise requests bound
 * to the same (bank, DBC alignment group) — i.e., operand rows already
 * resident under the same access-port window — are coalesced into one
 * gang of up to TRD-1 member rows plus the group's accumulator row,
 * issued as a single cpim instruction.
 *
 * A gang closes when it is full or when its oldest member has waited
 * `windowCycles` (the batching delay bound); the engine then dispatches
 * it as one unit of work.  Under load the window rarely expires —
 * gangs fill from the queue — so batching trades a bounded added
 * queueing delay at low load for a ~(TRD-1)x reduction in both
 * command-bus slots and bank occupancy per request at high load.
 *
 * The batcher runs once per bulk request on the serve path, so once
 * warmed up it touches no heap: open gangs sit in a small flat table
 * kept in (bank, group) key order, and their members in one pooled
 * buffer cut into blocks of max_members slots, recycled through a
 * free list.
 *
 * Lifetime rule: a returned gang's members are a view into that pool.
 * They stay valid until the next add(), the only call that reopens a
 * block (or grows the pool); flushDue() and flushGroup() never touch a
 * closed block, so a caller may flush a group while it is still
 * dispatching an earlier result.  The gang list flushDue() returns
 * lives in a buffer of its own, reused by the next flushDue().
 */

#ifndef CORUSCANT_SERVICE_BATCHER_HPP
#define CORUSCANT_SERVICE_BATCHER_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "service/request.hpp"

namespace coruscant {

/** A closed gang, ready for dispatch as one bus/bank unit. */
struct TrGang
{
    std::uint32_t bank = 0;
    std::uint32_t dbcGroup = 0;
    std::uint64_t readyAt = 0; ///< cycle the gang closed
    std::span<const ServiceRequest> members; ///< into the batcher's pool
};

/** Aggregate batching counters (mergeable across channels). */
struct BatchStats
{
    std::uint64_t gangs = 0;          ///< gangs dispatched
    std::uint64_t gangedRequests = 0; ///< members across all gangs
    std::uint64_t fullCloses = 0;     ///< gangs closed by capacity
    std::uint64_t windowCloses = 0;   ///< gangs closed by the window

    void
    merge(const BatchStats &o)
    {
        gangs += o.gangs;
        gangedRequests += o.gangedRequests;
        fullCloses += o.fullCloses;
        windowCloses += o.windowCloses;
    }

    double
    meanGangSize() const
    {
        return gangs ? static_cast<double>(gangedRequests) /
                           static_cast<double>(gangs)
                     : 0.0;
    }
};

/**
 * Accumulates bulk-bitwise requests into TR gangs per alignment group.
 *
 * One batcher per channel; the engine feeds it admitted bulk-bitwise
 * requests in arrival order and collects closed gangs.
 */
class GangBatcher
{
  public:
    /**
     * @param max_members  operand rows per gang (TRD - 1)
     * @param window_cycles max wait of the oldest member; 0 batches
     *                      only what is simultaneously pending
     */
    GangBatcher(std::size_t max_members, std::uint64_t window_cycles);

    /**
     * Add @p req (arriving at @p req.arrival).  Returns the closed
     * gang if this member filled it, else an empty-member gang.  A new
     * gang's deadline is arrival + window, saturated: a deadline of
     * ~0ull closes only by capacity or the final flushDue(~0ull).
     */
    TrGang add(const ServiceRequest &req);

    /** Earliest window deadline among open gangs; ~0ull when none. */
    std::uint64_t nextDeadline() const;

    /**
     * Close and return every gang whose deadline is <= @p now, in
     * (bank, group) order, each ready at its deadline.
     */
    std::span<const TrGang> flushDue(std::uint64_t now);

    /**
     * Close and return the open gang bound to (@p bank, @p group); an
     * empty-member gang when none is open.  Used when the group's
     * circuit breaker opens mid-window: the gang was formed before the
     * failure and must leave the batcher before new admissions are
     * steered elsewhere.
     */
    TrGang flushGroup(std::uint32_t bank, std::uint32_t group,
                      std::uint64_t now);

    const BatchStats &stats() const { return stats_; }

    /** Requests currently held in open gangs. */
    std::uint64_t pending() const { return pending_; }

  private:
    /** One open gang: its members are pool_ block @c block. */
    struct OpenGang
    {
        std::uint64_t key = 0; ///< bank << 32 | group
        std::uint64_t deadline = 0;
        std::size_t block = 0;
        std::size_t count = 0;
    };

    /** First open gang whose key is not below @p key. */
    std::vector<OpenGang>::iterator lowerBound(std::uint64_t key);
    /** A free member block, growing the pool when none is free. */
    std::size_t openBlock();
    TrGang close(const OpenGang &g, bool full, std::uint64_t now);

    std::size_t maxMembers_;
    std::uint64_t windowCycles_;
    // Sorted by key, so flushes run in (bank, group) order at equal
    // deadlines.
    std::vector<OpenGang> open_;
    std::vector<ServiceRequest> pool_; ///< blocks of maxMembers_ slots
    std::vector<std::size_t> freeBlocks_;
    std::vector<TrGang> due_; ///< flushDue's result buffer
    std::uint64_t pending_ = 0;
    BatchStats stats_;
};

} // namespace coruscant

#endif // CORUSCANT_SERVICE_BATCHER_HPP
