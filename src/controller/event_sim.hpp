/**
 * @file
 * Discrete-event memory-channel simulator.
 *
 * A finer-grained companion to the closed-form runUniform(): each
 * request arrives at a cycle, needs command-bus slots to issue (the
 * shared per-channel bus serializes at one command per memory cycle),
 * and then occupies its bank for a service time.  Banks work in
 * parallel; the scheduler picks which pending request to issue next.
 *
 * Two policies:
 *  - InOrder: strict arrival order (head-of-line blocking when the
 *    next request's bank is busy);
 *  - BankReorder: FR-FCFS-lite — the oldest request whose bank can
 *    start earliest (the reordering real controllers and the paper's
 *    high-throughput mode rely on).
 *
 * Both policies issue through ChannelTimeline, the bus/bank kernel the
 * service engine's dispatch shares; they differ only in which pending
 * request they issue next.  Used by the scheduling ablation.  The
 * closed-form runUniform() stays a separate model: its bus runs ahead
 * of busy banks instead of stalling behind them, and polybench is
 * defined by it (the difference is pinned in
 * tests/test_queue_cross_check.cpp).
 */

#ifndef CORUSCANT_CONTROLLER_EVENT_SIM_HPP
#define CORUSCANT_CONTROLLER_EVENT_SIM_HPP

#include <cstdint>
#include <vector>

#include "util/stats.hpp"

namespace coruscant {

/** One memory/PIM request. */
struct SimRequest
{
    std::uint64_t arrival = 0;     ///< cycle the request enters the queue
    std::size_t bank = 0;          ///< executing bank
    std::uint32_t issueCmds = 1;   ///< command-bus cycles to launch
    std::uint32_t serviceCycles = 0; ///< bank occupancy after issue
};

/** Scheduling policy. */
enum class SchedulePolicy
{
    InOrder,
    BankReorder,
};

/** Aggregate results of one simulation. */
struct SimStats
{
    std::uint64_t makespan = 0;      ///< last completion cycle
    double busUtilization = 0.0;     ///< issued cmds / makespan
    double bankUtilization = 0.0;    ///< busy cycles / (makespan*banks)
    std::uint64_t requests = 0;
    LatencyHistogram latency;        ///< completion - arrival, per request
};

/** Event-driven channel simulation. */
class EventSimulator
{
  public:
    explicit EventSimulator(std::size_t banks)
        : numBanks(banks)
    {}

    /**
     * Run @p requests (any order; sorted internally by arrival) under
     * @p policy.
     */
    SimStats run(std::vector<SimRequest> requests,
                 SchedulePolicy policy) const;

  private:
    std::size_t numBanks;
};

} // namespace coruscant

#endif // CORUSCANT_CONTROLLER_EVENT_SIM_HPP
