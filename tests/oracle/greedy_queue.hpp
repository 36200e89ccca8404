/**
 * @file
 * Greedy in-order dispatch over explicit queue items: the reference
 * the closed-form runUniform() (controller/queue_model) and the
 * discrete-event EventSimulator are checked against.
 */

#ifndef CORUSCANT_ORACLE_GREEDY_QUEUE_HPP
#define CORUSCANT_ORACLE_GREEDY_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "controller/queue_model.hpp"

namespace coruscant {

/** One unit of work bound to a specific server (bank or subarray). */
struct QueueItem
{
    std::size_t server;       ///< executing bank/subarray id
    std::uint64_t busyCycles; ///< how long the server is occupied
    std::uint64_t issueCmds;  ///< command-bus cycles to launch it
};

/**
 * Dispatch @p items in order over @p servers: each is issued in
 * sequence over the command bus and starts on its server once both
 * the bus has issued it and the server is free.
 */
QueueResult runGreedy(std::size_t servers,
                      const std::vector<QueueItem> &items);

} // namespace coruscant

#endif // CORUSCANT_ORACLE_GREEDY_QUEUE_HPP
