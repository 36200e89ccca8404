/**
 * @file
 * Command-issue / bank-occupancy queueing model.
 *
 * System-level experiments (Polybench) are makespan problems: a single
 * per-channel command bus issues commands in order at one per memory
 * cycle, while banks/subarrays execute their operations concurrently.
 * The paper's "high throughput mode" dispatches instructions to the
 * ranks consecutively, circularly (Sec. V-C); with thousands of
 * subarrays, the command bus is the usual bottleneck and execution
 * overlaps behind it — the queuing delay the paper reports as ~80% of
 * PIM runtime.
 */

#ifndef CORUSCANT_CONTROLLER_QUEUE_MODEL_HPP
#define CORUSCANT_CONTROLLER_QUEUE_MODEL_HPP

#include <cstddef>
#include <cstdint>

namespace coruscant {

/** Result of a makespan computation. */
struct QueueResult
{
    std::uint64_t makespanCycles = 0;
    std::uint64_t issueCycles = 0;   ///< total command-bus occupancy
    std::uint64_t busyCycles = 0;    ///< summed server occupancy
    double issueBoundFraction = 0.0; ///< share of makespan spent
                                     ///< issue-limited (queuing delay)
};

/**
 * Closed-form makespan of @p count identical items round-robined over
 * @p servers, each issued in order over the command bus and started on
 * its server once both the bus has issued it and the server is free
 * (the bulk-dispatch case; avoids materializing millions of items).
 */
QueueResult runUniform(std::size_t servers, std::uint64_t count,
                       std::uint64_t busy_cycles, std::uint64_t issue_cmds);

} // namespace coruscant

#endif // CORUSCANT_CONTROLLER_QUEUE_MODEL_HPP
