#include "controller/queue_model.hpp"

#include <algorithm>

namespace coruscant {

QueueResult
runUniform(std::size_t servers, std::uint64_t count,
           std::uint64_t busy_cycles, std::uint64_t issue_cmds)
{
    QueueResult res;
    if (count == 0)
        return res;
    res.issueCycles = count * issue_cmds;
    res.busyCycles = count * busy_cycles;
    // Round-robin: item i goes to server i % n.  Each server's items
    // are spaced n*issue_cmds apart on the bus; if that spacing covers
    // busy_cycles, the schedule is purely issue-bound, else each
    // server serializes its own items.
    std::uint64_t per_server = (count + servers - 1) / servers;
    std::uint64_t issue_bound = count * issue_cmds + busy_cycles;
    std::uint64_t server_bound =
        std::min<std::uint64_t>(count, servers) * issue_cmds +
        per_server * busy_cycles;
    res.makespanCycles = std::max(issue_bound, server_bound);
    res.issueBoundFraction =
        static_cast<double>(
            std::min(res.issueCycles, res.makespanCycles)) /
        static_cast<double>(res.makespanCycles);
    return res;
}

} // namespace coruscant
