#include "oracle/greedy_queue.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace coruscant {

QueueResult
runGreedy(std::size_t num_servers, const std::vector<QueueItem> &items)
{
    std::vector<std::uint64_t> servers(num_servers, 0); // next-free time
    QueueResult res;
    std::uint64_t issue_clock = 0;
    for (const auto &item : items) {
        panicIf(item.server >= servers.size(), "server out of range");
        issue_clock += item.issueCmds;
        res.issueCycles += item.issueCmds;
        std::uint64_t start = std::max(issue_clock,
                                       servers[item.server]);
        std::uint64_t end = start + item.busyCycles;
        servers[item.server] = end;
        res.busyCycles += item.busyCycles;
        res.makespanCycles = std::max(res.makespanCycles, end);
    }
    if (res.makespanCycles > 0) {
        res.issueBoundFraction =
            static_cast<double>(
                std::min(res.issueCycles, res.makespanCycles)) /
            static_cast<double>(res.makespanCycles);
    }
    return res;
}

} // namespace coruscant
