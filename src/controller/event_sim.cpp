#include "controller/event_sim.hpp"

#include <algorithm>
#include <deque>

#include "controller/channel_timeline.hpp"
#include "util/logging.hpp"

namespace coruscant {

SimStats
EventSimulator::run(std::vector<SimRequest> requests,
                    SchedulePolicy policy) const
{
    SimStats stats;
    stats.requests = requests.size();
    if (requests.empty())
        return stats;

    std::stable_sort(requests.begin(), requests.end(),
                     [](const SimRequest &a, const SimRequest &b) {
                         return a.arrival < b.arrival;
                     });
    for (const auto &r : requests)
        fatalIf(r.bank >= numBanks, "bank out of range");

    ChannelTimeline timeline(numBanks);
    auto dispatch = [&](const SimRequest &r) {
        std::uint64_t completion =
            timeline.issue(r.arrival, r.bank, r.issueCmds, r.serviceCycles)
                .second;
        stats.latency.record(completion - r.arrival);
    };

    if (policy == SchedulePolicy::InOrder) {
        for (const auto &r : requests)
            dispatch(r);
    } else {
        // Per-bank FIFOs preserve intra-bank order; across banks the
        // scheduler picks the request that can start earliest (oldest
        // arrival breaking ties).
        std::vector<std::deque<SimRequest>> queues(numBanks);
        for (const auto &r : requests)
            queues[r.bank].push_back(r);
        std::size_t remaining = requests.size();
        while (remaining > 0) {
            std::size_t best = numBanks;
            std::uint64_t best_start = ~0ull;
            std::uint64_t best_arrival = ~0ull;
            for (std::size_t b = 0; b < numBanks; ++b) {
                if (queues[b].empty())
                    continue;
                const auto &head = queues[b].front();
                std::uint64_t s = timeline.startFor(head.arrival, b);
                if (s < best_start ||
                    (s == best_start && head.arrival < best_arrival)) {
                    best = b;
                    best_start = s;
                    best_arrival = head.arrival;
                }
            }
            dispatch(queues[best].front());
            queues[best].pop_front();
            --remaining;
        }
    }

    stats.makespan = timeline.makespan();
    stats.busUtilization = timeline.busUtilization();
    stats.bankUtilization = timeline.bankUtilization();
    return stats;
}

} // namespace coruscant
