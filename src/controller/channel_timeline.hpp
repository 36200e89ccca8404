/**
 * @file
 * In-order bus/bank timeline of one memory channel, the timing kernel
 * EventSimulator and the service engine both issue through.  One bus
 * issues one command per cycle; banks work in parallel.  A unit starts
 * once it has arrived, the bus is free and its bank is free, then holds
 * the bus for its commands and the bank for those plus its service.
 * Utilization accumulates as units issue: nobody replays a log.
 */

#ifndef CORUSCANT_CONTROLLER_CHANNEL_TIMELINE_HPP
#define CORUSCANT_CONTROLLER_CHANNEL_TIMELINE_HPP

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace coruscant {

class ChannelTimeline
{
  public:
    explicit ChannelTimeline(std::size_t banks) : bankFree_(banks, 0) {}

    std::uint64_t
    startFor(std::uint64_t arrival, std::size_t bank) const
    {
        return std::max({arrival, busFree_, bankFree_[bank]});
    }

    /** Issue a unit at its earliest start; returns {start, completion}. */
    std::pair<std::uint64_t, std::uint64_t>
    issue(std::uint64_t arrival, std::size_t bank, std::uint32_t cmds,
          std::uint64_t service)
    {
        std::uint64_t start = startFor(arrival, bank);
        busFree_ = start + cmds;
        bankFree_[bank] = start + cmds + service;
        issuedCmds_ += cmds;
        busyCycles_ += service;
        makespan_ = std::max(makespan_, bankFree_[bank]);
        return {start, bankFree_[bank]};
    }

    std::uint64_t makespan() const { return makespan_; }

    /** Issued commands per makespan cycle. */
    double
    busUtilization() const
    {
        return makespan_ ? static_cast<double>(issuedCmds_) /
                               static_cast<double>(makespan_)
                         : 0.0;
    }

    /** Bank service cycles per (makespan x banks). */
    double
    bankUtilization() const
    {
        return makespan_ ? static_cast<double>(busyCycles_) /
                               (static_cast<double>(makespan_) *
                                static_cast<double>(bankFree_.size()))
                         : 0.0;
    }

  private:
    std::uint64_t busFree_ = 0;
    std::vector<std::uint64_t> bankFree_;
    std::uint64_t issuedCmds_ = 0, busyCycles_ = 0, makespan_ = 0;
};

} // namespace coruscant

#endif // CORUSCANT_CONTROLLER_CHANNEL_TIMELINE_HPP
