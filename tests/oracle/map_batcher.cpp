#include "oracle/map_batcher.hpp"

#include <algorithm>

#include "util/cycles.hpp"
#include "util/logging.hpp"

namespace coruscant {

namespace {

std::uint64_t
groupKey(std::uint32_t bank, std::uint32_t group)
{
    return (static_cast<std::uint64_t>(bank) << 32) | group;
}

} // namespace

MapGangBatcher::MapGangBatcher(std::size_t max_members,
                               std::uint64_t window_cycles)
    : maxMembers_(max_members), windowCycles_(window_cycles)
{
    fatalIf(max_members == 0, "a gang needs at least one member");
}

OracleGang
MapGangBatcher::close(std::uint64_t key, OpenGang &&open, bool full,
                      std::uint64_t now)
{
    OracleGang g;
    g.bank = static_cast<std::uint32_t>(key >> 32);
    g.dbcGroup = static_cast<std::uint32_t>(key & 0xffffffffu);
    g.readyAt = now;
    g.members = std::move(open.members);
    pending_ -= g.members.size();
    stats_.gangs += 1;
    stats_.gangedRequests += g.members.size();
    if (full)
        stats_.fullCloses += 1;
    else
        stats_.windowCloses += 1;
    return g;
}

OracleGang
MapGangBatcher::add(const ServiceRequest &req)
{
    fatalIf(req.cls != RequestClass::BulkBitwise,
            "only bulk-bitwise requests gang");
    std::uint64_t key = groupKey(req.bank, req.dbcGroup);
    auto [it, inserted] = open_.try_emplace(key);
    if (inserted)
        it->second.deadline = satAddCycles(req.arrival, windowCycles_);
    it->second.members.push_back(req);
    ++pending_;
    if (it->second.members.size() >= maxMembers_) {
        OpenGang g = std::move(it->second);
        open_.erase(it);
        return close(key, std::move(g), true, req.arrival);
    }
    return {};
}

std::uint64_t
MapGangBatcher::nextDeadline() const
{
    std::uint64_t best = ~0ull;
    for (const auto &[key, g] : open_)
        best = std::min(best, g.deadline);
    return best;
}

std::vector<OracleGang>
MapGangBatcher::flushDue(std::uint64_t now)
{
    std::vector<OracleGang> out;
    for (auto it = open_.begin(); it != open_.end();) {
        if (it->second.deadline <= now) {
            std::uint64_t key = it->first;
            std::uint64_t deadline = it->second.deadline;
            OpenGang g = std::move(it->second);
            it = open_.erase(it);
            out.push_back(close(key, std::move(g), false, deadline));
        } else {
            ++it;
        }
    }
    return out;
}

OracleGang
MapGangBatcher::flushGroup(std::uint32_t bank, std::uint32_t group,
                           std::uint64_t now)
{
    auto it = open_.find(groupKey(bank, group));
    if (it == open_.end())
        return {};
    std::uint64_t key = it->first;
    OpenGang g = std::move(it->second);
    open_.erase(it);
    return close(key, std::move(g), false, now);
}

} // namespace coruscant
