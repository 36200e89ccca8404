#include "service/batcher.hpp"

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

GangBatcher::GangBatcher(std::size_t max_members,
                         std::uint64_t window_cycles)
    : maxMembers_(max_members), windowCycles_(window_cycles)
{
    fatalIf(max_members == 0, "a gang needs at least one member");
}

std::vector<GangBatcher::OpenGang>::iterator
GangBatcher::lowerBound(std::uint64_t key)
{
    return std::lower_bound(
        open_.begin(), open_.end(), key,
        [](const OpenGang &g, std::uint64_t k) { return g.key < k; });
}

std::size_t
GangBatcher::openBlock()
{
    if (freeBlocks_.empty()) {
        pool_.resize(pool_.size() + maxMembers_);
        return pool_.size() / maxMembers_ - 1;
    }
    std::size_t block = freeBlocks_.back();
    freeBlocks_.pop_back();
    return block;
}

TrGang
GangBatcher::close(const OpenGang &g, bool full, std::uint64_t now)
{
    TrGang out;
    out.bank = static_cast<std::uint32_t>(g.key >> 32);
    out.dbcGroup = static_cast<std::uint32_t>(g.key & 0xffffffffu);
    out.readyAt = now;
    out.members = {pool_.data() + g.block * maxMembers_, g.count};
    freeBlocks_.push_back(g.block);
    pending_ -= g.count;
    stats_.gangs += 1;
    stats_.gangedRequests += g.count;
    if (full)
        stats_.fullCloses += 1;
    else
        stats_.windowCloses += 1;
    return out;
}

TrGang
GangBatcher::add(const ServiceRequest &req)
{
    fatalIf(req.cls != RequestClass::BulkBitwise,
            "only bulk-bitwise requests gang");
    const std::uint64_t key = groupKey(req.bank, req.dbcGroup);
    auto it = lowerBound(key);
    if (it == open_.end() || it->key != key)
        it = open_.insert(it, {key, satAddCycles(req.arrival, windowCycles_),
                               openBlock(), 0});
    pool_[it->block * maxMembers_ + it->count] = req;
    ++it->count;
    ++pending_;
    if (it->count < maxMembers_)
        return {};
    OpenGang g = *it;
    open_.erase(it);
    return close(g, true, req.arrival);
}

std::uint64_t
GangBatcher::nextDeadline() const
{
    std::uint64_t best = kNeverCycle;
    for (const OpenGang &g : open_)
        best = std::min(best, g.deadline);
    return best;
}

std::span<const TrGang>
GangBatcher::flushDue(std::uint64_t now)
{
    due_.clear();
    auto kept = open_.begin();
    for (const OpenGang &g : open_) {
        if (g.deadline <= now)
            due_.push_back(close(g, false, g.deadline));
        else
            *kept++ = g;
    }
    open_.erase(kept, open_.end());
    return due_;
}

TrGang
GangBatcher::flushGroup(std::uint32_t bank, std::uint32_t group,
                        std::uint64_t now)
{
    const std::uint64_t key = groupKey(bank, group);
    auto it = lowerBound(key);
    if (it == open_.end() || it->key != key)
        return {};
    OpenGang g = *it;
    open_.erase(it);
    return close(g, false, now);
}

} // namespace coruscant
