/**
 * @file
 * The std::map gang batcher: the reference GangBatcher
 * (service/batcher) is checked against.  Each open gang is a map node
 * owning its own member vector, and every result is returned by value.
 */

#ifndef CORUSCANT_ORACLE_MAP_BATCHER_HPP
#define CORUSCANT_ORACLE_MAP_BATCHER_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "service/batcher.hpp"

namespace coruscant {

/** A closed gang that owns its members. */
struct OracleGang
{
    std::uint32_t bank = 0;
    std::uint32_t dbcGroup = 0;
    std::uint64_t readyAt = 0;
    std::vector<ServiceRequest> members;
};

/** GangBatcher's contract, one map node per open gang. */
class MapGangBatcher
{
  public:
    MapGangBatcher(std::size_t max_members, std::uint64_t window_cycles);

    OracleGang add(const ServiceRequest &req);
    std::uint64_t nextDeadline() const;
    std::vector<OracleGang> flushDue(std::uint64_t now);
    OracleGang flushGroup(std::uint32_t bank, std::uint32_t group,
                          std::uint64_t now);

    const BatchStats &stats() const { return stats_; }
    std::uint64_t pending() const { return pending_; }

  private:
    struct OpenGang
    {
        std::uint64_t deadline = 0;
        std::vector<ServiceRequest> members;
    };

    OracleGang close(std::uint64_t key, OpenGang &&open, bool full,
                     std::uint64_t now);

    std::size_t maxMembers_;
    std::uint64_t windowCycles_;
    // std::map keeps deterministic iteration order (flushes happen in
    // (bank, group) key order at equal deadlines).
    std::map<std::uint64_t, OpenGang> open_;
    std::uint64_t pending_ = 0;
    BatchStats stats_;
};

} // namespace coruscant

#endif // CORUSCANT_ORACLE_MAP_BATCHER_HPP
