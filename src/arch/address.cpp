#include "arch/config.hpp"

#include <ios>

#include "util/logging.hpp"

namespace coruscant {

const char *
guardPolicyName(GuardPolicy policy)
{
    switch (policy) {
      case GuardPolicy::None: return "none";
      case GuardPolicy::PerAccess: return "per-access";
      case GuardPolicy::PerCpim: return "per-cpim";
      case GuardPolicy::PeriodicScrub: return "periodic-scrub";
    }
    return "?";
}

const char *
eccModeName(EccMode mode)
{
    return enumTokens(mode)[static_cast<std::size_t>(mode)];
}

RetryLadder::RetryLadder(std::size_t max_retries,
                         std::uint64_t backoff_cycles)
    : maxRetries_(max_retries), backoffCycles_(backoff_cycles)
{
    fatalIf(max_retries > kMaxRetries ||
                backoff_cycles > kMaxRetryBackoffCycles,
            "retry ladder out of range (maxRetries <= 16, "
            "retryBackoffCycles <= 2^32)");
}

void
checkPimNmr(std::size_t n, std::size_t trd)
{
    if (n != 1)
        DeviceParams::checkVote(n, trd);
}

LineAddress
AddressMap::decode(std::uint64_t byte_addr) const
{
    fatalIf(byte_addr >= config.capacityBytes(), "address 0x", std::hex,
            byte_addr, " beyond capacity");
    std::uint64_t line = byte_addr / config.rowBytes();
    LineAddress loc;
    if (config.interleave == Interleave::BankFirst) {
        loc.bank = line % config.banks;
        line /= config.banks;
        loc.subarray = line % config.subarraysPerBank;
        line /= config.subarraysPerBank;
        loc.tile = line % config.tilesPerSubarray;
        line /= config.tilesPerSubarray;
        loc.dbc = line % config.dbcsPerTile;
        line /= config.dbcsPerTile;
        loc.row = line;
    } else { // RowFirst
        loc.row = line % config.device.domainsPerWire;
        line /= config.device.domainsPerWire;
        loc.dbc = line % config.dbcsPerTile;
        line /= config.dbcsPerTile;
        loc.tile = line % config.tilesPerSubarray;
        line /= config.tilesPerSubarray;
        loc.subarray = line % config.subarraysPerBank;
        line /= config.subarraysPerBank;
        loc.bank = line;
        panicIf(loc.bank >= config.banks, "bank decode out of range");
    }
    panicIf(loc.row >= config.device.domainsPerWire,
            "row decode out of range");
    return loc;
}

std::uint64_t
AddressMap::encode(const LineAddress &loc) const
{
    std::uint64_t line;
    if (config.interleave == Interleave::BankFirst) {
        line = loc.row;
        line = line * config.dbcsPerTile + loc.dbc;
        line = line * config.tilesPerSubarray + loc.tile;
        line = line * config.subarraysPerBank + loc.subarray;
        line = line * config.banks + loc.bank;
    } else {
        line = loc.bank;
        line = line * config.subarraysPerBank + loc.subarray;
        line = line * config.tilesPerSubarray + loc.tile;
        line = line * config.dbcsPerTile + loc.dbc;
        line = line * config.device.domainsPerWire + loc.row;
    }
    return line * config.rowBytes();
}

std::uint64_t
AddressMap::dbcId(const LineAddress &loc) const
{
    std::uint64_t id = loc.bank;
    id = id * config.subarraysPerBank + loc.subarray;
    id = id * config.tilesPerSubarray + loc.tile;
    id = id * config.dbcsPerTile + loc.dbc;
    return id;
}

} // namespace coruscant
