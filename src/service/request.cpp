#include "service/request.hpp"

#include "arch/timing.hpp"
#include "core/op_cost.hpp"
#include "dwm/device_params.hpp"
#include "util/logging.hpp"

namespace coruscant {

const char *
requestClassName(RequestClass cls)
{
    switch (cls) {
    case RequestClass::Read:
        return "read";
    case RequestClass::Write:
        return "write";
    case RequestClass::BulkBitwise:
        return "bulk";
    case RequestClass::MultiOpAdd:
        return "add";
    case RequestClass::Reduce:
        return "reduce";
    case RequestClass::MacTile:
        return "mac";
    }
    return "?";
}

ServiceCostTable
ServiceCostTable::build(std::size_t trd)
{
    ServiceCostTable t;
    t.trd_ = trd;
    CoruscantCostModel cost(trd);
    // One command issues a measured operation.
    auto measured = [](const OpCost &c) {
        return Entry{{1, static_cast<std::uint32_t>(c.cycles), c.energyPj},
                     c.prims};
    };

    // Plain line traffic: paper Table II DWM timing with an average
    // shift distance of a quarter of the wire (random row targets).
    const DdrTiming dwm = DdrTiming::dwm();
    const unsigned avg_shift = DeviceParams::domainsPerWire / 4;
    t.readLine_ = {{1, dwm.readCycles(avg_shift),
                    DeviceParams::readEnergyPj * 512},
                   {avg_shift, 0, 0, 1, 0}};
    t.writeLine_ = {{1, dwm.writeCycles(avg_shift),
                     DeviceParams::writeEnergyPj * 512},
                    {avg_shift, 0, 0, 0, 1}};

    // A k-member gang folds k operand rows plus the accumulator row
    // into one (k+1)-operand bulk op; one cpim command issues it.
    for (std::size_t k = 1; k + 1 <= trd; ++k)
        t.gang_.push_back(measured(cost.bulkBitwise(k + 1)));

    // A 1-operand add is never issued.  The two-operand add is also
    // the MAC lane's accumulate.
    const OpCost acc = cost.add(2, 8);
    t.addByOperands_.push_back({{1, 0, 0.0}, {}});
    t.addByOperands_.push_back(measured(acc));
    for (std::size_t m = 3; m <= cost.maxAddOperands(); ++m)
        t.addByOperands_.push_back(measured(cost.add(m, 8)));

    t.reduce_ = measured(cost.reduce());

    // One MAC lane = an 8-bit multiply plus the accumulate add; each
    // lane is its own cpim instruction on the command bus.
    OpCost mul = cost.multiply(8);
    t.macLane_ = {{2, static_cast<std::uint32_t>(mul.cycles + acc.cycles),
                   mul.energyPj + acc.energyPj},
                  {mul.prims.shifts + acc.prims.shifts,
                   mul.prims.trPulses + acc.prims.trPulses,
                   mul.prims.twPulses + acc.prims.twPulses,
                   mul.prims.reads + acc.prims.reads,
                   mul.prims.writes + acc.prims.writes}};
    return t;
}

ServiceCostTable::Scaled
ServiceCostTable::lookup(RequestClass cls, std::size_t n) const
{
    // A repeating class takes n from a request's 32-bit size.
    const auto times = static_cast<std::uint32_t>(n);
    switch (cls) {
    case RequestClass::Read:
        return {readLine_, times};
    case RequestClass::Write:
        return {writeLine_, times};
    case RequestClass::BulkBitwise:
        fatalIf(n == 0 || n > gang_.size(), "gang size out of range");
        return {gang_[n - 1], 1};
    case RequestClass::MultiOpAdd:
        fatalIf(n < 2 || n > addByOperands_.size(),
                "add operand count out of range");
        return {addByOperands_[n - 1], 1};
    case RequestClass::Reduce:
        return {reduce_, 1};
    case RequestClass::MacTile:
        return {macLane_, times};
    }
    fatal("unknown request class");
}

std::uint32_t
ServiceCostTable::sizeOf(const ServiceRequest &req)
{
    // Alone, a bulk request is a one-member gang (a 2-operand fold).
    if (req.cls == RequestClass::BulkBitwise)
        return 1;
    return req.size ? req.size : 1;
}

RequestCost
ServiceCostTable::cost(const ServiceRequest &req) const
{
    auto [e, n] = lookup(req.cls, sizeOf(req));
    return {e.cost.issueCmds * n, e.cost.serviceCycles * n,
            e.cost.energyPj * n};
}

RequestCost
ServiceCostTable::gangCost(std::size_t members) const
{
    return lookup(RequestClass::BulkBitwise, members).entry.cost;
}

RequestCost
ServiceCostTable::addCost(std::size_t operands) const
{
    return lookup(RequestClass::MultiOpAdd, operands).entry.cost;
}

obs::PrimCounts
ServiceCostTable::prims(const ServiceRequest &req) const
{
    auto [e, n] = lookup(req.cls, sizeOf(req));
    return e.prims.scaled(n);
}

obs::PrimCounts
ServiceCostTable::gangPrims(std::size_t members) const
{
    return lookup(RequestClass::BulkBitwise, members).entry.prims;
}

} // namespace coruscant
