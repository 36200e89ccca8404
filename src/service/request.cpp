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
    fatalIf(trd < 2, "service cost table needs TRD >= 2");
    ServiceCostTable t;
    t.trd_ = trd;
    CoruscantCostModel cost(trd);

    // Plain line traffic: paper Table II DWM timing with an average
    // shift distance of a quarter of the wire (random row targets).
    const DdrTiming dwm = DdrTiming::dwm();
    const unsigned avg_shift = DeviceParams::domainsPerWire / 4;
    t.readLine_ = {1, dwm.readCycles(avg_shift),
                   DeviceParams::readEnergyPj * 512};
    t.writeLine_ = {1, dwm.writeCycles(avg_shift),
                    DeviceParams::writeEnergyPj * 512};
    t.readPrims_ = {avg_shift, 0, 0, 1, 0};
    t.writePrims_ = {avg_shift, 0, 0, 0, 1};

    // A k-member gang folds k operand rows plus the accumulator row
    // into one (k+1)-operand bulk op; one cpim command issues it.
    t.gang_.resize(trd - 1);
    t.gangPrims_.resize(trd - 1);
    for (std::size_t k = 1; k + 1 <= trd; ++k) {
        OpCost c = cost.bulkBitwise(k + 1);
        t.gang_[k - 1] = {1, static_cast<std::uint32_t>(c.cycles),
                          c.energyPj};
        t.gangPrims_[k - 1] = c.prims;
    }

    std::size_t max_add = cost.maxAddOperands();
    t.addByOperands_.resize(max_add);
    t.addPrims_.resize(max_add);
    t.addByOperands_[0] = {1, 0, 0.0}; // 1-operand add never issued
    for (std::size_t m = 2; m <= max_add; ++m) {
        OpCost c = cost.add(m, 8);
        t.addByOperands_[m - 1] = {1,
                                   static_cast<std::uint32_t>(c.cycles),
                                   c.energyPj};
        t.addPrims_[m - 1] = c.prims;
    }

    OpCost red = cost.reduce();
    t.reduce_ = {1, static_cast<std::uint32_t>(red.cycles),
                 red.energyPj};
    t.reducePrims_ = red.prims;

    // One MAC lane = an 8-bit multiply plus the accumulate add; each
    // lane is its own cpim instruction on the command bus.
    OpCost mul = cost.multiply(8);
    OpCost acc = cost.add(2, 8);
    t.macPrims_ = {mul.prims.shifts + acc.prims.shifts,
                   mul.prims.trPulses + acc.prims.trPulses,
                   mul.prims.twPulses + acc.prims.twPulses,
                   mul.prims.reads + acc.prims.reads,
                   mul.prims.writes + acc.prims.writes};
    t.macLane_ = {2, static_cast<std::uint32_t>(mul.cycles + acc.cycles),
                  mul.energyPj + acc.energyPj};
    return t;
}

RequestCost
ServiceCostTable::cost(const ServiceRequest &req) const
{
    std::uint32_t n = req.size ? req.size : 1;
    switch (req.cls) {
    case RequestClass::Read:
        return {readLine_.issueCmds * n, readLine_.serviceCycles * n,
                readLine_.energyPj * n};
    case RequestClass::Write:
        return {writeLine_.issueCmds * n, writeLine_.serviceCycles * n,
                writeLine_.energyPj * n};
    case RequestClass::BulkBitwise:
        return gangCost(1); // alone, a request is a 2-operand fold
    case RequestClass::MultiOpAdd:
        return addCost(n);
    case RequestClass::Reduce:
        return reduce_;
    case RequestClass::MacTile:
        return {macLane_.issueCmds * n, macLane_.serviceCycles * n,
                macLane_.energyPj * n};
    }
    fatal("unknown request class");
}

RequestCost
ServiceCostTable::gangCost(std::size_t members) const
{
    fatalIf(members == 0 || members > gang_.size(),
            "gang size out of range");
    return gang_[members - 1];
}

RequestCost
ServiceCostTable::addCost(std::size_t operands) const
{
    fatalIf(operands < 2 || operands > addByOperands_.size(),
            "add operand count out of range");
    return addByOperands_[operands - 1];
}

obs::PrimCounts
ServiceCostTable::prims(const ServiceRequest &req) const
{
    std::uint32_t n = req.size ? req.size : 1;
    switch (req.cls) {
    case RequestClass::Read:
        return readPrims_.scaled(n);
    case RequestClass::Write:
        return writePrims_.scaled(n);
    case RequestClass::BulkBitwise:
        return gangPrims(1); // alone, a request is a 2-operand fold
    case RequestClass::MultiOpAdd:
        fatalIf(n < 2 || n > addPrims_.size(),
                "add operand count out of range");
        return addPrims_[n - 1];
    case RequestClass::Reduce:
        return reducePrims_;
    case RequestClass::MacTile:
        return macPrims_.scaled(n);
    }
    fatal("unknown request class");
}

obs::PrimCounts
ServiceCostTable::gangPrims(std::size_t members) const
{
    fatalIf(members == 0 || members > gangPrims_.size(),
            "gang size out of range");
    return gangPrims_[members - 1];
}

} // namespace coruscant
