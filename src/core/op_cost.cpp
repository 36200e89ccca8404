#include "core/op_cost.hpp"

namespace coruscant {

template <typename Op>
OpCost
CoruscantCostModel::measure(const char *name, std::size_t wires,
                            Op op) const
{
    DeviceParams p = DeviceParams::withTrd(trd_);
    p.wiresPerDbc = wires;
    CoruscantUnit unit(p);
    obs::ComponentMetrics m;
    unit.attachMetrics(&m);
    op(unit);
    OpCost cost{unit.ledger().cycles(), unit.ledger().energyPj(),
                m.prims()};
    if (registry_) {
        auto &c = registry_->component(std::string("opcost/") + name);
        c.addPrims(cost.prims);
        c.addEnergy(cost.energyPj);
    }
    return cost;
}

OpCost
CoruscantCostModel::add(std::size_t operands, std::size_t bits) const
{
    return measure("add", bits, [&](CoruscantUnit &unit) {
        std::vector<BitVector> ops(operands, BitVector(bits, true));
        unit.add(ops, bits, bits);
    });
}

OpCost
CoruscantCostModel::multiply(std::size_t bits, MulStrategy strategy) const
{
    return measure("multiply", 2 * bits, [&](CoruscantUnit &unit) {
        BitVector a = BitVector::fromUint64(2 * bits, (1ULL << bits) - 1);
        unit.multiply(a, a, bits, strategy, 2 * bits);
    });
}

OpCost
CoruscantCostModel::bulkBitwise(std::size_t operands) const
{
    return measure("bulk_bitwise", 512, [&](CoruscantUnit &unit) {
        std::vector<BitVector> ops(operands, BitVector(512, true));
        unit.bulkBitwise(BulkOp::And, ops);
    });
}

OpCost
CoruscantCostModel::reduce() const
{
    return measure("reduce", 512, [&](CoruscantUnit &unit) {
        std::vector<BitVector> rows(unit.params().csaInputs(),
                                    BitVector(512, true));
        unit.reduce(rows, 512);
    });
}

OpCost
CoruscantCostModel::max(std::size_t candidates, std::size_t bits,
                        bool use_tw) const
{
    return measure("max", bits, [&](CoruscantUnit &unit) {
        std::vector<BitVector> cands(candidates, BitVector(bits, true));
        unit.maxOfRows(cands, bits, bits, use_tw);
    });
}

OpCost
CoruscantCostModel::nmrVote(std::size_t n) const
{
    return measure("nmr_vote", 512, [&](CoruscantUnit &unit) {
        std::vector<BitVector> replicas(n, BitVector(512, true));
        unit.nmrVote(replicas);
    });
}

} // namespace coruscant
