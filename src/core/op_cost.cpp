#include "core/op_cost.hpp"

#include <algorithm>

namespace coruscant {

namespace {

/** Key field 0: which operation the remaining fields parameterize. */
enum OpKind : std::uint64_t
{
    kAdd = 1,
    kMultiply,
    kBulkBitwise,
    kReduce,
    kMax,
    kNmrVote,
};

DeviceParams
paramsFor(std::size_t trd, std::size_t wires)
{
    DeviceParams p = DeviceParams::withTrd(trd);
    p.wiresPerDbc = wires;
    return p;
}

/** Ledger totals plus the primitive counts the run accumulated. */
OpCost
fromRun(const CoruscantUnit &unit, const obs::ComponentMetrics &m)
{
    return {unit.ledger().cycles(), unit.ledger().energyPj(), m.prims()};
}

} // namespace

CoruscantCostModel::CoruscantCostModel(const CoruscantCostModel &o)
    : trd_(o.trd_)
{
    std::lock_guard<std::mutex> lock(o.mutex_);
    cache_ = o.cache_;
    measurements_ = o.measurements_;
    cacheHits_ = o.cacheHits_;
    registry_ = o.registry_;
}

CoruscantCostModel &
CoruscantCostModel::operator=(const CoruscantCostModel &o)
{
    if (this == &o)
        return *this;
    std::scoped_lock lock(mutex_, o.mutex_);
    trd_ = o.trd_;
    cache_ = o.cache_;
    measurements_ = o.measurements_;
    cacheHits_ = o.cacheHits_;
    registry_ = o.registry_;
    return *this;
}

std::uint64_t
CoruscantCostModel::measurements() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return measurements_;
}

std::uint64_t
CoruscantCostModel::cacheHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cacheHits_;
}

OpCost
CoruscantCostModel::lookup(const Key &key, const char *name,
                           const std::function<OpCost()> &measure) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        ++cacheHits_;
        return it->second;
    }
    OpCost cost = measure();
    ++measurements_;
    if (registry_) {
        auto &c = registry_->component(std::string("opcost/") + name);
        c.addPrims(cost.prims);
        c.addEnergy(cost.energyPj);
    }
    cache_.emplace(key, cost);
    return cost;
}

OpCost
CoruscantCostModel::add(std::size_t operands, std::size_t bits) const
{
    return lookup({kAdd, operands, bits, 0}, "add", [&] {
        CoruscantUnit unit(paramsFor(trd_, bits));
        obs::ComponentMetrics m;
        unit.attachMetrics(&m);
        std::vector<BitVector> ops(operands, BitVector(bits, true));
        unit.add(ops, bits, bits);
        return fromRun(unit, m);
    });
}

OpCost
CoruscantCostModel::multiply(std::size_t bits, MulStrategy strategy) const
{
    return lookup(
        {kMultiply, bits, static_cast<std::uint64_t>(strategy), 0},
        "multiply", [&] {
            CoruscantUnit unit(paramsFor(trd_, 2 * bits));
            obs::ComponentMetrics m;
            unit.attachMetrics(&m);
            BitVector a =
                BitVector::fromUint64(2 * bits, (1ULL << bits) - 1);
            BitVector b = a;
            unit.multiply(a, b, bits, strategy, 2 * bits);
            return fromRun(unit, m);
        });
}

OpCost
CoruscantCostModel::bulkBitwise(std::size_t operands) const
{
    return lookup({kBulkBitwise, operands, 0, 0}, "bulk_bitwise", [&] {
        CoruscantUnit unit(paramsFor(trd_, 512));
        obs::ComponentMetrics m;
        unit.attachMetrics(&m);
        std::vector<BitVector> ops(operands, BitVector(512, true));
        unit.bulkBitwise(BulkOp::And, ops);
        return fromRun(unit, m);
    });
}

OpCost
CoruscantCostModel::reduce() const
{
    return lookup({kReduce, 0, 0, 0}, "reduce", [&] {
        CoruscantUnit unit(paramsFor(trd_, 512));
        obs::ComponentMetrics m;
        unit.attachMetrics(&m);
        // Without the super-carry output (TRD < 5) the unit reduces at
        // most 3 rows (3->2).
        std::size_t n = trd_ >= 5 ? trd_ : std::min<std::size_t>(trd_, 3);
        std::vector<BitVector> rows(n, BitVector(512, true));
        unit.reduce(rows, 512);
        return fromRun(unit, m);
    });
}

OpCost
CoruscantCostModel::max(std::size_t candidates, std::size_t bits,
                        bool use_tw) const
{
    return lookup(
        {kMax, candidates, bits, use_tw ? 1u : 0u}, "max", [&] {
            CoruscantUnit unit(paramsFor(trd_, bits));
            obs::ComponentMetrics m;
            unit.attachMetrics(&m);
            std::vector<BitVector> cands(candidates,
                                         BitVector(bits, true));
            unit.maxOfRows(cands, bits, bits, use_tw);
            return fromRun(unit, m);
        });
}

OpCost
CoruscantCostModel::nmrVote(std::size_t n) const
{
    return lookup({kNmrVote, n, 0, 0}, "nmr_vote", [&] {
        CoruscantUnit unit(paramsFor(trd_, 512));
        obs::ComponentMetrics m;
        unit.attachMetrics(&m);
        std::vector<BitVector> replicas(n, BitVector(512, true));
        unit.nmrVote(replicas);
        return fromRun(unit, m);
    });
}

} // namespace coruscant
