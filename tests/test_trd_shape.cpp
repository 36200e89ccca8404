/**
 * @file
 * The TRD-dependent adder and carry-save shape: the models that read
 * it keep every output bit, and the unit honours it at every TRD.
 */

#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "apps/cnn/throughput_model.hpp"
#include "core/op_cost.hpp"
#include "dwm/area_model.hpp"
#include "dwm/dbc.hpp"
#include "reliability/error_model.hpp"
#include "service/service_engine.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

/** FNV-1a over the bit patterns of a sequence of values. */
class BitDigest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
            ++bytes;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::size_t bytes = 0;
};

TEST(ShapePinning, ModelOutputsKeepEveryBit)
{
    // Every Table IV cell, every Table VI cell (each CORUSCANT scheme
    // at each N that fits its TRD), the multiply TR opportunities and
    // the reduction's measured cost at TRD 3..7 and the area model's
    // fractions and PE areas.  The output contract hashes only
    // the rounded printouts; this digest catches a change in the
    // lowest bit.
    BitDigest d;
    CnnThroughputModel model;
    const CnnMode modes[] = {CnnMode::FullPrecision,
                             CnnMode::TernaryWeight,
                             CnnMode::BinaryWeight};
    const CnnScheme coruscant[] = {CnnScheme::Coruscant3,
                                   CnnScheme::Coruscant5,
                                   CnnScheme::Coruscant7};
    for (const CnnNetwork &net :
         {CnnNetwork::alexnet(), CnnNetwork::lenet5()}) {
        for (CnnMode mode : modes)
            for (const CnnCell &cell : model.table(net, mode))
                d.add(cell.fps);
        for (CnnMode mode : {CnnMode::FullPrecision,
                             CnnMode::TernaryWeight}) {
            for (std::size_t i = 0; i < 3; ++i)
                for (std::size_t n = 3; n <= 2 * i + 3; n += 2)
                    d.add(model.fpsWithNmr(net, coruscant[i], mode, n));
        }
    }
    for (std::size_t trd = 3; trd <= 7; ++trd)
        for (std::size_t bits : {4, 8, 16, 32})
            d.add(std::uint64_t{
                TrErrorModel(trd).multiplyTrOpportunities(bits)});
    for (std::size_t trd = 3; trd <= 7; ++trd) {
        OpCost c = CoruscantCostModel(trd).reduce();
        d.add(c.cycles);
        d.add(c.energyPj);
    }
    for (const PimFeatureSet &f :
         {PimFeatureSet::add2(), PimFeatureSet::add5(),
          PimFeatureSet::mulAdd5(), PimFeatureSet::mulAdd5Bbo()})
        d.add(AreaModel::memoryOverheadFraction(f));
    for (std::size_t trd = 3; trd <= 8; ++trd) {
        d.add(AreaModel::pimExtraAreaUm2({trd, true, false, false}));
        for (std::size_t operands : {std::size_t{2}, trd - 2})
            for (bool multiply : {false, true})
                d.add(AreaModel::peAreaUm2(trd, operands, multiply));
    }

    EXPECT_EQ(d.bytes, 8u * 112u);
    EXPECT_EQ(d.h, 0xedb3329c47ce58e0ULL)
        << std::hex << "digest 0x" << d.h;
}

TEST(TrdShape, UnitReducesAndAddsAsDeviceParamsStates)
{
    constexpr std::size_t wires = 64;
    Rng rng(35);
    for (std::size_t trd = 3; trd <= 7; ++trd) {
        SCOPED_TRACE(::testing::Message() << "TRD " << trd);
        DeviceParams dev = DeviceParams::withTrd(trd);
        dev.wiresPerDbc = wires;
        const std::size_t n = dev.csaInputs();
        EXPECT_EQ(dev.csaOutputs(), dev.hasSuperCarry() ? 3u : 2u);

        // Wire w counts w mod (n + 1) ones, spread over the rows from
        // row w mod n on; the top two wires stay empty so no carry
        // leaves the row.
        std::vector<BitVector> rows(n, BitVector(wires));
        std::vector<std::size_t> count(wires, 0);
        for (std::size_t w = 0; w + 2 < wires; ++w) {
            count[w] = w % (n + 1);
            for (std::size_t k = 0; k < count[w]; ++k)
                rows[(w + k) % n].set(w, true);
        }
        CoruscantUnit unit(dev);
        const CsaRows out = unit.reduce(rows, wires);
        EXPECT_EQ(out.hasSuperCarry, dev.hasSuperCarry());
        for (std::size_t w = 0; w < wires; ++w) {
            std::size_t got = out.sum.get(w);
            if (w + 1 < wires)
                got += 2 * std::size_t{out.carry.get(w + 1)};
            if (w + 2 < wires)
                got += 4 * std::size_t{out.superCarry.get(w + 2)};
            EXPECT_EQ(got, count[w]) << "wire " << w;
        }
        rows.emplace_back(wires);
        EXPECT_THROW(CoruscantUnit(dev).reduce(rows, wires), FatalError);

        // maxAddOperands() operands of 12-bit values in 16-bit lanes,
        // so every lane's sum fits its lane: all ones in lane 0 (the
        // largest counts the window senses), random in the others.
        constexpr std::size_t block = 16;
        std::vector<BitVector> ops(dev.maxAddOperands(), BitVector(wires));
        std::vector<std::uint64_t> want(wires / block, 0);
        for (BitVector &op : ops) {
            std::uint64_t word = 0;
            for (std::size_t l = 0; l < wires / block; ++l) {
                std::uint64_t v = l == 0 ? 0xfff : rng.nextBelow(1u << 12);
                word |= v << (l * block);
                want[l] += v;
            }
            op = BitVector::fromUint64(wires, word);
        }
        const BitVector sum = CoruscantUnit(dev).add(ops, block);
        for (std::size_t l = 0; l < wires / block; ++l)
            EXPECT_EQ(sum.sliceUint64(l * block, block), want[l])
                << "lane " << l;
        ops.emplace_back(wires);
        EXPECT_THROW(CoruscantUnit(dev).add(ops, block), FatalError);
    }
    // S, C and C' carry the weights 1, 2 and 4, so they hold a count
    // of at most 7: from TRD 8 on, a window senses more, and no unit
    // builds.
    EXPECT_THROW(CoruscantUnit(DeviceParams::withTrd(8)), FatalError);
}

/** Whether @p build throws a FatalError that names the range [3, 7]. */
template <typename F>
bool
refusesNamingPimRange(F build)
{
    try {
        build();
    } catch (const FatalError &e) {
        return std::string(e.what()).find("[3, 7]") != std::string::npos;
    }
    return false;
}

TEST(TrdShape, PimRefusesTrdOutsideItsRange)
{
    // TRD 2 has no row for the carry, and from TRD 8 on a count needs a
    // weight-8 output: every PIM front end refuses, naming the range.
    for (std::size_t trd : {2u, 8u, 32u}) {
        SCOPED_TRACE(::testing::Message() << "TRD " << trd);
        ServiceConfig cfg;
        cfg.trd = trd;
        EXPECT_TRUE(refusesNamingPimRange(
            [&] { CoruscantUnit{DeviceParams::withTrd(trd)}; }));
        EXPECT_TRUE(refusesNamingPimRange([&] { CoruscantCostModel{trd}; }));
        EXPECT_TRUE(refusesNamingPimRange(
            [&] { ServiceCostTable::build(trd); }));
        EXPECT_TRUE(refusesNamingPimRange([&] { TrErrorModel{trd}; }));
        EXPECT_TRUE(refusesNamingPimRange([&] { ServiceEngine{cfg}; }));
    }
    // The geometry alone spans TRD 1..32, which DBC-level code uses.
    for (std::size_t trd : {1u, 32u})
        EXPECT_NO_THROW(DomainBlockCluster{DeviceParams::withTrd(trd)})
            << trd;
}

} // namespace
} // namespace coruscant
