/**
 * @file
 * CoruscantUnit multi-operand addition against golden arithmetic,
 * including the paper's cycle counts (Table III / Sec. V-B).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>

#include "core/coruscant_unit.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

DeviceParams
smallParams(std::size_t trd, std::size_t wires = 64)
{
    DeviceParams p = DeviceParams::withTrd(trd);
    p.wiresPerDbc = wires;
    return p;
}

/** Pack one value per lane into a row. */
BitVector
packLanes(std::size_t width, std::size_t block,
          const std::vector<std::uint64_t> &values)
{
    BitVector row(width);
    for (std::size_t i = 0; i < values.size(); ++i)
        row.insertUint64(i * block, block, values[i]);
    return row;
}

struct AddCase
{
    std::size_t trd;
    std::size_t operands;
    std::size_t block;
};

class AddSweep : public ::testing::TestWithParam<AddCase>
{};

TEST_P(AddSweep, LaneSumsModuloBlock)
{
    auto [trd, m, block] = GetParam();
    CoruscantUnit unit(smallParams(trd, 64));
    std::size_t lanes = 64 / block;
    Rng rng(trd * 1000 + m * 10 + block);
    for (int iter = 0; iter < 20; ++iter) {
        std::vector<BitVector> ops;
        std::vector<std::uint64_t> expected(lanes, 0);
        for (std::size_t i = 0; i < m; ++i) {
            std::vector<std::uint64_t> vals;
            for (std::size_t l = 0; l < lanes; ++l) {
                std::uint64_t v = rng.next() &
                                  ((block >= 64) ? ~0ULL
                                                 : ((1ULL << block) - 1));
                vals.push_back(v);
                expected[l] += v;
            }
            ops.push_back(packLanes(64, block, vals));
        }
        auto sum = unit.add(ops, block);
        for (std::size_t l = 0; l < lanes; ++l) {
            std::uint64_t mask =
                block >= 64 ? ~0ULL : ((1ULL << block) - 1);
            EXPECT_EQ(sum.sliceUint64(l * block, block),
                      expected[l] & mask)
                << "lane " << l << " iter " << iter;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    TrdOperandBlockSweep, AddSweep,
    ::testing::Values(AddCase{3, 1, 8}, AddCase{3, 2, 8},
                      AddCase{3, 2, 16}, AddCase{3, 2, 32},
                      AddCase{5, 2, 8}, AddCase{5, 3, 8},
                      AddCase{5, 3, 16}, AddCase{7, 2, 8},
                      AddCase{7, 3, 8}, AddCase{7, 4, 8},
                      AddCase{7, 5, 8}, AddCase{7, 5, 16},
                      AddCase{7, 5, 32}, AddCase{7, 5, 64}),
    [](const ::testing::TestParamInfo<AddCase> &info) {
        return "trd" + std::to_string(info.param.trd) + "_m" +
               std::to_string(info.param.operands) + "_b" +
               std::to_string(info.param.block);
    });

TEST(UnitAdd, ExactSumWithWideBlock)
{
    // Five 8-bit operands in a 16-bit block: no truncation.
    CoruscantUnit unit(smallParams(7, 64));
    std::vector<std::uint64_t> vals = {255, 255, 255, 255, 255};
    std::vector<BitVector> ops;
    for (auto v : vals)
        ops.push_back(packLanes(64, 16, {v, v, v, v}));
    auto sum = unit.add(ops, 16);
    for (std::size_t l = 0; l < 4; ++l)
        EXPECT_EQ(sum.sliceUint64(l * 16, 16), 1275u);
}

TEST(UnitAdd, PaperCycleCountFiveOperandTrd7)
{
    // Paper Sec. V-B: 8-bit five-operand add = 10 setup + 16 = 26.
    CoruscantUnit unit(smallParams(7, 8));
    std::vector<BitVector> ops(5, BitVector::fromUint64(8, 17));
    unit.resetCosts();
    unit.add(ops, 8, 8);
    EXPECT_EQ(unit.ledger().cycles(), 26u);
}

TEST(UnitAdd, PaperCycleCountTwoOperandTrd7)
{
    // Table III: 2-op add at TRD = 7 also costs 26 cycles (padding
    // rows are written like operands).
    CoruscantUnit unit(smallParams(7, 8));
    std::vector<BitVector> ops(2, BitVector::fromUint64(8, 3));
    unit.resetCosts();
    unit.add(ops, 8, 8);
    EXPECT_EQ(unit.ledger().cycles(), 26u);
}

TEST(UnitAdd, PaperCycleCountTwoOperandTrd3)
{
    // Table III: 2-op add at TRD = 3 = 19 cycles (3 setup + 16).
    CoruscantUnit unit(smallParams(3, 8));
    std::vector<BitVector> ops(2, BitVector::fromUint64(8, 3));
    unit.resetCosts();
    unit.add(ops, 8, 8);
    EXPECT_EQ(unit.ledger().cycles(), 19u);
}

TEST(UnitAdd, PaperEnergyTwoOperandTrd3)
{
    CoruscantUnit unit(smallParams(3, 8));
    std::vector<BitVector> ops(2, BitVector::fromUint64(8, 3));
    unit.resetCosts();
    unit.add(ops, 8, 8);
    EXPECT_NEAR(unit.ledger().energyPj(), 10.15, 0.01);
}

TEST(UnitAdd, PaperEnergyFiveOperandTrd7)
{
    CoruscantUnit unit(smallParams(7, 8));
    std::vector<BitVector> ops(5, BitVector::fromUint64(8, 3));
    unit.resetCosts();
    unit.add(ops, 8, 8);
    EXPECT_NEAR(unit.ledger().energyPj(), 22.14, 0.01);
}

TEST(UnitAdd, LanesAreIsolated)
{
    // A carry that overflows lane 0 must not leak into lane 1.
    CoruscantUnit unit(smallParams(7, 16));
    auto a = packLanes(16, 8, {255, 1});
    auto b = packLanes(16, 8, {1, 2});
    auto sum = unit.add({a, b}, 8);
    EXPECT_EQ(sum.sliceUint64(0, 8), 0u); // 256 mod 256
    EXPECT_EQ(sum.sliceUint64(8, 8), 3u);
}

TEST(UnitAdd, SingleOperandIsIdentity)
{
    CoruscantUnit unit(smallParams(7, 32));
    auto a = packLanes(32, 8, {42, 99, 0, 255});
    EXPECT_EQ(unit.add({a}, 8), a);
}

TEST(UnitAdd, RejectsTooManyOperands)
{
    CoruscantUnit unit(smallParams(7, 16));
    std::vector<BitVector> six(6, BitVector(16));
    EXPECT_THROW(unit.add(six, 8), FatalError);
    CoruscantUnit unit3(smallParams(3, 16));
    std::vector<BitVector> three(3, BitVector(16));
    EXPECT_THROW(unit3.add(three, 8), FatalError);
}

TEST(UnitAdd, RejectsRaggedLanes)
{
    CoruscantUnit unit(smallParams(7, 16));
    std::vector<BitVector> ops(2, BitVector(16));
    EXPECT_THROW(unit.add(ops, 5, 16), FatalError); // 16 % 5 != 0
}

/**
 * What an add leaves in the unit's ledger and counter set: the totals,
 * and an FNV-1a digest over every category's cycles, charge count and
 * energy bits and every counter.  Energy is compared by its bits, so a
 * reordered charge that rounds differently shows.
 */
struct AddCharges
{
    std::size_t trd;
    std::size_t samples;
    std::uint64_t cycles;
    double energyPj;
    double metricsEnergyPj;
    std::uint64_t digest;
};

AddCharges
measureAddCharges(std::size_t trd, std::size_t samples)
{
    CoruscantUnit unit(smallParams(trd, 64), 0.05, 7);
    obs::ComponentMetrics metrics;
    unit.attachMetrics(&metrics);
    Rng rng(trd * 10 + samples);
    const std::size_t m = unit.params().maxAddOperands();
    // A full-width add at 8-bit lanes, then 16-bit lanes over 32
    // active wires: both ledgers and the counter set accumulate.
    for (auto [block, act] : {std::pair<std::size_t, std::size_t>{8, 0},
                              {16, 32}}) {
        std::vector<BitVector> ops;
        for (std::size_t i = 0; i < m; ++i)
            ops.push_back(BitVector::fromUint64(64, rng.next()));
        if (samples == 1)
            unit.add(ops, block, act);
        else
            unit.addStepVoted(ops, block, samples, act);
    }
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 64; b += 8) {
            h ^= (v >> b) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    const CostLedger &ledger = unit.ledger();
    for (std::size_t c = 0; c < kCostCategories; ++c) {
        const CostLedger::Entry &e = ledger.entry(static_cast<Cost>(c));
        mix(e.cycles);
        mix(e.count);
        mix(std::bit_cast<std::uint64_t>(e.energyPj));
    }
    for (std::size_t c = 0; c < obs::kCounterKinds; ++c)
        mix(metrics.get(static_cast<obs::Counter>(c)));
    return {trd, samples, ledger.cycles(), ledger.energyPj(),
            metrics.energyPj(), h};
}

// Generated by measureAddCharges before the carry chain counted the
// window's interior rows once per add.
constexpr AddCharges kAddChargeGoldens[] = {
    {3, 1, 54, 0x1.e800000000003p+6, 0x1.e800000000003p+6,
     0xb3a2ae8a5c0445dbull},
    {3, 3, 126, 0x1.40f5c28f5c292p+8, 0x1.40f5c28f5c292p+8,
     0x63e036e5f7512709ull},
    {5, 1, 60, 0x1.8247ae147ae17p+7, 0x1.8247ae147ae17p+7,
     0x9419ab6fd35f1fcull},
    {5, 3, 132, 0x1.ec4ccccccccdbp+8, 0x1.ec4ccccccccdbp+8,
     0xb82e06d0382e8c3aull},
    {7, 1, 68, 0x1.0a47ae147ae12p+8, 0x1.0a47ae147ae12p+8,
     0x51678b1554d8adb8ull},
    {7, 3, 140, 0x1.4cd1eb851eb7dp+9, 0x1.4cd1eb851eb7dp+9,
     0x774eff12cfefc2c1ull},
};

TEST(UnitAdd, ChargesArePinned)
{
    for (const AddCharges &g : kAddChargeGoldens) {
        const AddCharges got = measureAddCharges(g.trd, g.samples);
        // On a mismatch, the measured row in the table's form.
        char line[160];
        std::snprintf(line, sizeof line,
                      "{%zu, %zu, %llu, %a, %a, 0x%llxull}", got.trd,
                      got.samples,
                      static_cast<unsigned long long>(got.cycles),
                      got.energyPj, got.metricsEnergyPj,
                      static_cast<unsigned long long>(got.digest));
        SCOPED_TRACE(line);
        EXPECT_EQ(got.cycles, g.cycles);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.energyPj),
                  std::bit_cast<std::uint64_t>(g.energyPj));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.metricsEnergyPj),
                  std::bit_cast<std::uint64_t>(g.metricsEnergyPj));
        EXPECT_EQ(got.digest, g.digest);
    }
}

} // namespace
} // namespace coruscant
