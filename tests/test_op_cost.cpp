/**
 * @file
 * CoruscantCostModel: the single source of truth for operation costs
 * used by every system-level model.
 */

#include <gtest/gtest.h>

#include "core/op_cost.hpp"
#include "util/logging.hpp"

namespace coruscant {
namespace {

TEST(OpCost, PinnedTableIIIValues)
{
    CoruscantCostModel c7(7), c3(3);
    EXPECT_EQ(c7.add(5, 8).cycles, 26u);
    EXPECT_EQ(c7.add(2, 8).cycles, 26u);
    EXPECT_EQ(c3.add(2, 8).cycles, 19u);
    EXPECT_EQ(c7.multiply(8).cycles, 64u);
    EXPECT_NEAR(c7.add(5, 8).energyPj, 22.14, 0.01);
    EXPECT_NEAR(c3.add(2, 8).energyPj, 10.15, 0.01);
}

TEST(OpCost, ReductionIsFourCycles)
{
    EXPECT_EQ(CoruscantCostModel(7).reduce().cycles, 4u);
    EXPECT_EQ(CoruscantCostModel(3).reduce().cycles, 3u);
}

TEST(OpCost, ReductionBuildsAtEveryTrd)
{
    // Below TRD 5 there is no super-carry output, so the unit reduces
    // at most 3 rows; TRD 4 must not stage 4.  TRD 2 and 8 are outside
    // the PIM range and build no model.
    for (std::size_t trd = 3; trd <= 7; ++trd)
        EXPECT_NO_THROW(CoruscantCostModel(trd).reduce()) << trd;
    for (std::size_t trd : {2u, 8u})
        EXPECT_THROW(CoruscantCostModel{trd}, FatalError) << trd;
    EXPECT_EQ(CoruscantCostModel(4).reduce().cycles, 3u);
}

TEST(OpCost, AddScalesLinearlyInBlockSize)
{
    CoruscantCostModel c7(7);
    auto c8 = c7.add(5, 8).cycles;
    auto c16 = c7.add(5, 16).cycles;
    auto c32 = c7.add(5, 32).cycles;
    // Setup constant (10), loop 2 cycles/bit.
    EXPECT_EQ(c16 - c8, 16u);
    EXPECT_EQ(c32 - c16, 32u);
}

TEST(OpCost, MultiplyScalesLinearlyAtTrd7)
{
    // The O(n) claim at the cost-model level: cycles/bit bounded.
    CoruscantCostModel c7(7);
    double per8 = static_cast<double>(c7.multiply(8).cycles) / 8;
    double per32 = static_cast<double>(c7.multiply(32).cycles) / 32;
    EXPECT_LT(per32, per8 * 1.6);
}

TEST(OpCost, BulkConstantInOperands)
{
    CoruscantCostModel c7(7);
    // One TR regardless of operand count; staging grows linearly.
    auto c2 = c7.bulkBitwise(2).cycles;
    auto c7ops = c7.bulkBitwise(7).cycles;
    EXPECT_EQ(c7ops - c2, 2u * 5u); // 5 extra operands x (write+shift)
}

TEST(OpCost, MaxTwCheaperThanShift)
{
    CoruscantCostModel c7(7);
    EXPECT_LT(c7.max(7, 8, true).cycles,
              c7.max(7, 8, false).cycles);
}

TEST(OpCost, NmrVoteConstant)
{
    CoruscantCostModel c7(7);
    EXPECT_EQ(c7.nmrVote(3).cycles, c7.nmrVote(7).cycles);
}

TEST(OpCost, EnergyMonotoneInTrd)
{
    // Larger windows drive more current per TR.
    EXPECT_LT(CoruscantCostModel(3).add(2, 8).energyPj,
              CoruscantCostModel(5).add(2, 8).energyPj);
    EXPECT_LT(CoruscantCostModel(5).add(2, 8).energyPj,
              CoruscantCostModel(7).add(2, 8).energyPj);
}

TEST(OpCost, MemoizedQueriesMatchFreshModel)
{
    // Each query is its own functional run: a repeated query and a
    // fresh model's query give the same numbers.
    CoruscantCostModel c(7);
    OpCost first = c.multiply(16);
    OpCost again = c.multiply(16);
    EXPECT_EQ(again.cycles, first.cycles);
    EXPECT_DOUBLE_EQ(again.energyPj, first.energyPj);
    EXPECT_EQ(again.prims, first.prims);

    OpCost cold = CoruscantCostModel(7).multiply(16);
    EXPECT_EQ(cold.cycles, first.cycles);
    EXPECT_DOUBLE_EQ(cold.energyPj, first.energyPj);
    EXPECT_EQ(cold.prims, first.prims);
}

TEST(OpCost, RegistryRecordsEachOpOnce)
{
    // Each op measured once leaves exactly that measurement's
    // primitives and energy under opcost/<op>.
    CoruscantCostModel c(7);
    obs::MetricsRegistry reg;
    c.attachMetrics(&reg);
    OpCost add = c.add(2, 8);
    OpCost mul = c.multiply(8);
    const obs::ComponentMetrics *add_m = reg.find("opcost/add");
    const obs::ComponentMetrics *mul_m = reg.find("opcost/multiply");
    ASSERT_NE(add_m, nullptr);
    ASSERT_NE(mul_m, nullptr);
    EXPECT_EQ(add_m->prims(), add.prims);
    EXPECT_DOUBLE_EQ(add_m->energyPj(), add.energyPj);
    EXPECT_EQ(mul_m->prims(), mul.prims);
    EXPECT_DOUBLE_EQ(mul_m->energyPj(), mul.energyPj);
    EXPECT_GT(mul.prims.shifts, 0u);
    EXPECT_GT(add.energyPj, 0.0);
}

TEST(OpCost, PrimCountsBackTheComposites)
{
    // Golden primitive breakdowns behind the Table III composites:
    // a TRD=7 two-operand 8-bit add is one TR per bit plus 13 result
    // writes and the 5 alignment shifts of the setup.
    CoruscantCostModel c7(7);
    OpCost add = c7.add(2, 8);
    EXPECT_EQ(add.prims.trPulses, 8u);
    EXPECT_EQ(add.prims.writes, 13u);
    EXPECT_EQ(add.prims.shifts, 5u);
    // Bulk ops read all operands in ONE transverse read.
    EXPECT_EQ(c7.bulkBitwise(7).prims.trPulses, 1u);
    EXPECT_EQ(c7.bulkBitwise(2).prims.trPulses, 1u);
}

} // namespace
} // namespace coruscant
