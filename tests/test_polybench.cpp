/**
 * @file
 * Polybench kernel traces (closed forms against the instrumented
 * oracle) and the Fig. 10 / Fig. 11 system model.
 */

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

#include "apps/polybench/system_model.hpp"
#include "oracle/polybench_trace.hpp"

namespace coruscant {
namespace {

TEST(PolybenchKernels, GemmOpCountsMatchClosedForm)
{
    const std::size_t n = 16;
    auto run = runGemm(n);
    // Per output: 1 beta-mul + n * (2 muls + 1 add).
    EXPECT_EQ(run.trace.muls, n * n * (1 + 2 * n));
    EXPECT_EQ(run.trace.adds, n * n * n);
    EXPECT_EQ(run.trace.stores, n * n);
    EXPECT_EQ(run.trace.loads, n * n * (1 + 2 * n));
}

TEST(PolybenchKernels, TwoMmIsTwoGemms)
{
    const std::size_t n = 12;
    auto one = runGemm(n);
    auto two = run2mm(n);
    EXPECT_EQ(two.trace.muls, 2 * one.trace.muls);
    EXPECT_EQ(two.trace.adds, 2 * one.trace.adds);
}

TEST(PolybenchKernels, ThreeMmIsThreeGemms)
{
    const std::size_t n = 12;
    EXPECT_EQ(run3mm(n).trace.muls, 3 * runGemm(n).trace.muls);
}

TEST(PolybenchKernels, AtaxIsTwoMatvecs)
{
    const std::size_t n = 20;
    auto run = runAtax(n);
    // Each matvec: n*n mul + n*n add + n extra adds.
    EXPECT_EQ(run.trace.muls, 2 * n * n);
    EXPECT_EQ(run.trace.adds, 2 * (n * n + n));
}

TEST(PolybenchKernels, ClosedFormsMatchRecordedTraces)
{
    // Every count of every kernel equals the one the instrumented
    // kernel records, at every small n (triangles and the n = 0, 1
    // edges included) and at two larger sizes.
    std::vector<std::size_t> sizes;
    for (std::size_t n = 0; n <= 40; ++n)
        sizes.push_back(n);
    sizes.push_back(48);
    sizes.push_back(64);
    for (std::size_t n : sizes) {
        auto closed = runAllPolybench(n);
        auto recorded = polybench_oracle::runAllPolybench(n);
        ASSERT_EQ(closed.size(), recorded.size());
        for (std::size_t k = 0; k < closed.size(); ++k) {
            const auto &c = closed[k];
            const auto &r = recorded[k];
            ASSERT_EQ(c.name, r.name);
            EXPECT_EQ(c.trace.adds, r.trace.adds) << c.name << " n=" << n;
            EXPECT_EQ(c.trace.muls, r.trace.muls) << c.name << " n=" << n;
            EXPECT_EQ(c.trace.loads, r.trace.loads) << c.name << " n=" << n;
            EXPECT_EQ(c.trace.stores, r.trace.stores)
                << c.name << " n=" << n;
        }
    }
}

TEST(PolybenchKernels, CountsAtTheSizeBoundStayExactInDouble)
{
    // The model turns every count, and loads + stores, into a double:
    // below 2^53 each converts exactly.
    constexpr std::uint64_t exact = std::uint64_t{1} << 53;
    const std::size_t n = kMaxPolybenchSize;
    for (const auto &r : runAllPolybench(n)) {
        const auto &t = r.trace;
        EXPECT_LT(t.adds, exact) << r.name;
        EXPECT_LT(t.muls, exact) << r.name;
        EXPECT_LT(t.loads + t.stores, exact) << r.name;
    }
    // The largest count: doitgen's 2n^4 loads.
    EXPECT_EQ(runDoitgen(n).trace.loads, std::uint64_t{1} << 49);
}

TEST(PolybenchKernels, ChecksumsAreDeterministic)
{
    // The instrumented kernels compute real outputs.
    for (int rep = 0; rep < 2; ++rep) {
        auto a = polybench_oracle::runGemver(24);
        auto b = polybench_oracle::runGemver(24);
        EXPECT_EQ(a.checksum, b.checksum);
        EXPECT_TRUE(std::isfinite(a.checksum));
        EXPECT_NE(a.checksum, 0.0);
    }
}

TEST(PolybenchKernels, AllKernelsProduceWork)
{
    auto runs = runAllPolybench(16);
    EXPECT_EQ(runs.size(), 12u);
    for (const auto &r : runs) {
        EXPECT_GT(r.trace.muls + r.trace.adds, 0u) << r.name;
        EXPECT_GT(r.trace.loads, 0u) << r.name;
    }
}

class PolybenchModel : public ::testing::Test
{
  protected:
    PolybenchSystemModel model;
};

TEST_F(PolybenchModel, PimBeatsBothCpuSystemsOnEveryKernel)
{
    for (const auto &run : runAllPolybench(32)) {
        auto res = model.evaluate(run);
        EXPECT_GT(res.latencyGainVsDwm(), 1.0) << run.name;
        EXPECT_GT(res.latencyGainVsDram(), 1.0) << run.name;
        EXPECT_GT(res.energyGain(), 5.0) << run.name;
    }
}

TEST_F(PolybenchModel, DramCpuIsSlowerThanDwmCpu)
{
    // Paper Fig. 10: DRAM is slower than the DWM memory.
    for (const auto &run : runAllPolybench(32)) {
        auto res = model.evaluate(run);
        EXPECT_GE(res.cpuDramCycles, res.cpuDwmCycles) << run.name;
    }
}

TEST_F(PolybenchModel, GeomeansNearPaperAverages)
{
    // Paper Sec. V-C: average latency improvement 2.07x over CPU+DWM,
    // 2.20x over CPU+DRAM; energy reduction >= 25x on average.
    auto runs = runAllPolybench(48);
    double gdwm = 1, gdram = 1, gen = 1;
    for (const auto &run : runs) {
        auto res = model.evaluate(run);
        gdwm *= res.latencyGainVsDwm();
        gdram *= res.latencyGainVsDram();
        gen *= res.energyGain();
    }
    double n = static_cast<double>(runs.size());
    EXPECT_NEAR(std::pow(gdwm, 1.0 / n), 2.07, 0.5);
    EXPECT_NEAR(std::pow(gdram, 1.0 / n), 2.20, 0.6);
    EXPECT_NEAR(std::pow(gen, 1.0 / n), 25.2, 7.0);
}

TEST_F(PolybenchModel, QueueingDominatesPimRuntime)
{
    // Paper Sec. V-F: ~80% of PIM runtime is queuing delay.
    auto res = model.evaluate(runGemm(48));
    EXPECT_GT(res.pimQueueFraction, 0.6);
}

TEST_F(PolybenchModel, LatencyScalesWithProblemSize)
{
    auto small = model.evaluate(runGemm(16));
    auto large = model.evaluate(runGemm(32));
    EXPECT_GT(large.pimCycles, small.pimCycles * 6);
    EXPECT_GT(large.cpuDwmCycles, small.cpuDwmCycles * 6);
}

} // namespace
} // namespace coruscant
