/**
 * @file
 * Ablation: multiplication strategies (paper Sec. III-D) — optimized
 * CSA vs. arbitrary partial-product grouping vs. CSD constant
 * multiplication, across operand widths and TRD.  Demonstrates the
 * O(n) vs O(n^2/TRD) scaling the paper argues for.
 */

#include "bench_util.hpp"
#include "core/op_cost.hpp"
#include "util/csd.hpp"

using namespace coruscant;

namespace {

std::uint64_t
mulCycles(std::size_t trd, std::size_t bits, MulStrategy strategy)
{
    return CoruscantCostModel(trd).multiply(bits, strategy).cycles;
}

std::uint64_t
constCycles(std::size_t trd, std::size_t bits, std::uint64_t c)
{
    return CoruscantCostModel(trd).multiplyByConstant(bits, c).cycles;
}

} // namespace

int
main()
{
    bench::header("Ablation: multiplication strategies");

    bench::subheader("optimized CSA vs arbitrary grouping (cycles)");
    std::printf("  %-6s %6s %10s %10s %8s\n", "TRD", "bits", "csa",
                "arbitrary", "gain");
    for (std::size_t trd : {3u, 5u, 7u}) {
        for (std::size_t bits : {4u, 8u, 16u, 24u}) {
            auto csa = mulCycles(trd, bits, MulStrategy::OptimizedCsa);
            auto arb = mulCycles(trd, bits, MulStrategy::Arbitrary);
            std::printf("  %-6zu %6zu %10llu %10llu %7.2fx\n", trd,
                        bits, static_cast<unsigned long long>(csa),
                        static_cast<unsigned long long>(arb),
                        static_cast<double>(arb) /
                            static_cast<double>(csa));
        }
    }

    bench::subheader("CSA scaling is O(n) (cycles per operand bit)");
    for (std::size_t bits : {4u, 8u, 16u, 24u, 32u}) {
        auto csa = mulCycles(7, bits, MulStrategy::OptimizedCsa);
        std::printf("  n=%2zu: %6llu cycles (%5.1f per bit)\n", bits,
                    static_cast<unsigned long long>(csa),
                    static_cast<double>(csa) /
                        static_cast<double>(bits));
    }

    bench::subheader("constant multiplication via CSD (8-bit A, "
                     "TRD=7)");
    for (std::uint64_t c : {3ull, 15ull, 129ull, 515ull, 20061ull}) {
        std::printf("  c=%-6llu weight=%zu add-steps=%zu: %5llu cycles"
                    " (vs %llu arbitrary)\n",
                    static_cast<unsigned long long>(c), csdWeight(c),
                    csdAdditionSteps(c, 5),
                    static_cast<unsigned long long>(
                        constCycles(7, 8, c)),
                    static_cast<unsigned long long>(
                        mulCycles(7, 8, MulStrategy::Arbitrary)));
    }

    bench::subheader("paper reference points");
    bench::row("8-bit mult TRD=7 (cycles)",
               static_cast<double>(
                   mulCycles(7, 8, MulStrategy::OptimizedCsa)),
               64);
    bench::row("8-bit mult TRD=3 (cycles)",
               static_cast<double>(
                   mulCycles(3, 8, MulStrategy::OptimizedCsa)),
               105);
    return 0;
}
