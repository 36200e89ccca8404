/**
 * @file
 * Ablation: large-cardinality reduction (paper Sec. IV-A).
 *
 * The paper's concrete example: the first reduction step of AlexNet
 * accumulates 362 operands per output.  DRAM PIM needs
 * ceil(log2 362) = 9 addition steps of 40 cycles (ELP2IM CLA); with
 * parallel 7->3 carry-save reductions CORUSCANT needs ~5 reduction
 * levels of 4 cycles plus one 16-cycle addition — "circa 10x".
 *
 * This bench reports that analytical tree-depth comparison and the
 * measured single-unit reduceAndSum costs.
 */

#include <cmath>

#include "bench_util.hpp"
#include "core/op_cost.hpp"

using namespace coruscant;

namespace {

/** Parallel 7->3 reduction tree depth for m operands. */
std::size_t
csaTreeDepth(std::size_t m, std::size_t in, std::size_t out)
{
    std::size_t depth = 0;
    while (m > in) {
        // Every group of `in` rows becomes `out`; leftovers carry over.
        m = (m / in) * out + (m % in);
        ++depth;
    }
    return depth;
}

} // namespace

int
main()
{
    bench::header("Ablation: large-cardinality reduction "
                  "(Sec. IV-A example)");

    bench::subheader("analytical tree-depth model (362 operands)");
    std::size_t depth7 = csaTreeDepth(362, 7, 3);
    double coruscant_cycles = static_cast<double>(depth7) * 4 + 16;
    double dram_cycles = std::ceil(std::log2(362.0)) * 40;
    std::printf("  CORUSCANT: %zu reduction levels x 4 + 16-cycle add"
                " = %.0f cycles\n",
                depth7, coruscant_cycles);
    std::printf("  DRAM CLA : ceil(log2 362) = %.0f steps x 40 = %.0f "
                "cycles\n",
                std::ceil(std::log2(362.0)), dram_cycles);
    bench::row("speedup", dram_cycles / coruscant_cycles, 10.0, "x");

    bench::subheader("largest convolution window (4.5e8 adds)");
    std::size_t depth_big = csaTreeDepth(450000000ull, 7, 3);
    double cor_big = static_cast<double>(depth_big) * 4 + 16;
    double dram_big = std::ceil(std::log2(4.5e8)) * 40;
    std::printf("  CORUSCANT: %zu reduction levels -> %.0f cycles\n",
                depth_big, cor_big);
    std::printf("  DRAM CLA : %.0f steps -> %.0f cycles\n",
                std::ceil(std::log2(4.5e8)), dram_big);
    bench::row("speedup", dram_big / cor_big, 11.0, "x");

    bench::subheader("measured single-unit reduceAndSum (sequential "
                     "in one DBC)");
    const CoruscantCostModel c7(7);
    for (std::size_t count : {10u, 30u, 60u, 120u}) {
        const std::uint64_t cycles = c7.reduceAndSum(count, 32).cycles;
        std::printf("  %4zu rows: %6llu cycles (%5.1f per row)\n",
                    count, static_cast<unsigned long long>(cycles),
                    static_cast<double>(cycles) /
                        static_cast<double>(count));
    }
    return 0;
}
