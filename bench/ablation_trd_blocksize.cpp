/**
 * @file
 * Ablation: TRD and blocksize sensitivity for multi-operand addition
 * and bulk-bitwise operations (the paper's sensitivity study uses
 * TRD in {3,5,7}; the cpim ISA allows blocksize in 8..512).
 */

#include "bench_util.hpp"
#include "core/op_cost.hpp"
#include "dwm/area_model.hpp"

using namespace coruscant;

int
main()
{
    bench::header("Ablation: TRD and blocksize sensitivity");

    bench::subheader("addition cycles by TRD and blocksize");
    std::printf("  %-5s", "TRD");
    for (std::size_t b : {8u, 16u, 32u, 64u, 128u, 256u, 512u})
        std::printf(" %7zu", b);
    std::printf("   (max operands)\n");
    for (std::size_t trd : {3u, 4u, 5u, 6u, 7u}) {
        CoruscantCostModel cost(trd);
        std::printf("  %-5zu", trd);
        for (std::size_t b : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
            std::printf(" %7llu",
                        static_cast<unsigned long long>(
                            cost.add(cost.maxAddOperands(), b).cycles));
        }
        std::printf("   %zu\n", cost.maxAddOperands());
    }

    bench::subheader("cycles per summed operand value (8-bit lanes)");
    for (std::size_t trd : {3u, 5u, 7u}) {
        CoruscantCostModel cost(trd);
        std::size_t m = cost.maxAddOperands();
        double per_value =
            static_cast<double>(cost.add(m, 8).cycles) /
            static_cast<double>(m);
        std::printf("  TRD=%zu: %zu operands in %llu cycles = %.1f "
                    "cycles/value\n",
                    trd, m,
                    static_cast<unsigned long long>(
                        cost.add(m, 8).cycles),
                    per_value);
    }

    bench::subheader("bulk-bitwise cycles by operand count (TRD=7)");
    CoruscantCostModel c7(7);
    for (std::size_t m = 1; m <= 7; ++m) {
        std::printf("  %zu operands: %llu cycles (one TR regardless)\n",
                    m,
                    static_cast<unsigned long long>(
                        c7.bulkBitwise(m).cycles));
    }

    bench::subheader("area overhead vs TRD (full ISA)");
    AreaModel area;
    for (std::size_t trd : {3u, 5u, 7u}) {
        bool full = DeviceParams{.trd = trd}.hasSuperCarry(); // MUL+ADD5+BBO
        PimFeatureSet f{trd, true, full, full};
        bench::rowPlain("TRD=" + std::to_string(trd),
                        100 * area.memoryOverheadFraction(f), "%");
    }
    return 0;
}
