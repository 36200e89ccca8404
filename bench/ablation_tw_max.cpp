/**
 * @file
 * Ablation: transverse write with segmented shifting vs. full-wire
 * shifting in the max function (paper Sec. IV-B claims TW reduces max
 * cycles by 28.5% at TRD = 7).
 */

#include "bench_util.hpp"
#include "core/op_cost.hpp"

using namespace coruscant;

namespace {

std::uint64_t
maxCycles(std::size_t trd, std::size_t word_bits, bool use_tw)
{
    return CoruscantCostModel(trd).max(trd, word_bits, use_tw).cycles;
}

} // namespace

int
main()
{
    bench::header("Ablation: transverse write in the max function");
    for (std::size_t trd : {3u, 5u, 7u}) {
        for (std::size_t bits : {8u, 16u, 32u}) {
            auto tw = maxCycles(trd, bits, true);
            auto shift = maxCycles(trd, bits, false);
            double saving =
                100.0 * (1.0 - static_cast<double>(tw) /
                                   static_cast<double>(shift));
            std::printf("  TRD=%zu %2zu-bit: TW %5llu cyc, full-shift "
                        "%5llu cyc, saving %5.1f%%\n",
                        trd, bits, static_cast<unsigned long long>(tw),
                        static_cast<unsigned long long>(shift),
                        saving);
        }
    }
    bench::subheader("paper reference point");
    auto tw = maxCycles(7, 8, true);
    auto shift = maxCycles(7, 8, false);
    bench::row("cycle reduction at TRD=7",
               100.0 * (1.0 - static_cast<double>(tw) /
                                  static_cast<double>(shift)),
               28.5, "%");
    return 0;
}
