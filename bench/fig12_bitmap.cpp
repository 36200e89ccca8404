/**
 * @file
 * Regenerates paper Fig. 12: bitmap-index query latency — Ambit,
 * ELP2IM, and CORUSCANT normalized to the CPU+DRAM system, for "male
 * users active in the past w weeks", w in {2,3,4}, 16M users.
 *
 * The paper's stated ratios: CORUSCANT is 1.6x / 2.2x / 3.4x faster
 * than ELP2IM at w = 2 / 3 / 4, with flat CORUSCANT latency.
 */

#include <string>
#include <vector>

#include "apps/bitmap/bitmap_index.hpp"
#include "bench_util.hpp"

using namespace coruscant;

namespace {

/** Every technique's result for one query. */
struct QueryResults
{
    std::size_t weeks;
    BitmapQueryResult cpu, ambit, elp, cor;
};

double
ratio(const BitmapQueryResult &num, const BitmapQueryResult &den)
{
    return static_cast<double>(num.cycles) /
           static_cast<double>(den.cycles);
}

} // namespace

int
main()
{
    bench::header("Fig. 12: bitmap index query (16M users)");
    auto db = BitmapDatabase::synthesize(16ull << 20, 4);
    BitmapQueryEngine eng(db);

    std::vector<QueryResults> runs;
    for (std::size_t w = 2; w <= 4; ++w)
        runs.push_back({w, eng.runCpuDram(w), eng.runAmbit(w),
                        eng.runElp2im(w), eng.runCoruscant(w)});

    std::printf("  %-4s %12s | %10s %10s %10s %10s | %9s\n", "w",
                "matches", "cpu[cyc]", "ambit", "elp2im", "coruscant",
                "cor/elp");
    for (const auto &r : runs) {
        std::printf(
            "  %-4zu %12llu | %10llu %10llu %10llu %10llu | %9.2f\n",
            r.weeks, static_cast<unsigned long long>(r.cor.matches),
            static_cast<unsigned long long>(r.cpu.cycles),
            static_cast<unsigned long long>(r.ambit.cycles),
            static_cast<unsigned long long>(r.elp.cycles),
            static_cast<unsigned long long>(r.cor.cycles),
            ratio(r.elp, r.cor));
    }

    bench::subheader("paper ratios (CORUSCANT speedup over ELP2IM)");
    for (const auto &r : runs) {
        double paper = r.weeks == 2 ? 1.6 : (r.weeks == 3 ? 2.2 : 3.4);
        bench::row("w = " + std::to_string(r.weeks), ratio(r.elp, r.cor),
                   paper, "x");
    }
    bench::subheader("normalized speedup over CPU+DRAM");
    for (const auto &r : runs) {
        std::string w = std::to_string(r.weeks);
        bench::rowPlain("Ambit      w=" + w, ratio(r.cpu, r.ambit), "x");
        bench::rowPlain("ELP2IM     w=" + w, ratio(r.cpu, r.elp), "x");
        bench::rowPlain("CORUSCANT  w=" + w, ratio(r.cpu, r.cor), "x");
    }

    // Every technique answers the same query: a disagreement is a
    // simulator bug, reported through the exit status.
    int status = 0;
    for (const auto &r : runs) {
        for (const auto *t : {&r.ambit, &r.elp, &r.cor}) {
            if (t->matches != r.cpu.matches) {
                std::fprintf(stderr,
                             "w=%zu: %s counted %llu matches, cpu-dram "
                             "%llu\n",
                             r.weeks, t->technique.c_str(),
                             static_cast<unsigned long long>(t->matches),
                             static_cast<unsigned long long>(
                                 r.cpu.matches));
                status = 1;
            }
        }
    }
    return status;
}
