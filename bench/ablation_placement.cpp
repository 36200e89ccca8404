/**
 * @file
 * Ablation: data placement / interleaving vs. DW shift cost.
 *
 * DWM access time depends on how far the target row is from an access
 * port ("S" in paper Table II).  This bench measures total shifts and
 * access cycles for sequential and random line streams under the two
 * interleave policies, plus the effect of the second access port
 * (paper Sec. II-B: extra ports cut the shift distance).
 */

#include "arch/dwm_memory.hpp"
#include "bench_util.hpp"
#include "util/rng.hpp"

using namespace coruscant;

namespace {

struct StreamStats
{
    std::uint64_t cycles;
    std::uint64_t shifts;
};

StreamStats
runStream(Interleave il, bool sequential, std::size_t accesses)
{
    MemoryConfig cfg;
    cfg.interleave = il;
    DwmMainMemory mem(cfg);
    Rng rng(7);
    std::uint64_t span = 1 << 22; // 4 MiB working set
    for (std::size_t i = 0; i < accesses; ++i) {
        std::uint64_t addr = sequential
                                 ? (i * 64) % span
                                 : (rng.next() % span) & ~63ull;
        mem.readLine(addr);
    }
    return {mem.ledger().cycles(), mem.totalShifts()};
}

} // namespace

int
main()
{
    bench::header("Ablation: interleaving policy vs DW shift cost");
    const std::size_t n = 20000;

    for (bool sequential : {true, false}) {
        bench::subheader(sequential ? "sequential stream"
                                    : "random stream");
        auto bank = runStream(Interleave::BankFirst, sequential, n);
        auto row = runStream(Interleave::RowFirst, sequential, n);
        std::printf("  bank-first: %8llu cycles, %8llu shifts "
                    "(%.2f shifts/access)\n",
                    static_cast<unsigned long long>(bank.cycles),
                    static_cast<unsigned long long>(bank.shifts),
                    static_cast<double>(bank.shifts) / n);
        std::printf("  row-first : %8llu cycles, %8llu shifts "
                    "(%.2f shifts/access)\n",
                    static_cast<unsigned long long>(row.cycles),
                    static_cast<unsigned long long>(row.shifts),
                    static_cast<double>(row.shifts) / n);
    }

    bench::subheader("port count vs shift distance (random rows, "
                     "one DBC)");
    Rng rng(3);
    for (std::size_t trd : {1u, 3u, 7u}) {
        DeviceParams p = DeviceParams::withTrd(trd);
        p.wiresPerDbc = 1;
        DomainBlockCluster dbc(p);
        std::uint64_t shifts = 0;
        const int samples = 5000;
        for (int i = 0; i < samples; ++i) {
            std::size_t row = rng.nextBelow(p.domainsPerWire);
            shifts += dbc.alignRowToPort(row, dbc.nearestPort(row));
        }
        std::printf("  TRD=%zu spacing (%zu ports at rows ", trd,
                    trd == 1 ? 1ul : 2ul);
        std::printf("%zu/%zu): %.2f shifts per random access\n",
                    p.leftPortRow(), p.rightPortRow(),
                    static_cast<double>(shifts) / samples);
    }
    return 0;
}
