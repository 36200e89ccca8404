/**
 * @file
 * Ablation: memory-controller scheduling policy under mixed PIM +
 * regular traffic (discrete-event simulation).
 *
 * The paper's high-throughput mode dispatches instructions "to the
 * different ranks consecutively, in a circular fashion" — effectively
 * bank reordering.  This bench quantifies what that buys over strict
 * in-order issue for Polybench-like PIM workloads and a mixed stream.
 */

#include "apps/polybench/kernels.hpp"
#include "bench_util.hpp"
#include "controller/event_sim.hpp"
#include "core/op_cost.hpp"
#include "util/rng.hpp"

using namespace coruscant;

namespace {

std::vector<SimRequest>
pimWorkload(const OpRecorder &trace, std::size_t banks)
{
    // One DBC-op per tile-lane batch (the Fig. 10 model's granularity),
    // arriving back-to-back, round-robined over banks.
    CoruscantCostModel cost(7);
    auto add = cost.add(2, 32);
    auto mul = cost.multiply(32);
    std::uint64_t add_ops = trace.adds / 16 + 1;
    std::uint64_t mul_ops = trace.muls / 8 + 1;
    std::vector<SimRequest> reqs;
    Rng rng(1);
    std::uint64_t t = 0;
    for (std::uint64_t i = 0; i < add_ops + mul_ops; ++i) {
        bool is_mul = i % (add_ops / (mul_ops + 1) + 1) == 0;
        auto &c = is_mul ? mul : add;
        reqs.push_back({t, static_cast<std::size_t>(
                               rng.nextBelow(banks)),
                        8,
                        static_cast<std::uint32_t>(c.cycles + 36)});
        t += 2; // arrival faster than service: queue pressure
    }
    return reqs;
}

void
report(const char *name, const SimStats &s)
{
    std::printf("  %-12s makespan %9llu  avg-lat %9.0f  max-lat %9llu"
                "  bus %4.0f%%  banks %4.0f%%\n",
                name, static_cast<unsigned long long>(s.makespan),
                s.latency.mean(),
                static_cast<unsigned long long>(s.latency.max()),
                100 * s.busUtilization, 100 * s.bankUtilization);
}

} // namespace

int
main()
{
    bench::header("Ablation: controller scheduling policy (DES)");
    const std::size_t banks = 32;
    EventSimulator sim(banks);

    bench::subheader("gemm(32) PIM instruction stream");
    auto reqs = pimWorkload(runGemm(32).trace, banks);
    report("in-order", sim.run(reqs, SchedulePolicy::InOrder));
    report("reorder", sim.run(reqs, SchedulePolicy::BankReorder));

    bench::subheader("hot-bank skew (80% of ops on 4 banks)");
    Rng rng(7);
    std::vector<SimRequest> skew;
    for (int i = 0; i < 20000; ++i) {
        std::size_t bank = rng.nextBool(0.8)
                               ? rng.nextBelow(4)
                               : 4 + rng.nextBelow(banks - 4);
        skew.push_back({static_cast<std::uint64_t>(i), bank, 2, 40});
    }
    report("in-order", sim.run(skew, SchedulePolicy::InOrder));
    report("reorder", sim.run(skew, SchedulePolicy::BankReorder));

    bench::subheader("uniform saturation (reference)");
    std::vector<SimRequest> uni;
    for (int i = 0; i < 20000; ++i)
        uni.push_back({0, static_cast<std::size_t>(i % banks), 2, 40});
    report("in-order", sim.run(uni, SchedulePolicy::InOrder));
    report("reorder", sim.run(uni, SchedulePolicy::BankReorder));
    return 0;
}
