/**
 * @file
 * What the request-service benches share: the base run, the options
 * that size it, and the JSON of a fault-sweep document.
 */

#ifndef CORUSCANT_BENCH_SERVICE_BENCH_HPP
#define CORUSCANT_BENCH_SERVICE_BENCH_HPP

#include <cstdio>

#include "service/service_engine.hpp"
#include "util/cli_args.hpp"

namespace coruscant::bench {

/**
 * The base run, sized by `--duration` and `--channels`: 4 channels on
 * every core (results are thread-count invariant), seed 42.
 */
struct ServiceBench
{
    ServiceConfig cfg;

    ServiceBench()
    {
        cfg.channels = 4;
        cfg.threads = 0;
        cfg.seed = 42;
    }

    Options
    options()
    {
        return {opt("duration", cfg.durationCycles, "arrival window (cycles)"),
                opt("channels", cfg.channels, "memory channels", atLeastOne,
                    ">= 1")};
    }
};

/** Open a fault-sweep document: bench name, run config, "sweep": [. */
inline void
printSweepHeader(const char *bench, const ServiceConfig &cfg)
{
    std::printf("{\n");
    std::printf(
        "  \"bench\": \"%s\",\n"
        "  \"config\": {\"channels\": %u, \"banks\": %u, "
        "\"duration_cycles\": %llu, \"seed\": %llu, "
        "\"rate_per_kcycle\": %.1f, \"mix\": \"%s\"},\n",
        bench, cfg.channels, cfg.banksPerChannel,
        static_cast<unsigned long long>(cfg.durationCycles),
        static_cast<unsigned long long>(cfg.seed), cfg.ratePerKcycle,
        cfg.mix.describe().c_str());
    std::printf("  \"sweep\": [\n");
}

/** Throughput, tails, outcome taxonomy and SDC rate of one point. */
inline void
printOutcomes(const ServiceStats &s)
{
    auto n = [&](RequestOutcome o) {
        return static_cast<unsigned long long>(
            s.outcomes[static_cast<std::size_t>(o)]);
    };
    auto p99 = [&](RequestOutcome o) {
        return static_cast<unsigned long long>(
            s.outcomeLatency[static_cast<std::size_t>(o)].p99());
    };
    std::printf(
        "\"throughput_per_kcycle\": %.3f, \"p99\": %llu, "
        "\"p99_clean\": %llu, \"p99_corrected\": %llu, "
        "\"outcomes\": {\"clean\": %llu, \"corrected\": %llu, "
        "\"due\": %llu, \"sdc\": %llu, \"rejected\": %llu}, "
        "\"sdc_rate\": %.4g, ",
        s.throughputPerKcycle(),
        static_cast<unsigned long long>(s.latency.p99()),
        p99(RequestOutcome::Clean), p99(RequestOutcome::Corrected),
        n(RequestOutcome::Clean), n(RequestOutcome::Corrected),
        n(RequestOutcome::Due), n(RequestOutcome::Sdc),
        n(RequestOutcome::Rejected),
        s.generated == 0 ? 0.0
                         : static_cast<double>(n(RequestOutcome::Sdc)) /
                               static_cast<double>(s.generated));
}

} // namespace coruscant::bench

#endif // CORUSCANT_BENCH_SERVICE_BENCH_HPP
