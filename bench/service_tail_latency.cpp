/**
 * @file
 * Tail-latency vs offered-load sweep for the request-service layer
 * (paper Sec. V-C high-throughput mode, PIRM-style multi-operand
 * dispatch).
 *
 * For each offered load the same seeded workload is served twice —
 * with TR-gang batching on and off — and the JSON emitted on stdout
 * gives the full latency-vs-throughput curve (p50/p95/p99/p99.9)
 * plus an iso-p99 comparison: the highest throughput each
 * configuration sustains without exceeding the unbatched
 * configuration's worst p99.
 *
 * Options (a bad one prints the list and exits 2): --rate runs a
 * single load point (CI smoke) instead of the sweep; --duration and
 * --channels size the runs.  --metrics-json merges every run's
 * per-component counters into one registry, prefixed
 * "rate<R>/batched|unbatched".  --trace records the last batched run
 * (one full sweep of overlapping timelines would be unreadable).  Both
 * flags add per-request bookkeeping, so leave them off when measuring
 * simulator throughput.
 */

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "obs/output_files.hpp"
#include "service_bench.hpp"

using namespace coruscant;

namespace {

struct Point
{
    double rate;
    ServiceStats batched;
    ServiceStats unbatched;
};

void
printStats(const char *key, const ServiceStats &s, bool last)
{
    std::printf(
        "      \"%s\": {\"throughput_per_kcycle\": %.3f, "
        "\"completed\": %llu, \"rejected\": %llu, "
        "\"mean\": %.2f, \"p50\": %llu, \"p95\": %llu, "
        "\"p99\": %llu, \"p999\": %llu, \"max\": %llu, "
        "\"mean_gang_size\": %.2f, \"bus_util\": %.4f, "
        "\"bank_util\": %.4f, \"energy_pj\": %.1f}%s\n",
        key, s.throughputPerKcycle(),
        static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.rejected), s.latency.mean(),
        static_cast<unsigned long long>(s.latency.p50()),
        static_cast<unsigned long long>(s.latency.p95()),
        static_cast<unsigned long long>(s.latency.p99()),
        static_cast<unsigned long long>(s.latency.p999()),
        static_cast<unsigned long long>(s.latency.max()),
        s.batch.meanGangSize(), s.busUtilization, s.bankUtilization,
        s.energyPj, last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ServiceBench run;
    ServiceConfig &cfg = run.cfg;
    // Bitmap-index serving: bulk-bitwise folds dominate, concentrated
    // on hot accumulator groups — the workload Sec. V-C batches.
    cfg.mix = WorkloadMix::parse("bulk:0.9,read:0.05,write:0.05");
    std::optional<double> only_rate;
    obs::OutputFiles out;
    parseOrExit({argv + 1, argv + argc},
                Options{opt("rate", only_rate, "run this load point only",
                            WorkloadConfig::rateValid,
                            WorkloadConfig::kRateRange)} +
                    run.options() + out.options());
    std::vector<double> rates = {50, 100, 200, 300, 400, 600, 800};
    if (only_rate)
        rates = {*only_rate};
    bool want_metrics = out.metricsJson.has_value();
    bool want_trace = out.trace.has_value();

    obs::MetricsRegistry merged;
    obs::TraceSink trace;
    cfg.collectMetrics = want_metrics;
    std::vector<Point> sweep;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        double rate = rates[i];
        Point p;
        p.rate = rate;
        cfg.ratePerKcycle = rate;
        cfg.batching = true;
        cfg.collectTrace = want_trace && i + 1 == rates.size();
        p.batched = runService(cfg);
        cfg.batching = false;
        cfg.collectTrace = false;
        p.unbatched = runService(cfg);
        if (want_metrics) {
            char prefix[64];
            std::snprintf(prefix, sizeof prefix, "rate%g", rate);
            merged.mergePrefixed(p.batched.metrics,
                                 std::string(prefix) + "/batched");
            merged.mergePrefixed(p.unbatched.metrics,
                                 std::string(prefix) + "/unbatched");
        }
        if (want_trace && i + 1 == rates.size())
            trace.append(p.batched.trace);
        sweep.push_back(std::move(p));
    }

    // Iso-p99: cap at the unbatched configuration's worst tail and
    // report the best throughput each mode sustains under that cap.
    std::uint64_t target_p99 = 0;
    for (const Point &p : sweep)
        target_p99 = std::max(target_p99, p.unbatched.latency.p99());
    double best_batched = 0, best_unbatched = 0;
    for (const Point &p : sweep) {
        if (p.batched.latency.p99() <= target_p99)
            best_batched = std::max(
                best_batched, p.batched.throughputPerKcycle());
        if (p.unbatched.latency.p99() <= target_p99)
            best_unbatched = std::max(
                best_unbatched, p.unbatched.throughputPerKcycle());
    }

    std::printf("{\n");
    std::printf(
        "  \"bench\": \"service_tail_latency\",\n"
        "  \"config\": {\"channels\": %u, \"banks\": %u, "
        "\"duration_cycles\": %llu, \"seed\": %llu, \"trd\": %zu, "
        "\"mix\": \"%s\", \"batch_window\": %llu, \"queue_cap\": %zu, "
        "\"hot_groups\": %u},\n",
        cfg.channels, cfg.banksPerChannel,
        static_cast<unsigned long long>(cfg.durationCycles),
        static_cast<unsigned long long>(cfg.seed), cfg.trd,
        cfg.mix.describe().c_str(),
        static_cast<unsigned long long>(cfg.batchWindowCycles),
        cfg.queueCapacity, cfg.bulkHotGroups);
    std::printf("  \"sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        std::printf("    {\"rate_per_kcycle\": %.1f,\n",
                    sweep[i].rate);
        printStats("batched", sweep[i].batched, false);
        printStats("unbatched", sweep[i].unbatched, true);
        std::printf("    }%s\n",
                    i + 1 < sweep.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf(
        "  \"iso_p99\": {\"target_p99_cycles\": %llu, "
        "\"batched_max_throughput\": %.3f, "
        "\"unbatched_max_throughput\": %.3f}\n",
        static_cast<unsigned long long>(target_p99), best_batched,
        best_unbatched);
    std::printf("}\n");

    return out.write(merged, trace) ? 0 : 1;
}
