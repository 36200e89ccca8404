/**
 * @file
 * Fault-rate x guard-policy sweep for the request-service layer: the
 * serving-side counterpart of the table7 campaign.
 *
 * Each point serves the same seeded workload with live shift-fault
 * injection at a flat rate and one guard policy, and the JSON emitted
 * on stdout gives the degradation surface — throughput, clean and
 * corrected tail latencies, the full outcome taxonomy, SDC rate, and
 * the health-machinery counters (breaker trips, retirements, dead
 * groups, steering, capacity loss).  The headline checks:
 *
 *   - per-access guarding holds SDC at zero across the whole sweep
 *     (every fault is caught at the access where it happens);
 *   - unguarded serving degrades gracefully: wrong answers, never a
 *     crash or an unbounded queue;
 *   - correction latency shows up in the corrected-outcome tail, not
 *     smeared over the clean percentiles.
 *
 * Options (a bad one prints the list and exits 2): --pshift/--policy
 * run a single point (CI smoke) instead of sweeping every policy over
 * rates {0, 1e-4, 3e-4, 1e-3, 3e-3}; --duration and --channels size
 * the runs.
 */

#include <cstdio>
#include <optional>
#include <vector>

#include "service_bench.hpp"

using namespace coruscant;

namespace {

void
printPoint(const char *policy, double pshift, const ServiceStats &s,
           bool last)
{
    std::printf("    {\"policy\": \"%s\", \"pshift\": %g, ", policy, pshift);
    bench::printOutcomes(s);
    std::printf(
        "\"injected_faults\": %llu, "
        "\"guard_retries\": %llu, \"breaker_trips\": %llu, "
        "\"retired_groups\": %llu, \"dead_groups\": %llu, "
        "\"steered\": %llu, \"capacity_rejected\": %llu, "
        "\"maintenance_units\": %llu, \"capacity_loss\": %.4f}%s\n",
        static_cast<unsigned long long>(s.injectedFaults),
        static_cast<unsigned long long>(s.guardRetries),
        static_cast<unsigned long long>(s.breakerTrips),
        static_cast<unsigned long long>(s.retiredGroups),
        static_cast<unsigned long long>(s.deadGroups),
        static_cast<unsigned long long>(s.steeredRequests),
        static_cast<unsigned long long>(s.capacityRejections),
        static_cast<unsigned long long>(s.maintenanceUnits),
        s.capacityLossFraction, last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ServiceBench run;
    ServiceConfig &cfg = run.cfg;
    cfg.ratePerKcycle = 16.0;
    std::optional<GuardPolicy> policy;
    std::optional<double> pshift;
    parseOrExit({argv + 1, argv + argc},
                Options{opt("pshift", pshift, "run this shift-fault rate only",
                            probabilityValid, kProbabilityRange),
                        opt("policy", policy, "run this guard policy only")} +
                    run.options());
    std::vector<GuardPolicy> policies = {
        GuardPolicy::None, GuardPolicy::PerAccess, GuardPolicy::PerCpim,
        GuardPolicy::PeriodicScrub};
    std::vector<double> rates = {0.0, 1e-4, 3e-4, 1e-3, 3e-3};
    if (policy)
        policies = {*policy};
    if (pshift)
        rates = {*pshift};

    bench::printSweepHeader("service_fault_tolerance", cfg);
    std::size_t total = policies.size() * rates.size();
    std::size_t done = 0;
    int rc = 0;
    for (GuardPolicy gp : policies) {
        for (double pshift : rates) {
            cfg.faults = ServiceFaultConfig{};
            cfg.faults.shiftFaultRate = pshift;
            cfg.faults.policy = gp;
            ServiceStats s = runService(cfg);
            ++done;
            printPoint(enumTokens(gp)[static_cast<std::size_t>(gp)],
                       pshift, s, done == total);
            // Headline guarantee: per-access guarding leaves no fault
            // unflagged, at any rate in the sweep.
            if (gp == GuardPolicy::PerAccess &&
                s.outcomes[static_cast<std::size_t>(
                    RequestOutcome::Sdc)] != 0) {
                std::fprintf(stderr,
                             "FAIL: per-access SDC at pshift=%g\n",
                             pshift);
                rc = 1;
            }
        }
    }
    std::printf("  ]\n}\n");
    return rc;
}
