/**
 * @file
 * Data-fault-rate x ECC-mode sweep for the request-service layer: the
 * serving-side degradation surface of the SECDED pipeline.
 *
 * Each point serves the same seeded workload with data-domain faults
 * injected live (per-bit transient flips per line access, optionally
 * retention decay) under one protection mode, and the JSON emitted on
 * stdout gives throughput, tails, the outcome taxonomy, and the ECC
 * counters.  The headline checks:
 *
 *   - SECDED holds SDC at zero across every single-bit-dominated rate
 *     in the sweep (one flip per word corrects in-line; two are a
 *     flagged DUE, never silent);
 *   - unprotected serving shows the same flips as silent corruption —
 *     the delta between the two surfaces is what the check lanes buy;
 *   - correction work appears in the corrected-outcome tail and the
 *     ecc counters, not smeared over clean percentiles.
 *
 * Options (a bad one prints the list and exits 2): --pdata/--ecc run
 * a single point (CI smoke) instead of sweeping both modes over rates
 * {0, 1e-7, 1e-6, 1e-5}; --retention adds decay to every point;
 * --duration and --channels size the runs.
 */

#include <cstdio>
#include <optional>
#include <vector>

#include "service_bench.hpp"

using namespace coruscant;

namespace {

void
printPoint(const char *ecc, double pdata, double retention,
           const ServiceStats &s, bool last)
{
    std::printf("    {\"ecc\": \"%s\", \"pdata\": %g, \"retention\": %g, ",
                ecc, pdata, retention);
    bench::printOutcomes(s);
    std::printf(
        "\"data_faults_injected\": %llu, "
        "\"ecc_corrections\": %llu, \"ecc_due\": %llu, "
        "\"guard_retries\": %llu, \"breaker_trips\": %llu, "
        "\"retired_groups\": %llu, \"maintenance_units\": %llu, "
        "\"capacity_loss\": %.4f}%s\n",
        static_cast<unsigned long long>(s.dataFaultsInjected),
        static_cast<unsigned long long>(s.eccCorrections),
        static_cast<unsigned long long>(s.eccDetectedUncorrectable),
        static_cast<unsigned long long>(s.guardRetries),
        static_cast<unsigned long long>(s.breakerTrips),
        static_cast<unsigned long long>(s.retiredGroups),
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
    ServiceFaultConfig faults; // per-point base: carries --retention
    std::optional<EccMode> ecc_only;
    std::optional<double> pdata_only;
    parseOrExit({argv + 1, argv + argc},
                Options{opt("pdata", pdata_only, "run this rate only",
                            probabilityValid, kProbabilityRange),
                        opt("ecc", ecc_only, "run this protection mode only"),
                        opt("retention", faults.retentionRatePerCycle,
                            "per-bit retention decay rate per cycle",
                            decayRateValid, kDecayRateRange)} +
                    run.options());
    std::vector<EccMode> modes = {EccMode::None, EccMode::Secded};
    std::vector<double> rates = {0.0, 1e-7, 1e-6, 1e-5};
    if (ecc_only)
        modes = {*ecc_only};
    if (pdata_only)
        rates = {*pdata_only};

    bench::printSweepHeader("service_ecc_tolerance", cfg);
    std::size_t total = modes.size() * rates.size();
    std::size_t done = 0;
    int rc = 0;
    for (EccMode ecc : modes) {
        for (double pdata : rates) {
            cfg.faults = faults;
            cfg.faults.dataFaultRate = pdata;
            cfg.faults.ecc = ecc;
            if (ecc == EccMode::Secded)
                cfg.faults.pimNmr = 3; // NMR covers the TR path
            ServiceStats s = runService(cfg);
            ++done;
            printPoint(eccModeName(ecc), pdata,
                       faults.retentionRatePerCycle, s, done == total);
            // Headline guarantee: SECDED (plus NMR on the TR path)
            // leaves no single-bit-dominated fault silent.
            if (ecc == EccMode::Secded &&
                s.outcomes[static_cast<std::size_t>(
                    RequestOutcome::Sdc)] != 0) {
                std::fprintf(stderr,
                             "FAIL: SDC under SECDED at pdata=%g\n",
                             pdata);
                rc = 1;
            }
        }
    }
    std::printf("  ]\n}\n");
    return rc;
}
