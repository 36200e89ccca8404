#include "workloads.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

namespace perfbench {

using namespace coruscant;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "serve_clean", "serve_faults", "campaign_ecc", "bitmap_query"};
    return names;
}

ServiceConfig
serveCleanConfig(std::uint64_t seed, Scale scale)
{
    ServiceConfig cfg;
    cfg.seed = seed;
    cfg.threads = 1;
    cfg.process = ArrivalProcess::Poisson;
    cfg.channels = scale == Scale::Full ? 8 : 2;
    cfg.durationCycles = scale == Scale::Full ? 100000000 : 200000;
    return cfg;
}

ServiceConfig
serveFaultsConfig(std::uint64_t seed, Scale scale, std::uint32_t threads)
{
    if (threads == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        threads = std::clamp(hw, 1u, 4u);
    }
    ServiceConfig cfg;
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.process = ArrivalProcess::Bursty;
    cfg.channels = scale == Scale::Full ? 16 : 4;
    cfg.collectMetrics = true;
    ServiceFaultConfig &f = cfg.faults;
    f.policy = GuardPolicy::PerCpim;
    f.shiftFaultRate = 1e-4;
    f.dataFaultRate = 1e-6;
    f.retentionRatePerCycle = 1e-12;
    f.ecc = EccMode::Secded;
    f.pimNmr = 3;
    // The chaos ramp starts from the base rate; withDuration lays it out.
    f.ramp = {{0, f.shiftFaultRate}};
    return withDuration(cfg, scale == Scale::Full ? 40000000 : 200000);
}

ServiceConfig
withDuration(const ServiceConfig &cfg, std::uint64_t duration)
{
    ServiceConfig out = cfg;
    out.durationCycles = duration;
    // The chaos ramp is laid out in quarters of the run.
    if (!out.faults.ramp.empty())
        out.faults.ramp = ServiceFaultConfig::chaosRamp(
            out.faults.shiftFaultRate, duration);
    return out;
}

ControllerCampaignConfig
campaignConfig(std::uint64_t seed, Scale scale)
{
    ControllerCampaignConfig cfg;
    cfg.seed = seed;
    cfg.trials = scale == Scale::Full ? 20000 : 300;
    cfg.policy = GuardPolicy::PerCpim;
    cfg.shiftFaultRate = 1e-3;
    cfg.dataFaultRate = 1e-4;
    cfg.ecc = EccMode::Secded;
    cfg.pimNmr = 3;
    cfg.retireThreshold = 0;
    return cfg;
}

MemoryConfig
campaignMemoryConfig(const ControllerCampaignConfig &ccfg)
{
    MemoryConfig mcfg;
    mcfg.banks = 2;
    mcfg.subarraysPerBank = 2;
    mcfg.tilesPerSubarray = 2;
    mcfg.dbcsPerTile = 2;
    mcfg.pimDbcsPerSubarray = 1;
    mcfg.device.wiresPerDbc = 64;
    mcfg.reliability.shiftFaultRate = ccfg.shiftFaultRate;
    mcfg.reliability.shiftFaultSeed = ccfg.seed;
    mcfg.reliability.guardPolicy = ccfg.policy;
    mcfg.reliability.maxRetries = ccfg.maxRetries;
    mcfg.reliability.retireThreshold = ccfg.retireThreshold;
    mcfg.reliability.dataFaultRate = ccfg.dataFaultRate;
    mcfg.reliability.stuckAtFraction = ccfg.stuckAtFraction;
    mcfg.reliability.retentionRatePerCycle = ccfg.retentionRatePerCycle;
    mcfg.reliability.dataFaultSeed = ccfg.seed ^ 0xda7af17u;
    mcfg.reliability.eccMode = ccfg.ecc;
    mcfg.reliability.pimNmr = ccfg.pimNmr;
    return mcfg;
}

BitmapSpec
bitmapSpec(std::uint64_t seed, Scale scale)
{
    BitmapSpec spec;
    spec.seed = seed;
    // A quarter of the paper's 16 Mi users; the tiny size leaves a
    // partial last chunk on both the 512-bit and 65536-bit paths.
    spec.users = scale == Scale::Full ? (std::size_t{1} << 22) : 70000;
    return spec;
}

std::vector<BitmapEval>
runBitmapQueries(const BitmapDatabase &db, const BitmapSpec &spec)
{
    BitmapQueryEngine engine(db);
    std::vector<BitmapEval> out;
    for (std::size_t w : spec.queries) {
        out.push_back({w, engine.runCpuDram(w)});
        out.push_back({w, engine.runElp2im(w)});
        out.push_back({w, engine.runCoruscant(w)});
    }
    return out;
}

// --- Provenance ---------------------------------------------------------

std::string
configJson(const ServiceConfig &cfg)
{
    const ServiceFaultConfig &f = cfg.faults;
    std::vector<std::string> ramp;
    for (const FaultRampStep &step : f.ramp)
        ramp.push_back(JsonObject()
                           .add("start_cycle", step.startCycle)
                           .add("rate", step.rate)
                           .str());
    JsonObject faults;
    faults.add("shift_fault_rate", f.shiftFaultRate)
        .add("over_shift_fraction", f.overShiftFraction)
        .addRaw("ramp", jsonArray(ramp))
        .add("policy", guardPolicyName(f.policy))
        .add("max_retries", static_cast<std::uint64_t>(f.maxRetries))
        .add("retry_backoff_cycles", f.retryBackoffCycles)
        .add("health_window_cycles", f.healthWindowCycles)
        .add("breaker_threshold", f.breakerThreshold)
        .add("breaker_cooldown_cycles", f.breakerCooldownCycles)
        .add("trips_to_retire", f.tripsToRetire)
        .add("spares_per_channel", f.sparesPerChannel)
        .add("scrub_interval_cycles", f.scrubIntervalCycles)
        .add("data_fault_rate", f.dataFaultRate)
        .add("stuck_at_fraction", f.stuckAtFraction)
        .add("retention_rate_per_cycle", f.retentionRatePerCycle)
        .add("ecc", eccModeName(f.ecc))
        .add("pim_nmr", static_cast<std::uint64_t>(f.pimNmr));
    return JsonObject()
        .add("api", "runService")
        .add("channels", cfg.channels)
        .add("threads", cfg.threads)
        .add("banks_per_channel", cfg.banksPerChannel)
        .add("dbc_groups_per_bank", cfg.dbcGroupsPerBank)
        .add("trd", static_cast<std::uint64_t>(cfg.trd))
        .add("seed", cfg.seed)
        .add("mix", cfg.mix.describe())
        .add("process", arrivalProcessName(cfg.process))
        .add("rate_per_kcycle", cfg.ratePerKcycle)
        .add("duration_cycles", cfg.durationCycles)
        .add("burst_factor", cfg.burstFactor)
        .add("burst_fraction", cfg.burstFraction)
        .add("bulk_hot_groups", cfg.bulkHotGroups)
        .add("batching", cfg.batching)
        .add("batch_window_cycles", cfg.batchWindowCycles)
        .add("queue_capacity", static_cast<std::uint64_t>(cfg.queueCapacity))
        .add("collect_metrics", cfg.collectMetrics)
        .add("collect_trace", cfg.collectTrace)
        .addRaw("faults", faults.str())
        .str();
}

std::string
configJson(const ControllerCampaignConfig &cfg)
{
    return JsonObject()
        .add("api", "FaultCampaign::controllerCampaign")
        .add("shift_fault_rate", cfg.shiftFaultRate)
        .add("policy", guardPolicyName(cfg.policy))
        .add("trials", cfg.trials)
        .add("seed", cfg.seed)
        .add("operands", static_cast<std::uint64_t>(cfg.operands))
        .add("block_size", static_cast<std::uint64_t>(cfg.blockSize))
        .add("max_retries", static_cast<std::uint64_t>(cfg.maxRetries))
        .add("retire_threshold", cfg.retireThreshold)
        .add("data_fault_rate", cfg.dataFaultRate)
        .add("stuck_at_fraction", cfg.stuckAtFraction)
        .add("retention_rate_per_cycle", cfg.retentionRatePerCycle)
        .add("ecc", eccModeName(cfg.ecc))
        .add("pim_nmr", static_cast<std::uint64_t>(cfg.pimNmr))
        .str();
}

std::string
configJson(const BitmapSpec &spec)
{
    std::vector<std::string> q;
    for (std::size_t w : spec.queries)
        q.push_back(std::to_string(w));
    return JsonObject()
        .add("api", "BitmapQueryEngine")
        .add("users", static_cast<std::uint64_t>(spec.users))
        .add("weeks", static_cast<std::uint64_t>(spec.weeks))
        .addRaw("queries", jsonArray(q))
        .add("techniques", "cpu-dram,elp2im,coruscant")
        .add("trd", std::uint64_t{7})
        .add("seed", spec.seed)
        .str();
}

// --- Canonical outputs ---------------------------------------------------

namespace {

void
line(std::ostringstream &os, const std::string &key, std::uint64_t v)
{
    os << key << '=' << v << '\n';
}

} // namespace

std::string
canonicalOutputs(const ServiceStats &s)
{
    std::ostringstream os;
    line(os, "channels", s.channels);
    line(os, "makespan", s.makespan);
    line(os, "generated", s.generated);
    line(os, "admitted", s.admitted);
    line(os, "rejected", s.rejected);
    line(os, "completed", s.completed);
    line(os, "dispatched_units", s.dispatchedUnits);
    line(os, "gangs", s.batch.gangs);
    line(os, "ganged_requests", s.batch.gangedRequests);
    line(os, "full_closes", s.batch.fullCloses);
    line(os, "window_closes", s.batch.windowCloses);
    line(os, "latency_p50", s.latency.p50());
    line(os, "latency_p99", s.latency.p99());
    for (std::size_t k = 0; k < kRequestOutcomes; ++k) {
        std::string o = std::string("outcome.") +
                        requestOutcomeName(static_cast<RequestOutcome>(k));
        line(os, o, s.outcomes[k]);
        line(os, o + ".p50", s.outcomeLatency[k].p50());
        line(os, o + ".p99", s.outcomeLatency[k].p99());
    }
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
        const ClassStats &pc = s.perClass[c];
        std::string k = std::string("class.") +
                        requestClassName(static_cast<RequestClass>(c));
        line(os, k + ".generated", pc.generated);
        line(os, k + ".admitted", pc.admitted);
        line(os, k + ".rejected", pc.rejected);
        line(os, k + ".completed", pc.completed);
        line(os, k + ".max_queue_depth", pc.maxQueueDepth);
        line(os, k + ".p50", pc.latency.p50());
        line(os, k + ".p99", pc.latency.p99());
    }
    line(os, "faults.injected", s.injectedFaults);
    line(os, "faults.retries", s.guardRetries);
    line(os, "faults.breaker_trips", s.breakerTrips);
    line(os, "faults.retired_groups", s.retiredGroups);
    line(os, "faults.dead_groups", s.deadGroups);
    line(os, "faults.steered", s.steeredRequests);
    line(os, "faults.capacity_rejections", s.capacityRejections);
    line(os, "faults.maintenance_units", s.maintenanceUnits);
    line(os, "ecc.data_faults", s.dataFaultsInjected);
    line(os, "ecc.corrections", s.eccCorrections);
    line(os, "ecc.due", s.eccDetectedUncorrectable);
    return os.str();
}

std::string
canonicalOutputs(const ControllerCampaignResult &r)
{
    std::ostringstream os;
    line(os, "trials", r.trials);
    line(os, "clean", r.clean);
    line(os, "corrected", r.corrected);
    line(os, "due", r.due);
    line(os, "sdc", r.sdc);
    line(os, "injected_faults", r.injectedFaults);
    line(os, "guard_checks", r.guardChecks);
    line(os, "corrective_pulses", r.correctivePulses);
    line(os, "retired_dbcs", r.retiredDbcs);
    line(os, "residual_after_scrub", r.residualAfterScrub);
    line(os, "data_faults_injected", r.dataFaultsInjected);
    line(os, "ecc_corrections", r.eccCorrections);
    line(os, "ecc_due", r.eccDue);
    return os.str();
}

std::string
canonicalOutputs(const std::vector<BitmapEval> &evals)
{
    std::ostringstream os;
    for (const BitmapEval &e : evals) {
        std::string k =
            e.result.technique + ".w" + std::to_string(e.weeks);
        line(os, k + ".matches", e.result.matches);
        line(os, k + ".cycles", e.result.cycles);
    }
    return os.str();
}

// --- Invariants ----------------------------------------------------------

void
checkInvariants(const ServiceStats &s, Checks &checks)
{
    std::uint64_t bins = 0;
    for (std::uint64_t v : s.outcomes)
        bins += v;
    checks.expect(bins == s.generated, "serve: outcome bins sum to generated");
    checks.expect(s.admitted + s.rejected == s.generated,
                  "serve: admitted + rejected == generated");
    checks.expect(s.completed == s.admitted,
                  "serve: every admitted request completes");
    std::uint64_t per_class = 0;
    for (const ClassStats &pc : s.perClass)
        per_class += pc.generated;
    checks.expect(per_class == s.generated,
                  "serve: per-class generated sums to generated");
    checks.expect(s.generated > 0 && s.makespan > 0,
                  "serve: the run generated traffic");
}

void
checkInvariants(const ControllerCampaignResult &r, Checks &checks)
{
    checks.expect(r.clean + r.corrected + r.due + r.sdc == r.trials,
                  "campaign: taxonomy bins sum to trials");
    checks.expect(r.trials > 0, "campaign: trials ran");
}

void
checkInvariants(const std::vector<BitmapEval> &evals,
                const BitmapQueryEngine &engine, Checks &checks)
{
    for (const BitmapEval &e : evals) {
        checks.expect(e.result.matches == engine.goldenCount(e.weeks),
                      "bitmap: " + e.result.technique + " w=" +
                          std::to_string(e.weeks) +
                          " matches goldenCount");
        checks.expect(e.result.cycles > 0,
                      "bitmap: " + e.result.technique + " w=" +
                          std::to_string(e.weeks) + " has cycles");
    }
}

} // namespace perfbench
