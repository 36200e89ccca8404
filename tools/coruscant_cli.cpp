/**
 * @file
 * coruscant_cli — command-line driver for the simulator.
 *
 * Subcommands:
 *   ops         operation costs for a TRD/width (Table III view)
 *   area        PIM area overheads (Table I view)
 *   bitmap      bitmap-index query experiment (Fig. 12 view)
 *   polybench   kernel system comparison (Fig. 10/11 view)
 *   cnn         CNN throughput table (Table IV view)
 *   reliability analytical error rates (Table V view)
 *   campaign    end-to-end shift-fault campaign (DUE/SDC taxonomy)
 *   serve       sharded request-service simulation (tail latency)
 *
 * Options use --key value pairs and are validated strictly: an
 * unknown option, a missing value, or a malformed number is a usage
 * error (exit 2), never a silent fall-back to a default.
 * `coruscant_cli help` lists every option.
 *
 * Observability: ops, campaign, and serve accept
 *   --metrics-json FILE   per-component counter export (JSON)
 *   --trace FILE          Chrome trace-event file (load in Perfetto)
 *
 * Exit codes: 0 success, 1 runtime error, 2 usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/bitmap/bitmap_index.hpp"
#include "apps/cnn/throughput_model.hpp"
#include "apps/polybench/system_model.hpp"
#include "core/op_cost.hpp"
#include "dwm/area_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "reliability/error_model.hpp"
#include "reliability/fault_campaign.hpp"
#include "service/service_engine.hpp"
#include "util/cli_args.hpp"
#include "util/logging.hpp"

using namespace coruscant;

namespace {

/** Parse strictly against @p specs; exits 2 on any violation. */
ParsedArgs
parseOrDie(const std::vector<std::string> &args,
           const std::vector<ArgSpec> &specs)
{
    ParsedArgs o = parseArgs(args, specs);
    if (!o.ok()) {
        std::fprintf(stderr, "error: %s\n", o.error().c_str());
        std::fprintf(stderr,
                     "run 'coruscant_cli help' for the option list\n");
        std::exit(2);
    }
    return o;
}

/**
 * Parse the shared data-fault/ECC knobs (--pdata, --pstuck,
 * --retention, --ecc, --nmr) into any struct exposing the matching
 * fields.  Returns false (usage error, exit 2) on an unknown --ecc
 * value, an out-of-range probability, or an illegal NMR arity.
 */
template <typename FaultFields>
bool
parseDataFaultArgs(const ParsedArgs &o, FaultFields &f)
{
    double pdata = o.getDouble("pdata", 0.0);
    double pstuck = o.getDouble("pstuck", 0.0);
    double retention = o.getDouble("retention", 0.0);
    if (pdata < 0.0 || pdata > 1.0 || pstuck < 0.0 || pstuck > 1.0) {
        std::fprintf(stderr,
                     "--pdata/--pstuck must be probabilities in "
                     "[0, 1]\n");
        return false;
    }
    if (retention < 0.0) {
        std::fprintf(stderr, "--retention must be non-negative\n");
        return false;
    }
    std::string ecc = o.getString("ecc", "none");
    if (ecc == "none")
        f.ecc = EccMode::None;
    else if (ecc == "secded")
        f.ecc = EccMode::Secded;
    else {
        std::fprintf(stderr, "unknown ecc '%s' (none, secded)\n",
                     ecc.c_str());
        return false;
    }
    std::size_t nmr = o.getSize("nmr", 1);
    if (nmr != 1 && nmr != 3 && nmr != 5 && nmr != 7) {
        std::fprintf(stderr, "--nmr must be 1, 3, 5, or 7\n");
        return false;
    }
    f.pimNmr = nmr;
    f.dataFaultRate = pdata;
    f.stuckAtFraction = pstuck;
    f.retentionRatePerCycle = retention;
    return true;
}

/** Write @p text to @p path; reports and fails on I/O errors. */
bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    if (os)
        os << text;
    if (!os) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     path.c_str());
        return false;
    }
    return true;
}

/** Write the sink's trace-event JSON to @p path. */
bool
writeTraceFile(const std::string &path, const obs::TraceSink &trace)
{
    std::ofstream os(path);
    if (os)
        trace.writeJson(os);
    if (!os) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     path.c_str());
        return false;
    }
    return true;
}

int
cmdOps(const std::vector<std::string> &args)
{
    ParsedArgs o = parseOrDie(args, {{"trd", ArgType::Size},
                                     {"bits", ArgType::Size},
                                     {"metrics-json", ArgType::String},
                                     {"trace", ArgType::String}});
    std::size_t trd = o.getSize("trd", 7);
    std::size_t bits = o.getSize("bits", 8);
    CoruscantCostModel cost(trd);
    obs::MetricsRegistry reg;
    if (o.has("metrics-json"))
        cost.attachMetrics(&reg); // record primitives per measured op
    std::printf("CORUSCANT operation costs (TRD=%zu, %zu-bit):\n", trd,
                bits);
    auto p = [&](const char *name, OpCost c) {
        std::printf("  %-28s %6llu cycles  %10.2f pJ\n", name,
                    static_cast<unsigned long long>(c.cycles),
                    c.energyPj);
    };
    p("2-operand add", cost.add(2, bits));
    p("max-arity add", cost.add(cost.maxAddOperands(), bits));
    p("multiply (CSA)", cost.multiply(bits));
    p("multiply (arbitrary)",
      cost.multiply(bits, MulStrategy::Arbitrary));
    p("bulk AND (TRD operands)", cost.bulkBitwise(trd));
    p("7->3 reduction", cost.reduce());
    p("max (TRD candidates)", cost.max(trd, bits));
    p("NMR vote (N=3)", cost.nmrVote(3));

    if (o.has("metrics-json") &&
        !writeTextFile(o.getString("metrics-json", ""), reg.toJson()))
        return 1;
    if (o.has("trace")) {
        // Re-run the composite ops on instrumented units so the trace
        // shows each op's span tree (cycles rendered as microseconds).
        obs::TraceSink trace;
        trace.enable();
        trace.processName(0, "coruscant ops");
        DeviceParams dp_add = DeviceParams::withTrd(trd);
        dp_add.wiresPerDbc = bits;
        CoruscantUnit add_unit(dp_add);
        add_unit.attachTrace(&trace, 0, 0);
        std::vector<BitVector> ops2(2, BitVector(bits, true));
        add_unit.add(ops2, bits, bits);

        DeviceParams dp_mul = DeviceParams::withTrd(trd);
        dp_mul.wiresPerDbc = 2 * bits;
        CoruscantUnit mul_unit(dp_mul);
        mul_unit.attachTrace(&trace, 0, 1);
        BitVector a = BitVector::fromUint64(2 * bits, (1ULL << bits) - 1);
        mul_unit.multiply(a, a, bits);

        DeviceParams dp_row = DeviceParams::withTrd(trd);
        dp_row.wiresPerDbc = 512;
        CoruscantUnit row_unit(dp_row);
        row_unit.attachTrace(&trace, 0, 2);
        std::vector<BitVector> rows(trd, BitVector(512, true));
        row_unit.bulkBitwise(BulkOp::And, rows);
        row_unit.reduce(rows, 512);
        row_unit.nmrVote({rows[0], rows[1], rows[2]});
        if (!writeTraceFile(o.getString("trace", ""), trace))
            return 1;
    }
    return 0;
}

int
cmdArea(const std::vector<std::string> &args)
{
    parseOrDie(args, {});
    AreaModel model;
    std::printf("PIM area overhead (1 PIM tile per subarray):\n");
    std::printf("  ADD2          %.1f %%\n",
                100 * model.memoryOverheadFraction(
                          PimFeatureSet::add2()));
    std::printf("  ADD5          %.1f %%\n",
                100 * model.memoryOverheadFraction(
                          PimFeatureSet::add5()));
    std::printf("  MUL+ADD5      %.1f %%\n",
                100 * model.memoryOverheadFraction(
                          PimFeatureSet::mulAdd5()));
    std::printf("  MUL+ADD5+BBO  %.1f %%\n",
                100 * model.memoryOverheadFraction(
                          PimFeatureSet::mulAdd5Bbo()));
    return 0;
}

int
cmdBitmap(const std::vector<std::string> &args)
{
    ParsedArgs o = parseOrDie(
        args, {{"users", ArgType::Size}, {"weeks", ArgType::Size}});
    std::size_t users = o.getSize("users", 1u << 20);
    std::size_t weeks = o.getSize("weeks", 4);
    auto db = BitmapDatabase::synthesize(users, weeks);
    BitmapQueryEngine eng(db);
    std::printf("bitmap query over %zu users:\n", users);
    for (std::size_t w = 2; w <= weeks; ++w) {
        auto cpu = eng.runCpuDram(w);
        auto elp = eng.runElp2im(w);
        auto cor = eng.runCoruscant(w);
        std::printf("  w=%zu matches=%llu  cpu=%llu elp2im=%llu "
                    "coruscant=%llu cycles (%.2fx over elp2im)\n",
                    w, static_cast<unsigned long long>(cor.matches),
                    static_cast<unsigned long long>(cpu.cycles),
                    static_cast<unsigned long long>(elp.cycles),
                    static_cast<unsigned long long>(cor.cycles),
                    static_cast<double>(elp.cycles) /
                        static_cast<double>(cor.cycles));
    }
    return 0;
}

int
cmdPolybench(const std::vector<std::string> &args)
{
    ParsedArgs o = parseOrDie(args, {{"size", ArgType::Size}});
    std::size_t n = o.getSize("size", 48);
    PolybenchSystemModel model;
    std::printf("polybench system comparison (n=%zu):\n", n);
    for (const auto &run : runAllPolybench(n)) {
        auto r = model.evaluate(run);
        std::printf("  %-10s dwm/pim=%.2f dram/pim=%.2f "
                    "energy=%.1fx\n",
                    r.kernel.c_str(), r.latencyGainVsDwm(),
                    r.latencyGainVsDram(), r.energyGain());
    }
    return 0;
}

int
cmdCnn(const std::vector<std::string> &args)
{
    ParsedArgs o = parseOrDie(
        args, {{"network", ArgType::String}, {"mode", ArgType::String}});
    std::string net_name = o.getString("network", "alexnet");
    std::string mode_name = o.getString("mode", "fp");
    if (net_name != "alexnet" && net_name != "lenet5") {
        std::fprintf(stderr,
                     "unknown network '%s' (alexnet, lenet5)\n",
                     net_name.c_str());
        return 2;
    }
    if (mode_name != "fp" && mode_name != "twn" && mode_name != "bwn") {
        std::fprintf(stderr, "unknown mode '%s' (fp, twn, bwn)\n",
                     mode_name.c_str());
        return 2;
    }
    CnnNetwork net = net_name == "lenet5" ? CnnNetwork::lenet5()
                                          : CnnNetwork::alexnet();
    CnnMode mode = mode_name == "twn" ? CnnMode::TernaryWeight
                   : mode_name == "bwn" ? CnnMode::BinaryWeight
                                        : CnnMode::FullPrecision;
    CnnThroughputModel model;
    std::printf("%s, %s:\n", net.name.c_str(), cnnModeName(mode));
    for (const auto &cell : model.table(net, mode))
        std::printf("  %-12s %10.1f FPS\n",
                    cnnSchemeName(cell.scheme), cell.fps);
    return 0;
}

int
cmdReliability(const std::vector<std::string> &args)
{
    ParsedArgs o = parseOrDie(
        args, {{"trd", ArgType::Size}, {"pfault", ArgType::Double}});
    std::size_t trd = o.getSize("trd", 7);
    double p = o.getDouble("pfault", 1e-6);
    TrErrorModel m(trd, p);
    std::printf("error rates (TRD=%zu, p_TR=%g):\n", trd, p);
    std::printf("  AND/OR/C' per bit : %.3g\n",
                m.perBitOrAndSuperCarry());
    std::printf("  XOR per bit       : %.3g\n", m.perBitXor());
    std::printf("  C per bit         : %.3g\n", m.perBitCarry());
    std::printf("  8-bit add         : %.3g\n", m.addError(8));
    std::printf("  8-bit multiply    : %.3g\n", m.multiplyError(8));
    std::printf("  add with TMR      : %.3g\n", m.nmrAddError(3, 8));
    if (trd >= 5)
        std::printf("  add with N=5      : %.3g\n",
                    m.nmrAddError(5, 8));
    return 0;
}

int
cmdCampaign(const std::vector<std::string> &args)
{
    ParsedArgs o = parseOrDie(args, {{"pshift", ArgType::Double},
                                     {"trials", ArgType::Size},
                                     {"seed", ArgType::Size},
                                     {"retire", ArgType::Size},
                                     {"policy", ArgType::String},
                                     {"pdata", ArgType::Double},
                                     {"pstuck", ArgType::Double},
                                     {"retention", ArgType::Double},
                                     {"ecc", ArgType::String},
                                     {"nmr", ArgType::Size},
                                     {"metrics-json", ArgType::String},
                                     {"trace", ArgType::String}});
    ControllerCampaignConfig cfg;
    cfg.shiftFaultRate = o.getDouble("pshift", 1e-3);
    cfg.trials = o.getSize("trials", 500);
    cfg.seed = o.getSize("seed", 1);
    cfg.retireThreshold = o.getSize("retire", 0);
    if (!parseDataFaultArgs(o, cfg))
        return 2;
    std::string policy = o.getString("policy", "per-access");
    if (policy == "none")
        cfg.policy = GuardPolicy::None;
    else if (policy == "per-access")
        cfg.policy = GuardPolicy::PerAccess;
    else if (policy == "per-cpim")
        cfg.policy = GuardPolicy::PerCpim;
    else if (policy == "scrub")
        cfg.policy = GuardPolicy::PeriodicScrub;
    else {
        std::fprintf(stderr, "unknown policy '%s' (none, per-access, "
                             "per-cpim, scrub)\n",
                     policy.c_str());
        return 2;
    }
    obs::MetricsRegistry reg;
    obs::TraceSink trace;
    if (o.has("trace")) {
        trace.enable();
        trace.processName(0, "campaign");
    }
    if (o.has("metrics-json") || o.has("trace")) {
        cfg.metrics = &reg;
        cfg.trace = o.has("trace") ? &trace : nullptr;
    }
    auto res = FaultCampaign::controllerCampaign(cfg);
    std::printf("end-to-end campaign: policy=%s p_shift=%g "
                "trials=%llu seed=%llu\n",
                guardPolicyName(cfg.policy), cfg.shiftFaultRate,
                static_cast<unsigned long long>(cfg.trials),
                static_cast<unsigned long long>(cfg.seed));
    std::printf("  clean                  : %llu\n",
                static_cast<unsigned long long>(res.clean));
    std::printf("  detected + corrected   : %llu\n",
                static_cast<unsigned long long>(res.corrected));
    std::printf("  detected uncorrectable : %llu\n",
                static_cast<unsigned long long>(res.due));
    std::printf("  silent data corruption : %llu\n",
                static_cast<unsigned long long>(res.sdc));
    std::printf("  injected shift faults  : %llu\n",
                static_cast<unsigned long long>(res.injectedFaults));
    std::printf("  guard checks           : %llu\n",
                static_cast<unsigned long long>(res.guardChecks));
    std::printf("  corrective pulses      : %llu\n",
                static_cast<unsigned long long>(res.correctivePulses));
    std::printf("  retired DBCs           : %llu\n",
                static_cast<unsigned long long>(res.retiredDbcs));
    if (cfg.dataFaultRate > 0.0 || cfg.stuckAtFraction > 0.0 ||
        cfg.retentionRatePerCycle > 0.0 || cfg.ecc != EccMode::None) {
        std::printf("  data faults injected   : %llu\n",
                    static_cast<unsigned long long>(
                        res.dataFaultsInjected));
        std::printf("  ecc corrections        : %llu\n",
                    static_cast<unsigned long long>(
                        res.eccCorrections));
        std::printf("  ecc detected DUE       : %llu\n",
                    static_cast<unsigned long long>(res.eccDue));
    }
    std::printf("  coverage               : %.4f\n", res.coverage());
    std::printf("  SDC rate               : %.4g\n", res.sdcRate());
    if (o.has("metrics-json") &&
        !writeTextFile(o.getString("metrics-json", ""), reg.toJson()))
        return 1;
    if (o.has("trace") &&
        !writeTraceFile(o.getString("trace", ""), trace))
        return 1;
    return 0;
}

int
cmdServe(const std::vector<std::string> &args)
{
    ParsedArgs o = parseOrDie(args, {{"channels", ArgType::Size},
                                     {"threads", ArgType::Size},
                                     {"banks", ArgType::Size},
                                     {"groups", ArgType::Size},
                                     {"trd", ArgType::Size},
                                     {"seed", ArgType::Size},
                                     {"rate", ArgType::Double},
                                     {"duration", ArgType::Size},
                                     {"window", ArgType::Size},
                                     {"queue-cap", ArgType::Size},
                                     {"hot", ArgType::Size},
                                     {"clients", ArgType::Size},
                                     {"batch", ArgType::String},
                                     {"mix", ArgType::String},
                                     {"process", ArgType::String},
                                     {"pshift", ArgType::Double},
                                     {"policy", ArgType::String},
                                     {"pdata", ArgType::Double},
                                     {"pstuck", ArgType::Double},
                                     {"retention", ArgType::Double},
                                     {"ecc", ArgType::String},
                                     {"nmr", ArgType::Size},
                                     {"chaos", ArgType::String},
                                     {"retries", ArgType::Size},
                                     {"backoff", ArgType::Size},
                                     {"health-window", ArgType::Size},
                                     {"breaker-threshold", ArgType::Size},
                                     {"cooldown", ArgType::Size},
                                     {"trips", ArgType::Size},
                                     {"spares", ArgType::Size},
                                     {"scrub-interval", ArgType::Size},
                                     {"metrics-json", ArgType::String},
                                     {"trace", ArgType::String}});
    ServiceConfig cfg;
    cfg.channels =
        static_cast<std::uint32_t>(o.getSize("channels", 8));
    cfg.threads = static_cast<std::uint32_t>(o.getSize("threads", 1));
    cfg.banksPerChannel =
        static_cast<std::uint32_t>(o.getSize("banks", 16));
    cfg.dbcGroupsPerBank =
        static_cast<std::uint32_t>(o.getSize("groups", 4));
    cfg.trd = o.getSize("trd", 7);
    cfg.seed = o.getSize("seed", 1);
    cfg.ratePerKcycle = o.getDouble("rate", 8.0);
    cfg.durationCycles = o.getSize("duration", 100000);
    cfg.batchWindowCycles = o.getSize("window", 256);
    cfg.queueCapacity = o.getSize("queue-cap", 64);
    cfg.bulkHotGroups = static_cast<std::uint32_t>(o.getSize("hot", 8));
    cfg.closedLoopWindow =
        static_cast<std::uint32_t>(o.getSize("clients", 8));
    std::string batch = o.getString("batch", "on");
    if (batch != "on" && batch != "off") {
        std::fprintf(stderr, "unknown batch '%s' (on, off)\n",
                     batch.c_str());
        return 2;
    }
    cfg.batching = batch != "off";
    std::string mix = o.getString("mix", "");
    if (!mix.empty())
        cfg.mix = WorkloadMix::parse(mix);
    std::string process = o.getString("process", "poisson");
    if (process == "poisson")
        cfg.process = ArrivalProcess::Poisson;
    else if (process == "bursty")
        cfg.process = ArrivalProcess::Bursty;
    else if (process == "closed")
        cfg.process = ArrivalProcess::ClosedLoop;
    else {
        std::fprintf(stderr,
                     "unknown process '%s' (poisson, bursty, closed)\n",
                     process.c_str());
        return 2;
    }
    ServiceFaultConfig &faults = cfg.faults;
    faults.shiftFaultRate = o.getDouble("pshift", 0.0);
    std::string fault_policy = o.getString("policy", "per-access");
    if (fault_policy == "none")
        faults.policy = GuardPolicy::None;
    else if (fault_policy == "per-access")
        faults.policy = GuardPolicy::PerAccess;
    else if (fault_policy == "per-cpim")
        faults.policy = GuardPolicy::PerCpim;
    else if (fault_policy == "scrub")
        faults.policy = GuardPolicy::PeriodicScrub;
    else {
        std::fprintf(stderr, "unknown policy '%s' (none, per-access, "
                             "per-cpim, scrub)\n",
                     fault_policy.c_str());
        return 2;
    }
    faults.maxRetries = o.getSize("retries", faults.maxRetries);
    faults.retryBackoffCycles =
        o.getSize("backoff", faults.retryBackoffCycles);
    if (!faults.retryLadderInRange()) {
        std::fprintf(stderr, "--retries must be at most 16 and --backoff "
                             "at most 2^32 (4294967296)\n");
        return 2;
    }
    faults.healthWindowCycles =
        o.getSize("health-window", faults.healthWindowCycles);
    faults.breakerThreshold = static_cast<std::uint32_t>(
        o.getSize("breaker-threshold", faults.breakerThreshold));
    faults.breakerCooldownCycles =
        o.getSize("cooldown", faults.breakerCooldownCycles);
    faults.tripsToRetire = static_cast<std::uint32_t>(
        o.getSize("trips", faults.tripsToRetire));
    faults.sparesPerChannel = static_cast<std::uint32_t>(
        o.getSize("spares", faults.sparesPerChannel));
    faults.scrubIntervalCycles =
        o.getSize("scrub-interval", faults.scrubIntervalCycles);
    if (!parseDataFaultArgs(o, faults))
        return 2;
    std::string chaos = o.getString("chaos", "off");
    if (chaos != "on" && chaos != "off") {
        std::fprintf(stderr, "unknown chaos '%s' (on, off)\n",
                     chaos.c_str());
        return 2;
    }
    if (chaos == "on") {
        // Chaos mode: ramp the fault rate through a mid-run storm.
        // Base rate defaults to 1e-3 when --pshift was not given.
        double base =
            faults.shiftFaultRate > 0.0 ? faults.shiftFaultRate : 1e-3;
        faults.ramp =
            ServiceFaultConfig::chaosRamp(base, cfg.durationCycles);
    }
    cfg.collectMetrics = o.has("metrics-json");
    cfg.collectTrace = o.has("trace");
    std::printf("serve: channels=%u threads=%u banks=%u process=%s "
                "rate=%.3g/kcycle duration=%llu seed=%llu batch=%s "
                "mix=%s\n",
                cfg.channels, cfg.threads, cfg.banksPerChannel,
                arrivalProcessName(cfg.process), cfg.ratePerKcycle,
                static_cast<unsigned long long>(cfg.durationCycles),
                static_cast<unsigned long long>(cfg.seed),
                cfg.batching ? "on" : "off",
                cfg.mix.describe().c_str());
    if (cfg.faults.enabled())
        std::printf("faults: pshift=%g policy=%s chaos=%s retries=%zu "
                    "backoff=%llu spares=%u\n",
                    faults.shiftFaultRate,
                    guardPolicyName(faults.policy), chaos.c_str(),
                    faults.maxRetries,
                    static_cast<unsigned long long>(
                        faults.retryBackoffCycles),
                    faults.sparesPerChannel);
    if (cfg.faults.dataFaultsEnabled())
        std::printf("data faults: pdata=%g pstuck=%g retention=%g "
                    "ecc=%s nmr=%zu\n",
                    faults.dataFaultRate, faults.stuckAtFraction,
                    faults.retentionRatePerCycle,
                    eccModeName(faults.ecc), faults.pimNmr);
    ServiceStats stats = runService(cfg);
    std::printf("%s", stats.report().c_str());
    if (cfg.collectMetrics &&
        !writeTextFile(o.getString("metrics-json", ""),
                       stats.metrics.toJson()))
        return 1;
    if (cfg.collectTrace &&
        !writeTraceFile(o.getString("trace", ""), stats.trace))
        return 1;
    return 0;
}

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: coruscant_cli <command> [--key value ...]\n\n"
        "commands:\n"
        "  ops         [--trd 7] [--bits 8]     operation costs\n"
        "  area                                 PIM area overheads\n"
        "  bitmap      [--users N] [--weeks 4]  Fig. 12 experiment\n"
        "  polybench   [--size 48]              Fig. 10/11 experiment\n"
        "  cnn         [--network alexnet|lenet5] [--mode fp|twn|bwn]\n"
        "  reliability [--trd 7] [--pfault 1e-6]\n"
        "  campaign    [--pshift 1e-3] [--trials 500] [--seed 1]\n"
        "              [--policy none|per-access|per-cpim|scrub]\n"
        "              [--retire N] [--pdata 0] [--pstuck 0]\n"
        "              [--retention 0] [--ecc none|secded]\n"
        "              [--nmr 1|3|5|7]\n"
        "  serve       [--channels 8] [--threads 1] [--banks 16]\n"
        "              [--rate 8] [--duration 100000] [--seed 1]\n"
        "              [--mix read:0.2,bulk:0.5,...] [--batch on|off]\n"
        "              [--process poisson|bursty|closed] [--window 256]\n"
        "              [--queue-cap 64] [--clients 8] [--trd 7]\n"
        "              [--pshift 0] [--policy per-access|none|per-cpim|\n"
        "               scrub] [--chaos on|off] [--retries 2 (<=16)]\n"
        "              [--backoff 64 (<=2^32)] [--health-window 20000]\n"
        "              [--breaker-threshold 8] [--cooldown 10000]\n"
        "              [--trips 3] [--spares 4] [--scrub-interval 4096]\n"
        "              [--pdata 0] [--pstuck 0] [--retention 0]\n"
        "              [--ecc none|secded] [--nmr 1|3|5|7]\n"
        "  help                                 this text\n\n"
        "observability (ops, campaign, serve):\n"
        "  --metrics-json FILE   per-component counters as JSON\n"
        "  --trace FILE          Chrome trace events (Perfetto)\n\n"
        "options are validated strictly: unknown flags, missing\n"
        "values, and malformed numbers exit 2.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(stderr);
        return 2;
    }
    std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        usage(stdout);
        return 0;
    }
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (cmd == "ops")
            return cmdOps(args);
        if (cmd == "area")
            return cmdArea(args);
        if (cmd == "bitmap")
            return cmdBitmap(args);
        if (cmd == "polybench")
            return cmdPolybench(args);
        if (cmd == "cnn")
            return cmdCnn(args);
        if (cmd == "reliability")
            return cmdReliability(args);
        if (cmd == "campaign")
            return cmdCampaign(args);
        if (cmd == "serve")
            return cmdServe(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    usage(stderr);
    return 2;
}
