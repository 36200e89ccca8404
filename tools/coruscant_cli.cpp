/**
 * @file
 * coruscant_cli — command-line driver for the simulator.
 *
 * Subcommands (ops, area, bitmap, polybench, cnn, reliability,
 * campaign, serve) are listed in kCommands.  Each declares its options
 * once, as a table bound to its config fields; that table parses and
 * range-checks the `--key value` pairs (a violation is exit 2, never a
 * silent fall-back to a default) and prints `coruscant_cli help`.
 *
 * Exit codes: 0 success, 1 runtime error, 2 usage error.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "apps/bitmap/bitmap_index.hpp"
#include "apps/cnn/throughput_model.hpp"
#include "apps/polybench/system_model.hpp"
#include "core/op_cost.hpp"
#include "dwm/area_model.hpp"
#include "obs/output_files.hpp"
#include "reliability/error_model.hpp"
#include "reliability/fault_campaign.hpp"
#include "service/service_engine.hpp"
#include "util/cli_args.hpp"
#include "util/logging.hpp"

using namespace coruscant;

namespace {

/**
 * How a subcommand is invoked.  With arguments, accept() parses them
 * into the command's option table (exit 2 on any violation); for
 * `help` (no arguments) it prints the table instead and returns false,
 * so the command returns without running.
 */
struct Invocation
{
    const std::vector<std::string> *args = nullptr;
    std::FILE *helpOut = stdout;

    bool
    accept(const Options &options) const
    {
        if (args == nullptr) {
            std::fputs(describeOptions(options).c_str(), helpOut);
            return false;
        }
        parseOrExit(*args, options);
        return true;
    }
};

/**
 * The fault options campaign and serve share, bound to one FaultConfig;
 * @p nmr_help says what else limits --nmr.
 */
Options
faultOptions(FaultConfig &f, const std::string &nmr_help)
{
    return {
        opt("pshift", f.shiftFaultRate, "shift-fault probability per pulse",
            probabilityValid, kProbabilityRange),
        opt("policy", f.policy, "alignment-check cadence"),
        opt("pdata", f.dataFaultRate,
            "per-bit transient flip probability per line access",
            probabilityValid, kProbabilityRange),
        opt("pstuck", f.stuckAtFraction, "fraction of domains stuck-at",
            probabilityValid, kProbabilityRange),
        opt("retention", f.retentionRatePerCycle,
            "per-bit retention decay rate per cycle", decayRateValid,
            kDecayRateRange),
        opt("ecc", f.ecc, "line protection"),
        opt("nmr", f.pimNmr, nmr_help, pimNmrValid, kPimNmrArities),
    };
}

int
cmdOps(const Invocation &in)
{
    std::size_t trd = 7;
    std::size_t bits = 8;
    obs::OutputFiles out;
    if (!in.accept(Options{opt("trd", trd, "transverse-read distance",
                               DeviceParams::kMinPimTrd,
                               DeviceParams::kMaxPimTrd),
                           opt("bits", bits, "operand width",
                               std::size_t{1}, std::size_t{32})} +
                   out.options()))
        return 0;
    CoruscantCostModel cost(trd);
    obs::MetricsRegistry reg;
    if (out.metricsJson)
        cost.attachMetrics(&reg); // record primitives per measured op
    std::printf("CORUSCANT operation costs (TRD=%zu, %zu-bit):\n", trd,
                bits);
    auto p = [&](const std::string &name, OpCost c) {
        std::printf("  %-28s %6llu cycles  %10.2f pJ\n", name.c_str(),
                    static_cast<unsigned long long>(c.cycles),
                    c.energyPj);
    };
    const OpCost add2 = cost.add(2, bits);
    p("2-operand add", add2);
    const std::size_t arity = cost.maxAddOperands();
    p("max-arity add", arity == 2 ? add2 : cost.add(arity, bits));
    p("multiply (CSA)", cost.multiply(bits));
    p("multiply (arbitrary)",
      cost.multiply(bits, MulStrategy::Arbitrary));
    p("bulk AND (TRD operands)", cost.bulkBitwise(trd));
    const DeviceParams dev = DeviceParams::withTrd(trd);
    p(std::to_string(dev.csaInputs()) + "->" +
          std::to_string(dev.csaOutputs()) + " reduction",
      cost.reduce());
    p("max (TRD candidates)", cost.max(trd, bits));
    p("NMR vote (N=3)", cost.nmrVote(3));

    obs::TraceSink trace;
    if (out.trace) {
        // Re-run the composite ops on instrumented units so the trace
        // shows each op's span tree (cycles rendered as microseconds).
        trace.enable();
        trace.processName(0, "coruscant ops");
        auto unit = [&](std::size_t wires, std::uint32_t tid) {
            DeviceParams dp = dev;
            dp.wiresPerDbc = wires;
            CoruscantUnit u(dp);
            u.attachTrace(&trace, 0, tid);
            return u;
        };
        CoruscantUnit add_unit = unit(bits, 0);
        std::vector<BitVector> ops2(2, BitVector(bits, true));
        add_unit.add(ops2, bits, bits);

        CoruscantUnit mul_unit = unit(2 * bits, 1);
        BitVector a = BitVector::fromUint64(2 * bits, (1ULL << bits) - 1);
        mul_unit.multiply(a, a, bits);

        CoruscantUnit row_unit = unit(512, 2);
        std::vector<BitVector> rows(trd, BitVector(512, true));
        row_unit.bulkBitwise(BulkOp::And, rows);
        row_unit.reduce(rows, 512);
        row_unit.nmrVote({rows[0], rows[1], rows[2]});
    }
    return out.write(reg, trace) ? 0 : 1;
}

int
cmdArea(const Invocation &in)
{
    if (!in.accept({}))
        return 0;
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
cmdBitmap(const Invocation &in)
{
    std::size_t users = 1u << 20;
    std::size_t weeks = 4;
    if (!in.accept({opt("users", users, "users in the bitmap index",
                        std::size_t{1}, BitmapDatabase::kMaxUsers),
                    opt("weeks", weeks, "query windows 2..weeks",
                        std::size_t{2}, std::size_t{6})}))
        return 0;
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
cmdPolybench(const Invocation &in)
{
    std::size_t n = 48;
    if (!in.accept({opt("size", n, "problem size n", std::size_t{1},
                        kMaxPolybenchSize)}))
        return 0;
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

/** The networks `cnn --network` selects. */
enum class Network
{
    AlexNet,
    LeNet5,
};

std::span<const char *const>
enumTokens(Network)
{
    static constexpr const char *kTokens[] = {"alexnet", "lenet5"};
    return kTokens;
}

int
cmdCnn(const Invocation &in)
{
    Network network = Network::AlexNet;
    CnnMode mode = CnnMode::FullPrecision;
    if (!in.accept({opt("network", network, "network"),
                    opt("mode", mode, "weight precision")}))
        return 0;
    CnnNetwork net = network == Network::LeNet5 ? CnnNetwork::lenet5()
                                                : CnnNetwork::alexnet();
    CnnThroughputModel model;
    std::printf("%s, %s:\n", net.name.c_str(), cnnModeName(mode));
    for (const auto &cell : model.table(net, mode))
        std::printf("  %-12s %10.1f FPS\n",
                    cnnSchemeName(cell.scheme), cell.fps);
    return 0;
}

int
cmdReliability(const Invocation &in)
{
    std::size_t trd = 7;
    double p = 1e-6;
    if (!in.accept({opt("trd", trd, "transverse-read distance",
                        DeviceParams::kMinPimTrd, DeviceParams::kMaxPimTrd),
                    opt("pfault", p, "TR fault probability",
                        probabilityValid, kProbabilityRange)}))
        return 0;
    TrErrorModel m(trd, p);
    std::printf("error rates (TRD=%zu, p_TR=%g):\n", trd, p);
    std::printf("  AND/OR/C' per bit : %.3g\n",
                m.perBitOrAndSuperCarry());
    std::printf("  XOR per bit       : %.3g\n", m.perBitXor());
    std::printf("  C per bit         : %.3g\n", m.perBitCarry());
    std::printf("  8-bit add         : %.3g\n", m.addError(8));
    std::printf("  8-bit multiply    : %.3g\n", m.multiplyError(8));
    std::printf("  add with TMR      : %.3g\n", m.nmrAddError(3, 8));
    if (DeviceParams::voteFits(5, trd))
        std::printf("  add with N=5      : %.3g\n",
                    m.nmrAddError(5, 8));
    return 0;
}

int
cmdCampaign(const Invocation &in)
{
    ControllerCampaignConfig cfg;
    obs::OutputFiles out;
    if (!in.accept(
            Options{
                opt("trials", cfg.trials, "guarded cpim additions",
                    atLeastOne, ">= 1"),
                opt("seed", cfg.seed, "RNG seed"),
                opt("retire", cfg.retireThreshold,
                    "corrected faults that retire a DBC (0 = never)"),
            } +
            faultOptions(cfg, "NMR arity of PIM ops") + out.options()))
        return 0;
    obs::MetricsRegistry reg;
    obs::TraceSink trace;
    if (out.trace) {
        trace.enable();
        trace.processName(0, "campaign");
    }
    if (out.metricsJson || out.trace) {
        cfg.metrics = &reg;
        cfg.trace = out.trace ? &trace : nullptr;
    }
    auto res = FaultCampaign::controllerCampaign(cfg);
    std::printf("end-to-end campaign: policy=%s p_shift=%g "
                "trials=%llu seed=%llu\n",
                guardPolicyName(cfg.policy), cfg.shiftFaultRate,
                static_cast<unsigned long long>(cfg.trials),
                static_cast<unsigned long long>(cfg.seed));
    auto row = [](const char *what, std::uint64_t n) {
        std::printf("  %-23s: %llu\n", what,
                    static_cast<unsigned long long>(n));
    };
    row("clean", res.clean);
    row("detected + corrected", res.corrected);
    row("detected uncorrectable", res.due);
    row("silent data corruption", res.sdc);
    row("injected shift faults", res.injectedFaults);
    row("guard checks", res.guardChecks);
    row("corrective pulses", res.correctivePulses);
    row("retired DBCs", res.retiredDbcs);
    if (cfg.dataFaultsEnabled() || cfg.ecc != EccMode::None) {
        row("data faults injected", res.dataFaultsInjected);
        row("ecc corrections", res.eccCorrections);
        row("ecc detected DUE", res.eccDue);
    }
    std::printf("  coverage               : %.4f\n", res.coverage());
    std::printf("  SDC rate               : %.4g\n", res.sdcRate());
    return out.write(reg, trace) ? 0 : 1;
}

int
cmdServe(const Invocation &in)
{
    ServiceConfig cfg;
    ServiceFaultConfig &faults = cfg.faults;
    bool chaos = false;
    obs::OutputFiles out;
    Option mix{"mix", cfg.mix.describe(),
               "request-class weights, e.g. read:0.2,bulk:0.5,add:0.3",
               [&cfg](const std::string &text) {
                   try {
                       cfg.mix = WorkloadMix::parse(text);
                       return std::string();
                   } catch (const FatalError &e) {
                       return std::string(e.what());
                   }
               }};
    if (!in.accept(
            Options{
                opt("channels", cfg.channels, "memory channels", atLeastOne,
                    ">= 1"),
                opt("threads", cfg.threads, "worker threads (0 = all cores)"),
                opt("banks", cfg.banksPerChannel, "banks per channel",
                    atLeastOne, ">= 1"),
                opt("groups", cfg.dbcGroupsPerBank, "DBC groups per bank",
                    atLeastOne, ">= 1"),
                opt("trd", cfg.trd, "transverse-read distance",
                    DeviceParams::kMinPimTrd, DeviceParams::kMaxPimTrd),
                opt("seed", cfg.seed, "RNG seed"),
                opt("rate", cfg.ratePerKcycle,
                    "offered load per channel (requests/kcycle)",
                    WorkloadConfig::rateValid, WorkloadConfig::kRateRange),
                opt("duration", cfg.durationCycles, "arrival window (cycles)"),
                opt("window", cfg.batchWindowCycles,
                    "TR-gang batching window (cycles)", std::uint64_t{0},
                    cfg.kMaxWaitCycles),
                opt("queue-cap", cfg.queueCapacity,
                    "queue depth per class per channel (0 = unbounded)"),
                opt("hot", cfg.bulkHotGroups, "hot bulk accumulator groups"),
                opt("clients", cfg.closedLoopWindow,
                    "closed-loop clients per channel", atLeastOne, ">= 1"),
                opt("batch", cfg.batching, "TR-gang batching"),
                mix,
                opt("process", cfg.process, "arrival process"),
                opt("chaos", chaos, "ramp --pshift through a mid-run storm"),
                opt("retries", faults.maxRetries, "retry ladder depth",
                    std::size_t{0}, faults.kMaxRetries),
                opt("backoff", faults.retryBackoffCycles,
                    "first retry wait, doubling per rung (cycles)",
                    std::uint64_t{0}, faults.kMaxRetryBackoffCycles),
                opt("health-window", faults.healthWindowCycles,
                    "detected-error rate window (cycles)"),
                opt("breaker-threshold", faults.breakerThreshold,
                    "detected errors in the window that trip a breaker",
                    atLeastOne, ">= 1"),
                opt("cooldown", faults.breakerCooldownCycles,
                    "tripped-breaker cooldown (cycles)", std::uint64_t{0},
                    cfg.kMaxWaitCycles),
                opt("trips", faults.tripsToRetire,
                    "breaker trips that retire a group", atLeastOne,
                    ">= 1"),
                opt("spares", faults.sparesPerChannel,
                    "spare DBC groups per channel"),
                opt("scrub-interval", faults.scrubIntervalCycles,
                    "cycles between scrub sweeps (0 = never)"),
            } +
            faultOptions(faults, "NMR arity of PIM ops (<= --trd)") +
            out.options()))
        return 0;
    if (chaos) {
        // Chaos mode: ramp the fault rate through a mid-run storm.
        // Base rate defaults to 1e-3 when --pshift was not given.
        double base =
            faults.shiftFaultRate > 0.0 ? faults.shiftFaultRate : 1e-3;
        faults.ramp =
            ServiceFaultConfig::chaosRamp(base, cfg.durationCycles);
    }
    cfg.collectMetrics = out.metricsJson.has_value();
    cfg.collectTrace = out.trace.has_value();
    // The engine checks the options against each other (--nmr against
    // --trd); a combination it rejects is a usage error.
    std::optional<ServiceEngine> engine;
    try {
        engine.emplace(cfg);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    std::printf("serve: channels=%u threads=%u banks=%u process=%s "
                "rate=%.3g/kcycle duration=%llu seed=%llu batch=%s "
                "mix=%s\n",
                cfg.channels, cfg.threads, cfg.banksPerChannel,
                arrivalProcessName(cfg.process), cfg.ratePerKcycle,
                static_cast<unsigned long long>(cfg.durationCycles),
                static_cast<unsigned long long>(cfg.seed),
                kOffOn[cfg.batching],
                cfg.mix.describe().c_str());
    if (cfg.faults.enabled())
        std::printf("faults: pshift=%g policy=%s chaos=%s retries=%zu "
                    "backoff=%llu spares=%u\n",
                    faults.shiftFaultRate,
                    guardPolicyName(faults.policy), kOffOn[chaos],
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
    ServiceStats stats = engine->run();
    std::printf("%s", stats.report().c_str());
    return out.write(stats.metrics, stats.trace) ? 0 : 1;
}

struct Command
{
    const char *name;
    const char *summary;
    int (*run)(const Invocation &);
};

const Command kCommands[] = {
    {"ops", "operation costs (Table III view)", cmdOps},
    {"area", "PIM area overheads (Table I view)", cmdArea},
    {"bitmap", "bitmap-index query (Fig. 12 view)", cmdBitmap},
    {"polybench", "kernel system comparison (Fig. 10/11 view)",
     cmdPolybench},
    {"cnn", "CNN throughput (Table IV view)", cmdCnn},
    {"reliability", "analytical error rates (Table V view)",
     cmdReliability},
    {"campaign", "end-to-end shift-fault campaign (DUE/SDC taxonomy)",
     cmdCampaign},
    {"serve", "sharded request-service simulation (tail latency)",
     cmdServe},
};

/** Every command with its option table, each default read from it. */
void
usage(std::FILE *out)
{
    std::fprintf(out, "usage: coruscant_cli <command> [--key value ...]\n");
    for (const Command &c : kCommands) {
        std::fprintf(out, "\n%s: %s\n", c.name, c.summary);
        c.run(Invocation{nullptr, out});
    }
    std::fprintf(out,
                 "\nhelp: this text\n\n"
                 "Options are validated strictly: an unknown flag, a "
                 "missing value, or a\nmalformed or out-of-range value "
                 "exits 2.\n");
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
    for (const Command &c : kCommands) {
        if (cmd != c.name)
            continue;
        try {
            return c.run(Invocation{&args});
        } catch (const std::exception &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    usage(stderr);
    return 2;
}
