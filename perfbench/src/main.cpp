/**
 * @file
 * Benchmark program: runs one workload of the standing benchmark and
 * prints one JSON record (a single line) on standard output.
 *
 *   perfbench run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                 [--scale full|tiny] [--threads N]
 *   perfbench list-metrics
 *
 * --trace 0 measures the end-to-end metrics: the workload's library
 * call is repeated for --seconds seconds (at least three times), with
 * its set-up timed before the first and after each repetition.
 * --trace 1 runs the per-layer attribution instead (layers.hpp).
 *
 * run.py builds this program, adds the provenance the binary cannot
 * know (source revision), compares the digest of the modeled outputs
 * with the pinned one and prints the result line.
 */

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "layers.hpp"
#include "workloads.hpp"

#include "arch/dwm_memory.hpp"
#include "controller/memory_controller.hpp"

namespace perfbench {
namespace {

using namespace coruscant;

constexpr double kSetupBatchSeconds = 1e-3;
constexpr std::size_t kSetupSamplesPerWindow = 3;
constexpr double kSetupWindowSeconds = 0.05;
constexpr std::size_t kMinReps = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    Scale scale = Scale::Full;
    std::uint32_t threads = 0; ///< serve_faults workers; 0 = min(4, nproc)
};

/** What an untraced run measured. */
struct Measurement
{
    std::string unit;    ///< what one unit of host throughput is
    std::string outputs; ///< canonical modeled outputs of the first rep
    double unitsPerRep = 0.0;
    std::uint32_t threads = 1; ///< worker threads of the measured call
    std::vector<double> setupS; ///< fastest set-up of each window
    std::uint64_t setupSamples = 0;
    std::vector<double> repS;
    std::vector<double> repPeakRssMb; ///< peak resident set per repetition
};

/**
 * Restart the peak-resident-set count at the memory now in use.  Free
 * heap pages are returned first, so the count starts from live data
 * rather than from whatever the previous repetition left cached in the
 * allocator.  Best effort: where the kernel refuses the reset, the
 * peak keeps counting from the start of the process image.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/**
 * Peak resident set since exec or the last resetPeakRss(), in MiB.
 * VmHWM restarts at exec, unlike getrusage's ru_maxrss, which keeps
 * the peak of the parent that forked the process.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/**
 * Measure a workload: the measured call repeated for --seconds (at
 * least kMinReps times), with a window of set-up samples before the
 * first repetition and after each one, so the set-up figure covers the
 * same stretch of time as the repetitions.  A window takes at least
 * kSetupSamplesPerWindow samples over at least kSetupWindowSeconds and
 * keeps its fastest; setup_s is the fastest window.  A sample
 * times a batch of set-ups, doubled until the batch takes
 * kSetupBatchSeconds, so a microsecond set-up is not read at the
 * clock's resolution.  The peak resident set is taken per repetition.
 * @p rep gets whether it is the first repetition.
 */
template <typename Setup, typename Rep>
void
measure(const Options &o, Measurement &m, Setup setup, Rep rep)
{
    std::size_t batch = 1;
    auto sample = [&] {
        for (;;) {
            auto t0 = Clock::now();
            for (std::size_t b = 0; b < batch; ++b)
                setup();
            double s = secondsSince(t0);
            if (s >= kSetupBatchSeconds)
                return s / static_cast<double>(batch);
            batch *= 2;
        }
    };
    auto window = [&] {
        double fastest = sample();
        std::size_t n = 1;
        auto w0 = Clock::now();
        for (; n < kSetupSamplesPerWindow ||
               secondsSince(w0) < kSetupWindowSeconds;
             ++n)
            fastest = std::min(fastest, sample());
        m.setupS.push_back(fastest);
        m.setupSamples += n;
    };
    window();
    auto start = Clock::now();
    while (m.repS.size() < kMinReps || secondsSince(start) < o.seconds) {
        resetPeakRss();
        auto t0 = Clock::now();
        rep(m.repS.empty());
        m.repS.push_back(secondsSince(t0));
        m.repPeakRssMb.push_back(peakRssMb());
        window();
    }
}

/** Check a repetition's outputs against the first repetition's. */
void
noteOutputs(Measurement &m, const std::string &outputs, bool first,
            Checks &checks)
{
    if (first)
        m.outputs = outputs;
    else
        checks.expect(outputs == m.outputs,
                      "repetition reproduces the first repetition's "
                      "outputs");
}

Measurement
measureServe(const Options &o, const ServiceConfig &cfg, Checks &checks)
{
    Measurement m;
    m.unit = "generated requests";
    m.threads = cfg.threads;
    // Set-up: ServiceEngine construction, which builds the cost table.
    // With faults on, run() measures the guard costs itself, so they
    // count in the measured call and not here.
    std::optional<ServiceEngine> engine;
    auto setup = [&] { engine.emplace(cfg); };
    measure(o, m, setup, [&](bool first) {
        ServiceStats stats = engine->run();
        if (first) {
            checkInvariants(stats, checks);
            m.unitsPerRep = static_cast<double>(stats.generated);
        }
        noteOutputs(m, canonicalOutputs(stats), first, checks);
    });
    return m;
}

Measurement
measureCampaign(const Options &o, const ControllerCampaignConfig &cfg,
                Checks &checks)
{
    Measurement m;
    m.unit = "campaign trials";
    // Set-up: the campaign's memory and controller.  controllerCampaign
    // builds its own inside the measured call, so this is a proxy: it
    // times the same construction outside the call.
    const MemoryConfig mcfg = campaignMemoryConfig(cfg);
    auto setup = [&] {
        DwmMainMemory mem(mcfg);
        MemoryController ctrl(mem);
    };
    measure(o, m, setup, [&](bool first) {
        ControllerCampaignResult r = FaultCampaign::controllerCampaign(cfg);
        if (first) {
            checkInvariants(r, checks);
            m.unitsPerRep = static_cast<double>(r.trials);
        }
        noteOutputs(m, canonicalOutputs(r), first, checks);
    });
    return m;
}

Measurement
measureBitmap(const Options &o, const BitmapSpec &spec, Checks &checks)
{
    Measurement m;
    m.unit = "(technique, w) query evaluations";
    std::optional<BitmapDatabase> db;
    auto setup = [&] {
        db = BitmapDatabase::synthesize(spec.users, spec.weeks, spec.seed);
    };
    measure(o, m, setup, [&](bool first) {
        std::vector<BitmapEval> evals = runBitmapQueries(*db, spec);
        if (first) {
            checkInvariants(evals, BitmapQueryEngine(*db), checks);
            m.unitsPerRep = static_cast<double>(evals.size());
        }
        noteOutputs(m, canonicalOutputs(evals), first, checks);
    });
    return m;
}

/** Sample count and quartiles of @p v. */
std::string
summaryJson(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    auto at = [&](double q) {
        return v.empty() ? 0.0
                         : v[static_cast<std::size_t>(
                               q * static_cast<double>(v.size() - 1))];
    };
    return JsonObject()
        .add("samples", static_cast<std::uint64_t>(v.size()))
        .add("min", at(0.0))
        .add("q1", at(0.25))
        .add("median", median(v))
        .add("q3", at(0.75))
        .add("max", at(1.0))
        .str();
}

std::string
numberArray(const std::vector<double> &v)
{
    std::vector<std::string> items;
    for (double x : v)
        items.push_back(jsonNumber(x));
    return jsonArray(items);
}

std::string
metricsJson(const Metrics &metrics)
{
    std::vector<std::string> items;
    for (const Metric &mt : metrics.all()) {
        JsonObject e;
        e.add("name", mt.name).add("value", mt.value).add("unit", mt.unit);
        if (!mt.note.empty())
            e.add("source", mt.note);
        for (const LayerMetricSpec &spec : layerMetricSpecs()) {
            if (mt.name == spec.name) {
                e.add("moves", spec.moves).add("workload", spec.workload);
                break;
            }
        }
        items.push_back(e.str());
    }
    return jsonArray(items);
}

std::string
layerReportJson(const LayerReport &rep)
{
    double wall = rep.untracedWallS;
    auto frac = [&](double s) { return wall > 0 ? s / wall : 0.0; };
    std::vector<std::string> rows;
    double attributed = 0.0;
    for (const LayerTime &l : rep.layers) {
        attributed += l.selfS;
        rows.push_back(JsonObject()
                           .add("layer", l.layer)
                           .add("self_s", l.selfS)
                           .add("share", frac(l.selfS))
                           .str());
    }
    return JsonObject()
        .add("reference", rep.reference)
        .add("untraced_wall_s", rep.untracedWallS)
        .add("traced_wall_s", rep.tracedWallS)
        .add("trace_overhead_ratio",
             wall > 0 ? rep.tracedWallS / wall : 0.0)
        .addRaw("layers", jsonArray(rows))
        .addRaw("residual",
                JsonObject()
                    .add("label", rep.residualLabel)
                    .add("self_s", wall - attributed)
                    .add("share", frac(wall - attributed))
                    .str())
        .add("note", "layer times come from outside the library, around "
                     "calls into one layer at a time; the rows do not sum "
                     "exactly to the untraced wall time")
        .str();
}

int
runWorkload(const Options &o)
{
    bool known = false;
    for (const std::string &w : workloadNames())
        known |= w == o.workload;
    if (!known)
        throw std::invalid_argument("unknown workload '" + o.workload + "'");

    Checks checks;
    Metrics metrics;
    JsonObject rec;
    rec.add("schema", "coruscant-perfbench/1")
        .add("workload", o.workload)
        .add("seed", o.seed)
        .add("scale", o.scale == Scale::Full ? "full" : "tiny")
        .add("trace", o.trace)
        .add("seconds", o.seconds)
        .add("compiler", PERFBENCH_COMPILER)
        .add("build_type", PERFBENCH_BUILD_TYPE)
        .add("nproc", std::thread::hardware_concurrency());

    const ServiceConfig clean = serveCleanConfig(o.seed, o.scale);
    const ServiceConfig faults =
        serveFaultsConfig(o.seed, o.scale, o.threads);
    const ControllerCampaignConfig campaign = campaignConfig(o.seed, o.scale);
    const BitmapSpec bitmap = bitmapSpec(o.seed, o.scale);
    std::string config = o.workload == "serve_clean"    ? configJson(clean)
                         : o.workload == "serve_faults" ? configJson(faults)
                         : o.workload == "campaign_ecc" ? configJson(campaign)
                                                        : configJson(bitmap);
    std::string outputs;
    if (o.trace) {
        LayerReport report;
        traceLayers(o.workload, o.seed, o.scale, o.threads, metrics, checks,
                    report);
        outputs = report.outputs;
        rec.addRaw("layer_report", layerReportJson(report));
        metrics.set("failed_share",
                    static_cast<double>(checks.failed()) /
                        static_cast<double>(std::max<std::uint64_t>(
                            1, checks.attempted())),
                    "ratio", "workload");
    } else {
        Measurement m;
        if (o.workload == "serve_clean")
            m = measureServe(o, clean, checks);
        else if (o.workload == "serve_faults")
            m = measureServe(o, faults, checks);
        else if (o.workload == "campaign_ecc")
            m = measureCampaign(o, campaign, checks);
        else
            m = measureBitmap(o, bitmap, checks);
        outputs = m.outputs;
        // Slowdowns from other tenants of a shared host last seconds
        // and move a run's median repetition by tens of percent; they
        // never make a repetition or a set-up faster, so a one-thread
        // call and the set-up report their fastest.  A multi-thread
        // run has the opposite tail: it is fastest in the rare moment
        // every worker finds a quiet CPU, so it reports its median.
        double rep = m.threads > 1
                         ? median(m.repS)
                         : *std::min_element(m.repS.begin(), m.repS.end());
        metrics.set("host_units_per_s", m.unitsPerRep / rep, "1/s");
        metrics.set("setup_s",
                    *std::min_element(m.setupS.begin(), m.setupS.end()),
                    "s");
        // Which channels overlap in memory depends on thread timing, and
        // later repetitions reuse a heap the earlier ones fragmented:
        // the median repetition's peak is the steady figure.
        metrics.set("peak_rss_mb", median(m.repPeakRssMb), "MB");
        rec.add("unit", m.unit)
            .add("units_per_rep", m.unitsPerRep)
            .addRaw("rep_wall_s", numberArray(m.repS))
            .addRaw("rep_wall_s_summary", summaryJson(m.repS))
            .add("host_statistic",
                 m.threads > 1 ? "median repetition" : "fastest repetition")
            .add("setup_samples", m.setupSamples)
            .addRaw("setup_s_window_summary", summaryJson(m.setupS))
            .addRaw("rep_peak_rss_mb_summary", summaryJson(m.repPeakRssMb));
    }
    std::vector<std::string> failures;
    for (const std::string &f : checks.failures())
        failures.push_back(jsonString(f));
    rec.addRaw("config", config)
        .addRaw("metrics", metricsJson(metrics))
        .addRaw("checks", JsonObject()
                              .add("attempted", checks.attempted())
                              .add("failed", checks.failed())
                              .addRaw("failures", jsonArray(failures))
                              .str())
        .add("outputs", outputs)
        .add("digest", fnv1aHex(outputs));
    std::printf("%s\n", rec.str().c_str());
    return 0;
}

int
listMetrics()
{
    std::vector<std::string> items;
    for (const LayerMetricSpec &m : layerMetricSpecs())
        items.push_back(JsonObject()
                            .add("name", m.name)
                            .add("unit", m.unit)
                            .add("better", m.better)
                            .add("moves", m.moves)
                            .add("workload", m.workload)
                            .str());
    std::printf("%s\n", jsonArray(items).c_str());
    return 0;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench run --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--scale full|tiny] "
                 "[--threads N]\n"
                 "       perfbench list-metrics\n");
    std::exit(2);
}

Options
parseRun(int argc, char **argv)
{
    Options o;
    for (int i = 2; i < argc; i += 2) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage();
        std::string val = argv[i + 1];
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::stoull(val);
        else if (key == "--seconds")
            o.seconds = std::stod(val);
        else if (key == "--trace" && (val == "0" || val == "1"))
            o.trace = val == "1";
        else if (key == "--scale" && (val == "full" || val == "tiny"))
            o.scale = val == "full" ? Scale::Full : Scale::Tiny;
        else if (key == "--threads")
            o.threads = static_cast<std::uint32_t>(std::stoul(val));
        else
            usage();
    }
    if (o.workload.empty() || !(o.seconds >= 0.0))
        usage();
    return o;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2)
        usage();
    std::string cmd = argv[1];
    try {
        if (cmd == "list-metrics")
            return listMetrics();
        if (cmd == "run")
            return runWorkload(parseRun(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    usage();
}
