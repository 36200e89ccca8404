#include "layers.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <ostream>
#include <queue>
#include <stdexcept>
#include <streambuf>

#include "apps/bitmap/bitmap_index.hpp"
#include "arch/dwm_memory.hpp"
#include "baselines/dram_pim.hpp"
#include "controller/event_sim.hpp"
#include "controller/memory_controller.hpp"
#include "core/coruscant_unit.hpp"
#include "dwm/dbc.hpp"
#include "reliability/fault_campaign.hpp"
#include "service/service_engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace coruscant;

const std::vector<LayerMetricSpec> &
layerMetricSpecs()
{
    static const std::vector<LayerMetricSpec> specs = {
        // service: generate -> admit -> batch -> dispatch -> replay
        {"service.generate_ns_per_req", "ns", "lower", "host_units_per_s",
         "serve_clean"},
        {"service.batch_ns_per_bulk", "ns", "lower", "host_units_per_s",
         "serve_clean"},
        {"controller.replay_ns_per_unit", "ns", "lower",
         "host_units_per_s,peak_rss_mb", "serve_clean"},
        {"service.engine_residual_ns_per_req", "ns", "lower",
         "host_units_per_s", "serve_clean"},
        {"service.generated", "count", "higher", "host_units_per_s",
         "serve_clean"},
        {"service.rejected_share", "ratio", "lower", "host_units_per_s",
         "serve_clean"},
        {"service.dispatched_units", "count", "lower", "host_units_per_s",
         "serve_clean"},
        {"service.gangs", "count", "lower", "host_units_per_s",
         "serve_clean"},
        {"service.mean_gang_size", "req/gang", "higher", "host_units_per_s",
         "serve_clean"},
        {"service.window_close_share", "ratio", "lower", "host_units_per_s",
         "serve_clean"},
        {"controller.bus_util", "ratio", "lower", "host_units_per_s",
         "serve_clean"},
        {"controller.bank_util", "ratio", "lower", "host_units_per_s",
         "serve_clean"},
        // service.fault: injectors and DBC health under traffic
        {"service.fault.shift_sample_ns", "ns", "lower", "host_units_per_s",
         "serve_faults"},
        {"service.fault.data_sample_ns", "ns", "lower", "host_units_per_s",
         "serve_faults"},
        {"service.fault.health_ns", "ns", "lower", "host_units_per_s",
         "serve_faults"},
        {"service.fault.injected", "count", "lower", "host_units_per_s",
         "serve_faults"},
        {"service.fault.retries", "count", "lower", "host_units_per_s",
         "serve_faults"},
        {"service.fault.breaker_trips", "count", "lower",
         "host_units_per_s", "serve_faults"},
        {"service.fault.maintenance_units", "count", "lower",
         "host_units_per_s", "serve_faults"},
        {"service.fault.ecc_corrections", "count", "lower",
         "host_units_per_s", "serve_faults"},
        {"service.fault.capacity_loss", "ratio", "lower",
         "host_units_per_s", "serve_faults"},
        // obs: the simulator's own counter and trace sinks
        {"obs.metrics_overhead_s", "s", "lower", "host_units_per_s",
         "serve_faults"},
        {"obs.trace_overhead_ratio", "ratio", "lower", "none (diagnostic)",
         "serve_clean"},
        {"obs.trace_events_per_req", "count", "lower", "none (diagnostic)",
         "serve_clean"},
        {"obs.trace_bytes_per_req", "B", "lower", "none (diagnostic)",
         "serve_clean"},
        {"obs.trace_write_s", "s", "lower", "none (diagnostic)",
         "serve_clean"},
        // arch / controller / reliability: the campaign trial loop
        {"arch.write_line_ns", "ns", "lower", "host_units_per_s",
         "campaign_ecc"},
        {"controller.execute_guarded_ns", "ns", "lower", "host_units_per_s",
         "campaign_ecc"},
        {"arch.read_line_ns", "ns", "lower", "host_units_per_s",
         "campaign_ecc"},
        {"arch.scrub_all_s", "s", "lower", "host_units_per_s",
         "campaign_ecc"},
        {"campaign.residual_ns_per_trial", "ns", "lower",
         "host_units_per_s", "campaign_ecc"},
        {"arch.guard_checks", "count", "lower", "host_units_per_s",
         "campaign_ecc"},
        {"arch.shift_steps", "count", "lower", "host_units_per_s",
         "campaign_ecc"},
        {"arch.touched_dbcs", "count", "lower", "peak_rss_mb",
         "campaign_ecc"},
        {"controller.retry_share", "ratio", "lower", "host_units_per_s",
         "campaign_ecc"},
        {"reliability.ecc_corrections", "count", "lower",
         "host_units_per_s", "campaign_ecc"},
        {"reliability.ecc_due", "count", "lower", "host_units_per_s",
         "campaign_ecc"},
        {"dwm.shift_faults_injected", "count", "lower", "host_units_per_s",
         "campaign_ecc"},
        {"dwm.data_faults_injected", "count", "lower", "host_units_per_s",
         "campaign_ecc"},
        // util / core / dwm / baselines: the Fig. 12 chunk loops
        {"util.stage_ns_per_chunk", "ns", "lower", "host_units_per_s",
         "bitmap_query"},
        {"util.popcount_ns_per_chunk", "ns", "lower", "host_units_per_s",
         "bitmap_query"},
        {"core.bulk_and_ns_per_chunk", "ns", "lower", "host_units_per_s",
         "bitmap_query"},
        {"dwm.tr_all_ns", "ns", "lower", "host_units_per_s",
         "bitmap_query"},
        {"baselines.bulk_multi_ns_per_chunk", "ns", "lower",
         "host_units_per_s", "bitmap_query"},
        {"apps.cpu_query_s", "s", "lower", "host_units_per_s",
         "bitmap_query"},
        {"core.tr_pulses_per_chunk", "count", "lower", "host_units_per_s",
         "bitmap_query"},
        // setup
        {"setup.cost_table_s", "s", "lower", "setup_s",
         "serve_clean,serve_faults"},
        {"setup.guard_costs_s", "s", "lower", "setup_s", "serve_faults"},
        {"setup.bitmap_synth_s", "s", "lower", "setup_s", "bitmap_query"},
        // modeled results (frozen; the pinned digest guards them)
        {"model_p99_cycles", "cycles", "lower", "correct",
         "serve_clean"},
        {"model_req_per_kcycle", "1/kcycle", "higher", "correct",
         "serve_clean"},
        {"model_coverage", "ratio", "higher", "correct", "campaign_ecc"},
        {"model_cor_vs_elp2im_w4", "ratio", "higher", "correct",
         "bitmap_query"},
        // attribution summary of the workload's own layers
        {"trace.overhead_ratio", "ratio", "lower", "none (diagnostic)",
         "all"},
        {"trace.unattributed_share", "ratio", "lower", "none (diagnostic)",
         "all"},
        {"failed_share", "ratio", "lower", "correct", "all"},
    };
    return specs;
}

namespace {

/** Per-metric unit lookup; an unlisted name is a programming error. */
void
emit(Metrics &m, const std::string &name, double value, bool probe)
{
    for (const LayerMetricSpec &s : layerMetricSpecs()) {
        if (name == s.name) {
            m.set(name, value, s.unit, probe ? "probe" : "workload");
            return;
        }
    }
    throw std::logic_error("unlisted per-layer metric " + name);
}

double
perItemNs(double seconds, std::uint64_t items)
{
    return items ? seconds * 1e9 / static_cast<double>(items) : 0.0;
}

double
share(std::uint64_t part, std::uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

// ===================================================================
// service (+ service.fault)
// ===================================================================

/** The engine's WorkloadConfig for a ServiceConfig. */
WorkloadConfig
workloadOf(const ServiceConfig &cfg, std::size_t max_add)
{
    WorkloadConfig w;
    w.mix = cfg.mix;
    w.process = cfg.process;
    w.ratePerKcycle = cfg.ratePerKcycle;
    w.durationCycles = cfg.durationCycles;
    w.banks = cfg.banksPerChannel;
    w.dbcGroups = cfg.dbcGroupsPerBank;
    w.burstFactor = cfg.burstFactor;
    w.burstFraction = cfg.burstFraction;
    w.bulkHotGroups = cfg.bulkHotGroups;
    w.maxAddOperands = max_add;
    return w;
}

/** One input to GangBatcher, in the order the engine made it. */
struct BatchOp
{
    ServiceRequest req;
    std::uint64_t flushAt = 0;
    bool flush = false;
};

/** One dispatched unit, as the fault path sees it. */
struct UnitRecord
{
    std::uint64_t now = 0;
    std::uint32_t bank = 0;
    std::uint32_t group = 0;
    std::uint64_t shifts = 0;
    std::uint64_t accesses = 0;
    bool pim = false;
};

struct ServiceTrace
{
    ServiceStats stats;
    double engineWallS = 0.0; ///< ServiceEngine::run, one thread
    double guardCostsS = 0.0; ///< GuardServiceCosts::measure inside run
    double mirrorWallS = 0.0;
    double generateS = 0.0;
    double batchS = 0.0;
    double replayS = 0.0;
    std::uint64_t generated = 0;
    std::uint64_t bulkAdds = 0;
    std::uint64_t units = 0;
    double shiftS = 0.0;
    double dataS = 0.0;
    double healthS = 0.0;
    std::uint64_t shiftCalls = 0;
    std::uint64_t dataCalls = 0;
    std::uint64_t healthCalls = 0;
};

/** What one channel's mirror produced, for the exactness checks. */
struct ChannelResult
{
    std::uint64_t generated = 0;
    std::uint64_t rejected = 0;
    std::uint64_t units = 0;
    std::uint64_t gangs = 0;
    std::uint64_t makespan = 0;
    SimStats replay;
    bool batchAgrees = true;
};

/**
 * Time the fault path of one channel over its dispatched units: the
 * shift injector, the data injector and the health tracker each in a
 * loop of its own, so no timer sits inside a call.
 */
void
timeFaultPath(const ServiceConfig &cfg, std::uint32_t ch,
              const std::vector<UnitRecord> &units, ServiceTrace &t)
{
    const ServiceFaultConfig &fc = cfg.faults;
    std::vector<char> detected(units.size(), 0);

    ChannelFaultInjector shift(fc, channelSeed(cfg.seed ^ 0xfa175eedull, ch));
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < units.size(); ++i)
        detected[i] = shift.sample(units[i].shifts, units[i].now).faults != 0;
    t.shiftS += secondsSince(t0);
    t.shiftCalls += units.size();

    if (fc.dataFaultsEnabled()) {
        ChannelDataFaultInjector data(
            fc, channelSeed(cfg.seed ^ 0x00ecc5eedull, ch),
            DeviceParams::withTrd(cfg.trd).wiresPerDbc,
            ReliabilityConfig{}.eccWordBits);
        std::vector<std::uint64_t> last_touch(
            static_cast<std::size_t>(cfg.banksPerChannel) *
                cfg.dbcGroupsPerBank,
            0);
        t0 = Clock::now();
        for (std::size_t i = 0; i < units.size(); ++i) {
            const UnitRecord &u = units[i];
            std::size_t slot =
                static_cast<std::size_t>(u.bank) * cfg.dbcGroupsPerBank +
                u.group;
            std::uint64_t idle = u.now - std::min(u.now, last_touch[slot]);
            last_touch[slot] = u.now;
            std::uint64_t acc =
                u.pim && fc.pimNmr > 1 ? u.accesses * fc.pimNmr : u.accesses;
            if (data.sample(acc, idle).flips != 0)
                detected[i] = 1;
        }
        t.dataS += secondsSince(t0);
        t.dataCalls += units.size();
    }

    DbcHealthTracker health(fc, cfg.banksPerChannel, cfg.dbcGroupsPerBank);
    t0 = Clock::now();
    for (std::size_t i = 0; i < units.size(); ++i) {
        std::uint32_t bank = units[i].bank;
        std::uint32_t group = units[i].group;
        if (health.steer(bank, group, units[i].now) && detected[i])
            health.recordError(bank, group, units[i].now, false);
    }
    t.healthS += secondsSince(t0);
    t.healthCalls += units.size();
}

/**
 * Mirror one channel of the engine's fault-free open-loop path.
 * Pass 1 times the generator alone; pass 2 runs admission, batching
 * and in-order dispatch untimed and logs the batcher's inputs and the
 * dispatched units; pass 3 times GangBatcher over the logged inputs;
 * pass 4 times the EventSimulator replay of the dispatched units.
 */
ChannelResult
mirrorChannel(const ServiceConfig &cfg, const ServiceCostTable &costs,
              std::uint32_t ch, ServiceTrace &t)
{
    ChannelResult out;
    const WorkloadConfig wcfg = workloadOf(cfg, costs.maxAddOperands());
    const bool faults = cfg.faults.enabled();

    {
        WorkloadGenerator gen(wcfg, cfg.seed, ch);
        ServiceRequest r;
        std::uint64_t n = 0;
        auto t0 = Clock::now();
        while (gen.next(r))
            ++n;
        t.generateS += secondsSince(t0);
        out.generated = n;
    }

    std::vector<BatchOp> log;
    std::vector<SimRequest> trace;
    std::vector<UnitRecord> units;
    {
        WorkloadGenerator gen(wcfg, cfg.seed, ch);
        GangBatcher batcher(costs.maxGangOperands(), cfg.batchWindowCycles);
        std::uint64_t bus_free = 0;
        std::vector<std::uint64_t> bank_free(cfg.banksPerChannel, 0);
        std::array<std::uint64_t, kRequestClasses> outstanding{};
        using Completion = std::pair<std::uint64_t, std::uint8_t>;
        std::priority_queue<Completion, std::vector<Completion>,
                            std::greater<Completion>>
            in_flight;

        auto dispatch = [&](std::uint64_t now, std::uint32_t bank,
                            std::uint32_t group, RequestCost cost,
                            const ServiceRequest *members, std::size_t n) {
            std::uint64_t start =
                std::max({now, bus_free, bank_free[bank]});
            bus_free = start + cost.issueCmds;
            std::uint64_t completion =
                start + cost.issueCmds + cost.serviceCycles;
            bank_free[bank] = completion;
            trace.push_back({now, bank, cost.issueCmds, cost.serviceCycles});
            out.makespan = std::max(out.makespan, completion);
            for (std::size_t i = 0; i < n; ++i)
                in_flight.push(
                    {completion, static_cast<std::uint8_t>(members[i].cls)});
            if (faults) {
                obs::PrimCounts p = n > 1 ? costs.gangPrims(n)
                                          : costs.prims(members[0]);
                bool pim = members[0].cls != RequestClass::Read &&
                           members[0].cls != RequestClass::Write;
                units.push_back(
                    {now, bank, group, p.shifts, p.reads + p.writes, pim});
            }
        };
        auto dispatch_gang = [&](const TrGang &g) {
            ++out.gangs;
            dispatch(g.readyAt, g.bank, g.dbcGroup,
                     costs.gangCost(g.members.size()), g.members.data(),
                     g.members.size());
        };
        auto admit = [&](const ServiceRequest &r) {
            while (!in_flight.empty() && in_flight.top().first <= r.arrival) {
                --outstanding[in_flight.top().second];
                in_flight.pop();
            }
            auto c = static_cast<std::size_t>(r.cls);
            if (cfg.queueCapacity > 0 && outstanding[c] >= cfg.queueCapacity) {
                ++out.rejected;
                return false;
            }
            ++outstanding[c];
            return true;
        };

        ServiceRequest next;
        bool have = gen.next(next);
        while (have || batcher.pending() > 0) {
            std::uint64_t flush_at =
                batcher.pending() > 0 ? batcher.nextDeadline() : ~0ull;
            if (have && next.arrival < flush_at) {
                if (admit(next)) {
                    if (cfg.batching &&
                        next.cls == RequestClass::BulkBitwise) {
                        log.push_back({next, 0, false});
                        TrGang g = batcher.add(next);
                        if (!g.members.empty())
                            dispatch_gang(g);
                    } else {
                        dispatch(next.arrival, next.bank, next.dbcGroup,
                                 costs.cost(next), &next, 1);
                    }
                }
                have = gen.next(next);
            } else {
                log.push_back({ServiceRequest{}, flush_at, true});
                for (const TrGang &g : batcher.flushDue(flush_at))
                    dispatch_gang(g);
            }
        }
    }

    {
        GangBatcher batcher(costs.maxGangOperands(), cfg.batchWindowCycles);
        std::uint64_t gangs = 0;
        std::uint64_t adds = 0;
        auto t0 = Clock::now();
        for (const BatchOp &op : log) {
            if (op.flush) {
                gangs += batcher.flushDue(op.flushAt).size();
            } else {
                ++adds;
                gangs += batcher.add(op.req).members.empty() ? 0 : 1;
            }
        }
        t.batchS += secondsSince(t0);
        t.bulkAdds += adds;
        out.batchAgrees = gangs == out.gangs;
    }

    out.units = trace.size();
    {
        EventSimulator sim(cfg.banksPerChannel);
        auto t0 = Clock::now();
        out.replay = sim.run(trace, SchedulePolicy::InOrder);
        t.replayS += secondsSince(t0);
    }
    if (faults)
        timeFaultPath(cfg, ch, units, t);
    return out;
}

ServiceTrace
traceService(const ServiceConfig &cfg_in, Checks &checks)
{
    ServiceTrace t;
    // Attribution compares serial layer sums with a serial run; the
    // engine's results do not depend on the thread count.
    ServiceConfig cfg = cfg_in;
    cfg.threads = 1;
    cfg.collectTrace = false;
    {
        ServiceEngine engine(cfg);
        auto t0 = Clock::now();
        t.stats = engine.run();
        t.engineWallS = secondsSince(t0);
    }
    if (cfg.faults.enabled()) {
        auto t0 = Clock::now();
        GuardServiceCosts::measure();
        t.guardCostsS = secondsSince(t0);
    }

    const ServiceCostTable costs = ServiceCostTable::build(cfg.trd);
    std::uint64_t makespan = 0, rejected = 0, gangs = 0;
    double issued = 0.0, busy = 0.0, spans = 0.0;
    bool timeline_agrees = true, batch_agrees = true;
    auto m0 = Clock::now();
    for (std::uint32_t ch = 0; ch < cfg.channels; ++ch) {
        ChannelResult r = mirrorChannel(cfg, costs, ch, t);
        t.generated += r.generated;
        t.units += r.units;
        rejected += r.rejected;
        gangs += r.gangs;
        makespan = std::max(makespan, r.makespan);
        timeline_agrees &= r.replay.makespan == r.makespan &&
                           r.replay.requests == r.units;
        batch_agrees &= r.batchAgrees;
        issued += r.replay.busUtilization * static_cast<double>(r.makespan);
        busy += r.replay.bankUtilization * static_cast<double>(r.makespan);
        spans += static_cast<double>(r.makespan);
    }
    t.mirrorWallS = secondsSince(m0);

    const ServiceStats &s = t.stats;
    checks.expect(t.generated == s.generated,
                  "service mirror: generator replay == runService generated");
    checks.expect(timeline_agrees,
                  "service mirror: EventSimulator replay == in-order timeline");
    checks.expect(batch_agrees,
                  "service mirror: batcher replay == logged gangs");
    if (!cfg.faults.enabled()) {
        // Fault-free, the mirror is the engine's path exactly.
        checks.expect(makespan == s.makespan,
                      "service mirror: replay makespan == runService");
        checks.expect(t.units == s.dispatchedUnits &&
                          rejected == s.rejected && gangs == s.batch.gangs,
                      "service mirror: units/rejected/gangs == runService");
        checks.expect(spans > 0 && issued / spans == s.busUtilization &&
                          busy / spans == s.bankUtilization,
                      "service mirror: bus/bank utilization == runService");
    }
    return t;
}

/** Report service / service.fault metrics from a ServiceTrace. */
void
emitService(Metrics &m, const ServiceTrace &t, bool probe)
{
    const ServiceStats &s = t.stats;
    double attributed = t.generateS + t.batchS + t.replayS + t.guardCostsS +
                        t.shiftS + t.dataS + t.healthS;
    emit(m, "service.generate_ns_per_req", perItemNs(t.generateS, t.generated),
         probe);
    emit(m, "service.batch_ns_per_bulk", perItemNs(t.batchS, t.bulkAdds),
         probe);
    emit(m, "controller.replay_ns_per_unit", perItemNs(t.replayS, t.units),
         probe);
    emit(m, "service.engine_residual_ns_per_req",
         perItemNs(t.engineWallS - attributed, s.generated), probe);
    emit(m, "service.generated", static_cast<double>(s.generated), probe);
    emit(m, "service.rejected_share", share(s.rejected, s.generated), probe);
    emit(m, "service.dispatched_units", static_cast<double>(s.dispatchedUnits),
         probe);
    emit(m, "service.gangs", static_cast<double>(s.batch.gangs), probe);
    emit(m, "service.mean_gang_size", s.batch.meanGangSize(), probe);
    emit(m, "service.window_close_share",
         share(s.batch.windowCloses, s.batch.gangs), probe);
    emit(m, "controller.bus_util", s.busUtilization, probe);
    emit(m, "controller.bank_util", s.bankUtilization, probe);
    emit(m, "model_p99_cycles", static_cast<double>(s.latency.p99()), probe);
    emit(m, "model_req_per_kcycle", s.throughputPerKcycle(), probe);
}

void
emitFaults(Metrics &m, const ServiceTrace &t, bool probe)
{
    const ServiceStats &s = t.stats;
    emit(m, "service.fault.shift_sample_ns", perItemNs(t.shiftS, t.shiftCalls),
         probe);
    emit(m, "service.fault.data_sample_ns", perItemNs(t.dataS, t.dataCalls),
         probe);
    emit(m, "service.fault.health_ns", perItemNs(t.healthS, t.healthCalls),
         probe);
    emit(m, "service.fault.injected",
         static_cast<double>(s.injectedFaults + s.dataFaultsInjected), probe);
    emit(m, "service.fault.retries", static_cast<double>(s.guardRetries),
         probe);
    emit(m, "service.fault.breaker_trips", static_cast<double>(s.breakerTrips),
         probe);
    emit(m, "service.fault.maintenance_units",
         static_cast<double>(s.maintenanceUnits), probe);
    emit(m, "service.fault.ecc_corrections",
         static_cast<double>(s.eccCorrections), probe);
    emit(m, "service.fault.capacity_loss", s.capacityLossFraction, probe);
}

void
reportService(LayerReport &rep, const ServiceTrace &t)
{
    rep.outputs = canonicalOutputs(t.stats);
    rep.reference = "ServiceEngine::run (1 thread)";
    rep.untracedWallS = t.engineWallS;
    rep.tracedWallS = t.mirrorWallS;
    rep.layers = {{"service.generate", t.generateS},
                  {"service.batch", t.batchS},
                  {"controller.replay", t.replayS}};
    if (t.shiftCalls > 0) {
        rep.layers.push_back({"setup.guard_costs", t.guardCostsS});
        rep.layers.push_back({"service.fault.shift_sample", t.shiftS});
        rep.layers.push_back({"service.fault.data_sample", t.dataS});
        rep.layers.push_back({"service.fault.health", t.healthS});
    }
    rep.residualLabel = "admit, steer, fault verdict, dispatch, merge "
                        "(unattributed)";
}

// ===================================================================
// obs
// ===================================================================

/** Stream buffer that only counts the bytes written to it. */
class CountingBuf : public std::streambuf
{
  public:
    std::uint64_t bytes = 0;

  protected:
    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            ++bytes;
        return traits_type::not_eof(c);
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes += static_cast<std::uint64_t>(n);
        return n;
    }
};

double
timedRun(const ServiceConfig &cfg, ServiceStats *out = nullptr)
{
    ServiceEngine engine(cfg);
    auto t0 = Clock::now();
    ServiceStats s = engine.run();
    double wall = secondsSince(t0);
    if (out)
        *out = std::move(s);
    return wall;
}

void
traceObs(Metrics &m, const ServiceConfig &cfg, std::uint64_t trace_duration,
         bool probe)
{
    ServiceConfig off = cfg;
    off.collectMetrics = false;
    off.collectTrace = false;
    ServiceConfig on = off;
    on.collectMetrics = true;
    double wall_off = timedRun(off);
    double wall_on = timedRun(on);
    emit(m, "obs.metrics_overhead_s", wall_on - wall_off, probe);

    // TraceSink buffers every event in memory, so the trace overhead is
    // measured on a shortened run of the same configuration.
    ServiceConfig toff = withDuration(off, trace_duration);
    ServiceConfig ton = toff;
    ton.collectTrace = true;
    double trace_off = timedRun(toff);
    ServiceStats traced;
    double trace_on = timedRun(ton, &traced);
    CountingBuf buf;
    std::ostream os(&buf);
    auto t0 = Clock::now();
    traced.trace.writeJson(os);
    double write_s = secondsSince(t0);
    emit(m, "obs.trace_overhead_ratio",
         trace_off > 0 ? trace_on / trace_off : 0.0, probe);
    emit(m, "obs.trace_events_per_req",
         share(traced.trace.events(), traced.generated), probe);
    emit(m, "obs.trace_bytes_per_req", share(buf.bytes, traced.generated),
         probe);
    emit(m, "obs.trace_write_s", write_s, probe);
}

// ===================================================================
// arch / controller / reliability: the campaign trial loop
// ===================================================================

struct CampaignTrace
{
    ControllerCampaignResult lib;
    double libWallS = 0.0;
    double mirrorWallS = 0.0;
    double writeS = 0.0, execS = 0.0, readS = 0.0, scrubS = 0.0;
    std::uint64_t writes = 0, execs = 0, reads = 0;
    std::uint64_t shiftSteps = 0, touched = 0, retried = 0;
};

/**
 * FaultCampaign::controllerCampaign's trial loop through the same
 * public calls, memory configuration and RNG stream, with a timer
 * around each call into the memory and the controller.
 */
CampaignTrace
traceCampaign(const ControllerCampaignConfig &ccfg, Checks &checks)
{
    CampaignTrace t;
    {
        auto t0 = Clock::now();
        t.lib = FaultCampaign::controllerCampaign(ccfg);
        t.libWallS = secondsSince(t0);
    }

    auto m0 = Clock::now();
    const MemoryConfig mcfg = campaignMemoryConfig(ccfg);
    DwmMainMemory mem(mcfg);
    MemoryController ctrl(mem);
    Rng rng(ccfg.seed * 6364136223846793005ULL + 1442695040888963407ULL);
    const std::size_t wires = mcfg.device.wiresPerDbc;
    const std::size_t rows = mcfg.device.domainsPerWire;
    const std::size_t lanes = wires / ccfg.blockSize;
    const std::uint64_t lane_mask =
        ccfg.blockSize >= 64 ? ~0ULL : ((1ULL << ccfg.blockSize) - 1);

    ControllerCampaignResult res;
    res.trials = ccfg.trials;
    for (std::uint64_t trial = 0; trial < ccfg.trials; ++trial) {
        std::uint64_t fix0 = mem.correctedMisalignments();
        std::uint64_t due0 = mem.uncorrectableEvents();
        std::uint64_t ecc_fix0 = mem.eccCorrections();
        std::uint64_t ecc_due0 = mem.eccDetectedUncorrectable();
        LineAddress loc;
        loc.bank = rng.next() % mcfg.banks;
        loc.subarray = rng.next() % mcfg.subarraysPerBank;
        loc.tile = rng.next() % mcfg.tilesPerSubarray;
        loc.dbc = rng.next() % mcfg.dbcsPerTile;
        loc.row = rng.next() % (rows - ccfg.operands);

        std::vector<std::uint64_t> golden(lanes, 0);
        std::uint64_t src = 0;
        for (std::size_t i = 0; i < ccfg.operands; ++i) {
            BitVector row(wires);
            for (std::size_t l = 0; l < lanes; ++l) {
                std::uint64_t v = rng.next() & lane_mask;
                row.insertUint64(l * ccfg.blockSize, ccfg.blockSize, v);
                golden[l] = (golden[l] + v) & lane_mask;
            }
            LineAddress op_loc = loc;
            op_loc.row = loc.row + i;
            std::uint64_t addr = mem.addressMap().encode(op_loc);
            if (i == 0)
                src = addr;
            auto t0 = Clock::now();
            mem.writeLine(addr, row);
            t.writeS += secondsSince(t0);
            ++t.writes;
        }
        LineAddress dst_loc = loc;
        dst_loc.row = loc.row + ccfg.operands;
        std::uint64_t dst = mem.addressMap().encode(dst_loc);

        CpimInstruction inst;
        inst.op = CpimOp::Add;
        inst.src = src;
        inst.dst = dst;
        inst.operands = static_cast<std::uint8_t>(ccfg.operands);
        inst.blockSize = static_cast<std::uint16_t>(ccfg.blockSize);
        auto t0 = Clock::now();
        ExecReport rep = ctrl.executeGuarded(inst);
        t.execS += secondsSince(t0);
        ++t.execs;

        t0 = Clock::now();
        BitVector got = mem.readLine(dst);
        t.readS += secondsSince(t0);
        ++t.reads;
        bool match = true;
        for (std::size_t l = 0; l < lanes && match; ++l)
            match = got.sliceUint64(l * ccfg.blockSize, ccfg.blockSize) ==
                    golden[l];

        bool flagged = rep.outcome == ExecOutcome::Uncorrectable ||
                       rep.outcome == ExecOutcome::SparesExhausted ||
                       mem.uncorrectableEvents() > due0 ||
                       mem.eccDetectedUncorrectable() > ecc_due0;
        bool fixed = rep.outcome == ExecOutcome::Corrected ||
                     mem.correctedMisalignments() > fix0 ||
                     mem.eccCorrections() > ecc_fix0;
        if (flagged)
            ++res.due;
        else if (!match)
            ++res.sdc;
        else if (fixed)
            ++res.corrected;
        else
            ++res.clean;
    }
    // Counters the campaign result does not carry, read before the
    // final sweep adds its own guard checks.
    t.shiftSteps = mem.totalShifts();
    t.touched = mem.touchedDbcs();
    t.retried = ctrl.retriedInstructions();

    auto t0 = Clock::now();
    ScrubReport sweep = mem.scrubAll();
    t.scrubS = secondsSince(t0);
    res.residualAfterScrub = sweep.uncorrectable;
    res.injectedFaults = mem.injectedShiftFaults();
    res.guardChecks = mem.guardChecks();
    res.correctivePulses = mem.correctedMisalignments();
    res.retiredDbcs = mem.retiredDbcs();
    res.dataFaultsInjected = mem.injectedDataFaults();
    res.eccCorrections = mem.eccCorrections();
    res.eccDue = mem.eccDetectedUncorrectable();
    t.mirrorWallS = secondsSince(m0);

    checks.expect(canonicalOutputs(res) == canonicalOutputs(t.lib),
                  "campaign mirror: taxonomy and counters == "
                  "controllerCampaign");
    return t;
}

void
emitCampaign(Metrics &m, const CampaignTrace &t, bool probe)
{
    const ControllerCampaignResult &r = t.lib;
    double timed = t.writeS + t.execS + t.readS + t.scrubS;
    emit(m, "arch.write_line_ns", perItemNs(t.writeS, t.writes), probe);
    emit(m, "controller.execute_guarded_ns", perItemNs(t.execS, t.execs),
         probe);
    emit(m, "arch.read_line_ns", perItemNs(t.readS, t.reads), probe);
    emit(m, "arch.scrub_all_s", t.scrubS, probe);
    emit(m, "campaign.residual_ns_per_trial",
         perItemNs(t.mirrorWallS - timed, r.trials), probe);
    emit(m, "arch.guard_checks", static_cast<double>(r.guardChecks), probe);
    emit(m, "arch.shift_steps", static_cast<double>(t.shiftSteps), probe);
    emit(m, "arch.touched_dbcs", static_cast<double>(t.touched), probe);
    emit(m, "controller.retry_share", share(t.retried, t.execs), probe);
    emit(m, "reliability.ecc_corrections",
         static_cast<double>(r.eccCorrections), probe);
    emit(m, "reliability.ecc_due", static_cast<double>(r.eccDue), probe);
    emit(m, "dwm.shift_faults_injected", static_cast<double>(r.injectedFaults),
         probe);
    emit(m, "dwm.data_faults_injected",
         static_cast<double>(r.dataFaultsInjected), probe);
    emit(m, "model_coverage", r.coverage(), probe);
}

void
reportCampaign(LayerReport &rep, const CampaignTrace &t)
{
    rep.outputs = canonicalOutputs(t.lib);
    rep.reference = "FaultCampaign::controllerCampaign";
    rep.untracedWallS = t.libWallS;
    rep.tracedWallS = t.mirrorWallS;
    rep.layers = {{"arch.write_line", t.writeS},
                  {"controller.execute_guarded", t.execS},
                  {"arch.read_line", t.readS},
                  {"arch.scrub_all", t.scrubS}};
    rep.residualLabel = "trial setup: RNG, operand rows, golden sums, "
                        "classification (unattributed)";
}

// ===================================================================
// util / core / dwm / baselines: the Fig. 12 chunk loops
// ===================================================================

constexpr std::size_t kDwmRowBits = 512;    ///< one DBC row
constexpr std::size_t kDramRowBits = 65536; ///< one DRAM row

struct BitmapTrace
{
    std::vector<BitmapEval> lib;
    double synthS = 0.0;
    double libWallS = 0.0;
    double mirrorWallS = 0.0;
    double stageS = 0.0, andS = 0.0, popS = 0.0; ///< 512-bit chunks
    double dramStageS = 0.0, multiS = 0.0, dramPopS = 0.0;
    double cpuS = 0.0;
    std::uint64_t chunks = 0, dramChunks = 0, trPulses = 0, cpuQueries = 0;
    double trAllNs = 0.0;
};

const BitmapQueryResult *
findResult(const std::vector<BitmapEval> &evals, const std::string &tech,
           std::size_t w)
{
    for (const BitmapEval &e : evals)
        if (e.weeks == w && e.result.technique == tech)
            return &e.result;
    return nullptr;
}

/**
 * One technique's chunk loop: stage each operand's slice into a padded
 * row, run @p op on the rows, count the survivors.  Mirrors
 * runCoruscant / runDramPim; returns the matches.
 */
std::uint64_t
chunkLoop(const std::vector<const BitVector *> &ops, std::size_t users,
          std::size_t row_bits,
          const std::function<BitVector(const std::vector<BitVector> &)> &op,
          double &stage_s, double &op_s, double &pop_s, std::uint64_t &chunks)
{
    std::size_t n = (users + row_bits - 1) / row_bits;
    std::uint64_t matches = 0;
    for (std::size_t c = 0; c < n; ++c) {
        std::size_t lo = c * row_bits;
        std::size_t width = std::min(row_bits, users - lo);
        auto t0 = Clock::now();
        std::vector<BitVector> rows;
        for (const BitVector *o : ops) {
            BitVector padded(row_bits);
            padded.insert(0, o->slice(lo, width));
            rows.push_back(std::move(padded));
        }
        auto t1 = Clock::now();
        BitVector result = op(rows);
        auto t2 = Clock::now();
        matches += result.slice(0, width).popcount();
        auto t3 = Clock::now();
        stage_s += std::chrono::duration<double>(t1 - t0).count();
        op_s += std::chrono::duration<double>(t2 - t1).count();
        pop_s += std::chrono::duration<double>(t3 - t2).count();
    }
    chunks += n;
    return matches;
}

BitmapTrace
traceBitmap(const BitmapSpec &spec, std::size_t tr_calls, Checks &checks)
{
    BitmapTrace t;
    auto t0 = Clock::now();
    BitmapDatabase db =
        BitmapDatabase::synthesize(spec.users, spec.weeks, spec.seed);
    t.synthS = secondsSince(t0);
    t0 = Clock::now();
    t.lib = runBitmapQueries(db, spec);
    t.libWallS = secondsSince(t0);

    BitmapQueryEngine engine(db);
    auto m0 = Clock::now();
    for (std::size_t w : spec.queries) {
        std::vector<const BitVector *> ops = {&db.male};
        for (std::size_t i = 0; i < w; ++i)
            ops.push_back(&db.activeWeek[i]);

        t0 = Clock::now();
        BitmapQueryResult cpu = engine.runCpuDram(w);
        t.cpuS += secondsSince(t0);
        ++t.cpuQueries;

        CoruscantUnit unit(DeviceParams::withTrd(7));
        obs::ComponentMetrics counts;
        unit.attachMetrics(&counts);
        std::uint64_t cor = chunkLoop(
            ops, db.users, kDwmRowBits,
            [&](const std::vector<BitVector> &rows) {
                return unit.bulkBitwise(BulkOp::And, rows);
            },
            t.stageS, t.andS, t.popS, t.chunks);
        t.trPulses += counts.get(obs::Counter::TrPulses);

        Elp2ImUnit dram(kDramRowBits);
        std::uint64_t elp = chunkLoop(
            ops, db.users, kDramRowBits,
            [&](const std::vector<BitVector> &rows) {
                dram.resetCosts();
                return dram.bulkMulti(BulkOp::And, rows);
            },
            t.dramStageS, t.multiS, t.dramPopS, t.dramChunks);

        const BitmapQueryResult *lc = findResult(t.lib, "coruscant", w);
        const BitmapQueryResult *le = findResult(t.lib, "elp2im", w);
        const BitmapQueryResult *lp = findResult(t.lib, "cpu-dram", w);
        std::string tag = " w=" + std::to_string(w);
        checks.expect(lc && lc->matches == cor,
                      "bitmap mirror: CORUSCANT chunk loop matches == "
                      "runCoruscant" + tag);
        checks.expect(le && le->matches == elp,
                      "bitmap mirror: ELP2IM chunk loop matches == "
                      "runElp2im" + tag);
        checks.expect(lp && lp->matches == cpu.matches &&
                          lp->cycles == cpu.cycles,
                      "bitmap mirror: runCpuDram repeats" + tag);
    }
    t.mirrorWallS = secondsSince(m0);

    // Transverse read of every wire of one 512-wire, TRD-7 cluster.
    DomainBlockCluster dbc(DeviceParams::withTrd(7));
    Rng rng(spec.seed);
    for (std::size_t r = 0; r < dbc.rows(); ++r) {
        BitVector row(dbc.width());
        for (std::size_t w = 0; w < dbc.width(); ++w)
            row.set(w, rng.nextBool());
        dbc.pokeRow(r, row);
    }
    std::uint64_t sink = 0;
    t0 = Clock::now();
    for (std::size_t i = 0; i < tr_calls; ++i) {
        std::vector<std::uint8_t> counts = dbc.transverseReadAll();
        sink += counts[i % counts.size()];
    }
    t.trAllNs = perItemNs(secondsSince(t0), tr_calls);
    checks.expect(sink <= tr_calls * dbc.params().trd,
                  "bitmap: TR counts stay within TRD");
    return t;
}

void
emitBitmap(Metrics &m, const BitmapTrace &t, bool probe)
{
    emit(m, "util.stage_ns_per_chunk", perItemNs(t.stageS, t.chunks), probe);
    emit(m, "util.popcount_ns_per_chunk", perItemNs(t.popS, t.chunks),
         probe);
    emit(m, "core.bulk_and_ns_per_chunk", perItemNs(t.andS, t.chunks), probe);
    emit(m, "dwm.tr_all_ns", t.trAllNs, probe);
    emit(m, "baselines.bulk_multi_ns_per_chunk",
         perItemNs(t.multiS, t.dramChunks), probe);
    emit(m, "apps.cpu_query_s",
         t.cpuQueries ? t.cpuS / static_cast<double>(t.cpuQueries) : 0.0,
         probe);
    emit(m, "core.tr_pulses_per_chunk", share(t.trPulses, t.chunks), probe);
    const BitmapQueryResult *e4 = findResult(t.lib, "elp2im", 4);
    const BitmapQueryResult *c4 = findResult(t.lib, "coruscant", 4);
    emit(m, "model_cor_vs_elp2im_w4",
         e4 && c4 && c4->cycles
             ? static_cast<double>(e4->cycles) /
                   static_cast<double>(c4->cycles)
             : 0.0,
         probe);
}

void
reportBitmap(LayerReport &rep, const BitmapTrace &t)
{
    rep.outputs = canonicalOutputs(t.lib);
    rep.reference = "BitmapQueryEngine runCpuDram/runElp2im/runCoruscant";
    rep.untracedWallS = t.libWallS;
    rep.tracedWallS = t.mirrorWallS;
    // DRAM-row staging and counting are BitVector work too.
    rep.layers = {{"util.stage", t.stageS + t.dramStageS},
                  {"core.bulk_and", t.andS},
                  {"util.popcount", t.popS + t.dramPopS},
                  {"baselines.bulk_multi", t.multiS},
                  {"apps.cpu_query", t.cpuS}};
    rep.residualLabel = "engine bookkeeping, unit construction "
                        "(unattributed)";
}

double
medianSeconds(const std::function<void()> &fn, int reps)
{
    std::vector<double> v;
    for (int i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        fn();
        v.push_back(secondsSince(t0));
    }
    return median(v);
}

} // namespace

void
traceLayers(const std::string &workload, std::uint64_t seed, Scale scale,
            std::uint32_t threads, Metrics &metrics, Checks &checks,
            LayerReport &report)
{
    const bool clean = workload == "serve_clean";
    const bool faulty = workload == "serve_faults";
    const bool campaign = workload == "campaign_ecc";
    const bool bitmap = workload == "bitmap_query";
    // Probe sizes for the groups a workload does not load.
    const std::uint64_t probe_cycles = 1000000;
    const std::uint64_t trace_cycles =
        scale == Scale::Full ? 5000000 : 100000;

    ServiceConfig clean_cfg = serveCleanConfig(seed, scale);
    ServiceConfig faults_cfg = serveFaultsConfig(seed, scale, threads);
    ServiceConfig clean_probe = withDuration(clean_cfg, probe_cycles);
    clean_probe.channels = 1;
    ServiceConfig faults_probe = withDuration(faults_cfg, probe_cycles);
    faults_probe.channels = 1;

    // service and service.fault
    if (faulty) {
        ServiceTrace t = traceService(faults_cfg, checks);
        emitService(metrics, t, false);
        emitFaults(metrics, t, false);
        reportService(report, t);
    } else {
        ServiceTrace s = traceService(clean ? clean_cfg : clean_probe, checks);
        emitService(metrics, s, !clean);
        if (clean)
            reportService(report, s);
        ServiceTrace f = traceService(faults_probe, checks);
        emitFaults(metrics, f, true);
    }

    // obs
    if (clean)
        traceObs(metrics, clean_cfg, trace_cycles, false);
    else if (faulty)
        traceObs(metrics, faults_cfg, trace_cycles, false);
    else
        traceObs(metrics, clean_probe, probe_cycles, true);

    // arch / controller / reliability
    {
        ControllerCampaignConfig cc = campaignConfig(seed, scale);
        if (!campaign)
            cc.trials = std::min<std::uint64_t>(cc.trials, 200);
        CampaignTrace t = traceCampaign(cc, checks);
        emitCampaign(metrics, t, !campaign);
        if (campaign)
            reportCampaign(report, t);
    }

    // util / core / dwm / baselines
    {
        BitmapSpec spec = bitmapSpec(seed, bitmap ? scale : Scale::Tiny);
        std::size_t tr_calls = bitmap && scale == Scale::Full ? 20000 : 2000;
        BitmapTrace t = traceBitmap(spec, tr_calls, checks);
        emitBitmap(metrics, t, !bitmap);
        if (bitmap)
            reportBitmap(report, t);
        emit(metrics, "setup.bitmap_synth_s", t.synthS, !bitmap);
    }

    // setup
    emit(metrics, "setup.cost_table_s",
         medianSeconds([] { ServiceCostTable::build(7); }, 3),
         campaign || bitmap);
    emit(metrics, "setup.guard_costs_s",
         medianSeconds([] { GuardServiceCosts::measure(); }, 3), !faulty);

    // attribution summary
    double attributed = 0.0;
    for (const LayerTime &l : report.layers)
        attributed += l.selfS;
    emit(metrics, "trace.overhead_ratio",
         report.untracedWallS > 0
             ? report.tracedWallS / report.untracedWallS
             : 0.0,
         false);
    emit(metrics, "trace.unattributed_share",
         report.untracedWallS > 0
             ? (report.untracedWallS - attributed) / report.untracedWallS
             : 0.0,
         false);
}

} // namespace perfbench
