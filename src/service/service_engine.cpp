#include "service/service_engine.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <optional>
#include <queue>
#include <span>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "controller/channel_timeline.hpp"
#include "util/cycles.hpp"
#include "util/logging.hpp"

namespace coruscant {

void
ClassStats::merge(const ClassStats &o)
{
    generated += o.generated;
    admitted += o.admitted;
    rejected += o.rejected;
    completed += o.completed;
    maxQueueDepth = std::max(maxQueueDepth, o.maxQueueDepth);
    latency.merge(o.latency);
}

double
ServiceStats::throughputPerKcycle() const
{
    return makespan ? 1000.0 * static_cast<double>(completed) /
                          static_cast<double>(makespan)
                    : 0.0;
}

std::string
ServiceStats::report() const
{
    std::ostringstream os;
    os << "channels=" << channels << " makespan=" << makespan
       << " cycles\n";
    os << "requests: generated=" << generated
       << " admitted=" << admitted << " rejected=" << rejected
       << " completed=" << completed << "\n";
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "throughput: %.3f req/kcycle  bus util %.3f  "
                  "bank util %.3f  energy %.3f uJ\n",
                  throughputPerKcycle(), busUtilization,
                  bankUtilization, energyPj * 1e-6);
    os << buf;
    os << "latency (cycles): " << latency.summary() << "\n";
    std::snprintf(buf, sizeof buf,
                  "batching: units=%llu gangs=%llu mean-size=%.2f "
                  "full-closes=%llu window-closes=%llu\n",
                  static_cast<unsigned long long>(dispatchedUnits),
                  static_cast<unsigned long long>(batch.gangs),
                  batch.meanGangSize(),
                  static_cast<unsigned long long>(batch.fullCloses),
                  static_cast<unsigned long long>(batch.windowCloses));
    os << buf;
    os << "per-class:\n";
    std::snprintf(buf, sizeof buf, "  %-7s %10s %10s %9s %10s %6s %8s %8s\n",
                  "class", "generated", "admitted", "rejected",
                  "completed", "maxQ", "p50", "p99");
    os << buf;
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
        const ClassStats &pc = perClass[c];
        if (pc.generated == 0)
            continue;
        std::snprintf(
            buf, sizeof buf,
            "  %-7s %10llu %10llu %9llu %10llu %6llu %8llu %8llu\n",
            requestClassName(static_cast<RequestClass>(c)),
            static_cast<unsigned long long>(pc.generated),
            static_cast<unsigned long long>(pc.admitted),
            static_cast<unsigned long long>(pc.rejected),
            static_cast<unsigned long long>(pc.completed),
            static_cast<unsigned long long>(pc.maxQueueDepth),
            static_cast<unsigned long long>(pc.latency.p50()),
            static_cast<unsigned long long>(pc.latency.p99()));
        os << buf;
    }
    os << "outcomes:";
    for (std::size_t k = 0; k < kRequestOutcomes; ++k)
        os << " "
           << requestOutcomeName(static_cast<RequestOutcome>(k)) << "="
           << outcomes[k];
    os << "\n";
    bool faulty = injectedFaults || guardRetries || breakerTrips ||
                  retiredGroups || deadGroups || steeredRequests ||
                  capacityRejections || maintenanceUnits ||
                  dataFaultsInjected || eccCorrections ||
                  eccDetectedUncorrectable;
    if (faulty) {
        std::snprintf(
            buf, sizeof buf,
            "faults: injected=%llu retries=%llu breaker-trips=%llu "
            "retired=%llu dead=%llu steered=%llu "
            "capacity-rejected=%llu maintenance-units=%llu "
            "capacity-loss=%.4f\n",
            static_cast<unsigned long long>(injectedFaults),
            static_cast<unsigned long long>(guardRetries),
            static_cast<unsigned long long>(breakerTrips),
            static_cast<unsigned long long>(retiredGroups),
            static_cast<unsigned long long>(deadGroups),
            static_cast<unsigned long long>(steeredRequests),
            static_cast<unsigned long long>(capacityRejections),
            static_cast<unsigned long long>(maintenanceUnits),
            capacityLossFraction);
        os << buf;
        if (dataFaultsInjected || eccCorrections ||
            eccDetectedUncorrectable) {
            std::snprintf(
                buf, sizeof buf,
                "ecc: data-faults=%llu corrections=%llu "
                "detected-uncorrectable=%llu\n",
                static_cast<unsigned long long>(dataFaultsInjected),
                static_cast<unsigned long long>(eccCorrections),
                static_cast<unsigned long long>(
                    eccDetectedUncorrectable));
            os << buf;
        }
        for (std::size_t k = 0; k < kRequestOutcomes; ++k) {
            if (outcomeLatency[k].count() == 0)
                continue;
            os << "  "
               << requestOutcomeName(static_cast<RequestOutcome>(k))
               << " latency: " << outcomeLatency[k].summary() << "\n";
        }
    }
    return os.str();
}

namespace {

/** Cycles a rejected closed-loop client waits before it re-arrives. */
constexpr std::uint64_t kClosedLoopRejectWait = 256;

WorkloadConfig
workloadConfigOf(const ServiceConfig &cfg, std::size_t max_add)
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

/**
 * Combine two unit verdicts.  A flagged detected-uncorrectable
 * dominates silent corruption (campaign taxonomy: a flagged trial is
 * a DUE whether or not the data happens to be right), which dominates
 * corrected, which dominates clean.
 */
RequestOutcome
worseOutcome(RequestOutcome a, RequestOutcome b)
{
    auto rank = [](RequestOutcome o) {
        switch (o) {
        case RequestOutcome::Due:
            return 3;
        case RequestOutcome::Sdc:
            return 2;
        case RequestOutcome::Corrected:
            return 1;
        default:
            return 0;
        }
    };
    return rank(a) >= rank(b) ? a : b;
}

/**
 * Simulates one channel: admission, batching, and in-order dispatch
 * through the channel's ChannelTimeline, which also yields its
 * makespan and utilization.
 */
class ChannelSim
{
  public:
    ChannelSim(const ServiceConfig &cfg, const ServiceCostTable &costs,
               const GuardServiceCosts &guard_costs,
               const RetryLadder &ladder, std::uint32_t channel)
        : cfg_(cfg), costs_(costs), guardCosts_(guard_costs),
          ladder_(ladder), channel_(channel),
          gen_(workloadConfigOf(cfg, costs.maxAddOperands()), cfg.seed,
               channel),
          batcher_(costs.maxGangOperands(), cfg.batchWindowCycles),
          timeline_(cfg.banksPerChannel)
    {
        if (cfg.faults.enabled()) {
            // A distinct per-channel stream, salted so the fault RNG
            // never correlates with the workload generator's.
            injector_.emplace(cfg.faults,
                              channelSeed(cfg.seed ^ 0xfa175eedull,
                                          channel));
            health_.emplace(cfg.faults, cfg.banksPerChannel,
                            cfg.dbcGroupsPerBank);
            nextScrub_ = cfg.faults.scrubIntervalCycles;
            if (cfg.faults.dataFaultsEnabled()) {
                // Its own salted stream: data faults never correlate
                // with the shift-fault or workload generators.
                dataInjector_.emplace(
                    cfg.faults,
                    channelSeed(cfg.seed ^ 0x00ecc5eedull, channel),
                    DeviceParams::withTrd(cfg.trd).wiresPerDbc,
                    ReliabilityConfig::eccWordBits);
            }
        }
        if (cfg.collectMetrics) {
            std::string base = "channel" + std::to_string(channel);
            chMetrics_ = &stats_.metrics.component(base);
            batchMetrics_ =
                &stats_.metrics.component(base + "/batcher");
            if (injector_)
                guardMetrics_ =
                    &stats_.metrics.component(base + "/guard");
            if (dataInjector_)
                eccMetrics_ =
                    &stats_.metrics.component(base + "/ecc");
        }
        if (cfg.collectTrace) {
            stats_.trace.enable();
            stats_.trace.processName(
                channel, "channel " + std::to_string(channel));
        }
    }

    ServiceStats
    run()
    {
        stats_.channels = 1;
        runEvents();
        stats_.makespan = timeline_.makespan();
        stats_.busUtilization = timeline_.busUtilization();
        stats_.bankUtilization = timeline_.bankUtilization();
        stats_.batch = batcher_.stats();
        if (injector_) {
            stats_.injectedFaults = injector_->injected();
            if (guardMetrics_)
                guardMetrics_->add(obs::Counter::FaultsInjected,
                                   injector_->injected());
            stats_.breakerTrips = health_->breakerTrips();
            stats_.retiredGroups = health_->retiredGroups();
            stats_.deadGroups = health_->deadGroups();
            stats_.steeredRequests = health_->steeredRequests();
            stats_.capacityLossFraction =
                health_->capacityLossFraction();
            if (dataInjector_)
                stats_.dataFaultsInjected = dataInjector_->injected();
        }
        return stats_;
    }

  private:
    /** (completion cycle, request class) of an in-flight request. */
    using Completion = std::pair<std::uint64_t, std::uint8_t>;

    /** Count a request of class @p c that is never served. */
    bool
    reject(std::size_t c)
    {
        stats_.rejected += 1;
        stats_.perClass[c].rejected += 1;
        stats_.outcomes[static_cast<std::size_t>(
            RequestOutcome::Rejected)] += 1;
        return false;
    }

    /**
     * Degradation-aware bounded admission.  With faults on, the
     * request's (bank, group) home is first routed around
     * breaker-open/retiring/dead groups before it can reach the
     * batcher — broken groups never join gang formation; when no live
     * group remains the request is a typed capacity rejection, not an
     * abort.  Then the class queue bound applies.
     */
    bool
    admit(ServiceRequest &r, std::uint64_t now)
    {
        auto c = static_cast<std::size_t>(r.cls);
        stats_.generated += 1;
        stats_.perClass[c].generated += 1;
        if (health_ && !health_->steer(r.bank, r.dbcGroup, now)) {
            stats_.capacityRejections += 1;
            return reject(c);
        }
        // Retire completions up to now from the outstanding counts.
        while (!inFlight_.empty() && inFlight_.top().first <= now) {
            --outstanding_[inFlight_.top().second];
            inFlight_.pop();
        }
        std::uint64_t depth = outstanding_[c];
        if (cfg_.queueCapacity > 0 && depth >= cfg_.queueCapacity)
            return reject(c);
        outstanding_[c] += 1;
        stats_.admitted += 1;
        stats_.perClass[c].admitted += 1;
        stats_.perClass[c].maxQueueDepth =
            std::max(stats_.perClass[c].maxQueueDepth, depth + 1);
        return true;
    }

    /** What the fault pipeline decided about one dispatched unit. */
    struct FaultVerdict
    {
        std::uint64_t extraCycles = 0; ///< folded into service time
        double extraEnergyPj = 0.0;
        RequestOutcome outcome = RequestOutcome::Clean;
        std::uint32_t retries = 0;     ///< re-executions after detection
        std::uint32_t corrections = 0; ///< misalignments fixed
        bool detected = false;         ///< health-tracker relevant

        /** Whether the unit ends detected-uncorrectable. */
        bool due() const { return outcome == RequestOutcome::Due; }

        /** Add @p cycles and @p pj to the unit's service and energy. */
        void
        charge(std::uint64_t cycles, double pj)
        {
            extraCycles += cycles;
            extraEnergyPj += pj;
        }

        /** Re-execute the unit after waiting @p backoff cycles. */
        void
        chargeRetry(std::uint64_t backoff, const RequestCost &cost)
        {
            charge(backoff + cost.serviceCycles, cost.energyPj);
            retries += 1;
        }

        /** Realign a misaligned cluster: correct it, or reset (DUE). */
        void
        realign(const GuardServiceCosts::Realignment &r)
        {
            charge(r.cycles, r.energyPj);
            detected = true;
            if (r.due) {
                outcome = RequestOutcome::Due;
            } else {
                corrections += 1;
                outcome = RequestOutcome::Corrected;
            }
        }

        /** Fold in the data-fault verdict; it fixes no misalignments. */
        void
        merge(const FaultVerdict &o)
        {
            extraCycles += o.extraCycles;
            extraEnergyPj += o.extraEnergyPj;
            retries += o.retries;
            detected |= o.detected;
            outcome = worseOutcome(outcome, o.outcome);
        }
    };

    /**
     * Run one unit's shift pulses through the channel's fault injector
     * under the configured guard policy.  Detection/correction charges
     * come from GuardServiceCosts (measured through the real device
     * pipeline); re-executions re-pay the unit's base service time
     * after an exponential backoff.
     */
    FaultVerdict
    applyFaults(std::uint64_t now, std::uint32_t bank,
                std::uint32_t group, const RequestCost &cost,
                std::uint64_t shifts, bool pim_class)
    {
        FaultVerdict v;
        const ServiceFaultConfig &fc = cfg_.faults;
        const GuardServiceCosts &g = guardCosts_;
        if (fc.policy == GuardPolicy::PerAccess) {
            // Every access's alignment burst is guard-checked before
            // the port touches data, so each fault is caught where it
            // happens: corrections add latency, nothing survives
            // silently and nothing accumulates.
            v.charge(g.checkCycles, g.checkEnergyPj);
            ChannelFaultInjector::Sample s =
                injector_->sample(shifts, now);
            if (s.faults) {
                v.charge(s.faults * g.correctCycles,
                         s.faults * g.correctEnergyPj);
                v.corrections += s.faults;
                v.detected = true;
                v.outcome = RequestOutcome::Corrected;
            }
            return v;
        }
        bool guarded = fc.policy == GuardPolicy::PerCpim && pim_class;
        if (!guarded) {
            // Silent path (None, scrub-between-sweeps, or non-cpim
            // traffic under PerCpim): faults land unobserved and the
            // group's misalignment sticks until something checks it.
            int &mis = health_->misalign(bank, group);
            bool dirty = mis != 0;
            ChannelFaultInjector::Sample s =
                injector_->sample(shifts, now);
            mis += s.net;
            if (dirty || s.faults)
                v.outcome = RequestOutcome::Sdc;
            return v;
        }
        // PerCpim: check around the whole unit, correct, and re-execute
        // under the bounded retry ladder.  First clear anything earlier
        // unguarded traffic left behind on this group.
        v.charge(g.checkCycles, g.checkEnergyPj);
        int &mis = health_->misalign(bank, group);
        if (mis != 0) {
            v.realign(g.realign(mis));
            mis = 0;
            if (v.due())
                return v;
        }
        bool exhausted = ladder_.climb(
            [&](std::size_t attempt) {
                ChannelFaultInjector::Sample s =
                    injector_->sample(shifts, now);
                if (s.faults == 0) {
                    if (attempt > 0)
                        v.outcome = RequestOutcome::Corrected;
                    return false;
                }
                if (s.net == 0) {
                    // Over- and under-shifts cancelled within the unit:
                    // the post-check sees an aligned cluster, but rows
                    // touched between the bad pulses were wrong — the
                    // blind spot of the coarse check cadence.
                    v.charge(g.checkCycles, g.checkEnergyPj);
                    v.outcome = RequestOutcome::Sdc;
                    return false;
                }
                GuardServiceCosts::Realignment fix = g.realign(s.net);
                if (fix.due) {
                    // A reset also pays the post-check that found it.
                    fix.cycles += g.checkCycles;
                    fix.energyPj += g.checkEnergyPj;
                }
                v.realign(fix);
                return !v.due();
            },
            [&](std::uint64_t backoff) { v.chargeRetry(backoff, cost); });
        if (exhausted)
            v.outcome = RequestOutcome::Due;
        return v;
    }

    /**
     * Data-domain faults of one dispatched unit, classified per SECDED
     * codeword.  ECC check-lane energy rides every port access whether
     * or not a fault lands.  PIM-class units sense raw operand lanes
     * with transverse reads — check bits mean nothing to a TR — so
     * under pimNmr > 1 they run N-modular-redundant instead: the
     * replicas are charged in full and the vote masks transient
     * corruption.  Port-path DUE words re-execute under the bounded
     * retry ladder (transient flips re-sample clean); words still
     * uncorrectable after the ladder escalate to the health tracker.
     */
    FaultVerdict
    applyDataFaults(std::uint64_t now, std::uint32_t bank,
                    std::uint32_t group, const RequestCost &cost,
                    const obs::PrimCounts &prims, bool pim_class)
    {
        FaultVerdict v;
        const ServiceFaultConfig &fc = cfg_.faults;
        const GuardServiceCosts &g = guardCosts_;
        const bool secded = fc.ecc == EccMode::Secded;
        std::uint64_t accesses = prims.reads + prims.writes;
        if (secded)
            v.extraEnergyPj +=
                static_cast<double>(prims.reads) * g.eccReadEnergyPj +
                static_cast<double>(prims.writes) * g.eccWriteEnergyPj;
        std::uint64_t idle = health_->touch(bank, group, now);
        const bool nmr = pim_class && fc.pimNmr > 1;
        if (nmr) {
            std::uint64_t extra =
                static_cast<std::uint64_t>(fc.pimNmr) - 1;
            v.charge(extra * cost.serviceCycles,
                     static_cast<double>(extra) * cost.energyPj);
            accesses *= fc.pimNmr;
        }
        ChannelDataFaultInjector::Sample s =
            dataInjector_->sample(accesses, idle);
        std::uint64_t flips = s.flips;
        if (flips == 0) {
            if (eccMetrics_ && v.extraEnergyPj != 0.0)
                eccMetrics_->addEnergy(v.extraEnergyPj);
            return v;
        }
        if (nmr) {
            // Replicated execution: the majority vote absorbs what the
            // flips corrupted; the unit completes corrected, not SDC.
            v.outcome = RequestOutcome::Corrected;
            v.detected = true;
        } else if (!secded) {
            // Unprotected port path: flips land silently.
            v.outcome = RequestOutcome::Sdc;
        } else {
            std::uint32_t corrected = s.correctedWords;
            std::uint32_t due = s.dueWords;
            std::uint32_t sdc = s.sdcWords;
            ladder_.climb([&](std::size_t) { return due > 0; },
                          [&](std::uint64_t backoff) {
                              v.chargeRetry(backoff, cost);
                              ChannelDataFaultInjector::Sample rs =
                                  dataInjector_->sample(accesses, 0);
                              flips += rs.flips;
                              corrected += rs.correctedWords;
                              due = rs.dueWords;
                              sdc += rs.sdcWords;
                          });
            tallyEcc(corrected, due);
            if (corrected > 0) {
                v.detected = true;
                v.outcome = RequestOutcome::Corrected;
            }
            if (sdc > 0)
                v.outcome =
                    worseOutcome(v.outcome, RequestOutcome::Sdc);
            if (due > 0) {
                v.detected = true;
                v.outcome = RequestOutcome::Due;
            }
        }
        if (eccMetrics_) {
            eccMetrics_->add(obs::Counter::DataFaultsInjected, flips);
            if (v.extraEnergyPj != 0.0)
                eccMetrics_->addEnergy(v.extraEnergyPj);
        }
        stats_.trace.instant("data_fault", "ecc", now, channel_,
                             bank);
        return v;
    }

    /** Count SECDED words corrected and flagged uncorrectable. */
    void
    tallyEcc(std::uint32_t corrected, std::uint32_t due)
    {
        stats_.eccCorrections += corrected;
        stats_.eccDetectedUncorrectable += due;
        if (eccMetrics_) {
            eccMetrics_->add(obs::Counter::EccCorrections, corrected);
            eccMetrics_->add(obs::Counter::EccDetectedUncorrectable, due);
        }
    }

    /**
     * Non-request bank work (scrub sweeps, retirement migration):
     * occupies the command bus and the bank like any dispatched unit,
     * so it counts toward the channel's makespan and utilization.
     * @p ecc_pj of @p energy_pj is the ECC scrub's share, booked in
     * the ecc component; the rest is the guard's.
     */
    std::uint64_t
    dispatchMaintenance(const char *name, std::uint64_t now,
                        std::uint32_t bank, std::uint32_t service_cycles,
                        double energy_pj, double ecc_pj = 0.0)
    {
        auto [start, completion] =
            timeline_.issue(now, bank, 1, service_cycles);
        stats_.dispatchedUnits += 1;
        stats_.maintenanceUnits += 1;
        stats_.energyPj += energy_pj;
        if (guardMetrics_)
            guardMetrics_->addEnergy(energy_pj - ecc_pj);
        if (eccMetrics_)
            eccMetrics_->addEnergy(ecc_pj);
        stats_.trace.span(name, "maintenance", start,
                          completion - start, channel_, bank);
        return completion;
    }

    /**
     * Feed a detected error into the health tracker and act on its
     * verdict: breaker-open trace/metrics, retirement migration (a
     * maintenance unit holding the group until the copy completes),
     * and eviction of any gang formed before the breaker opened.
     */
    void
    handleHealthEvent(std::uint32_t bank, std::uint32_t group,
                      std::uint64_t completion, bool due,
                      std::uint64_t now)
    {
        DbcHealthTracker::ErrorAction act =
            health_->recordError(bank, group, completion, due);
        if (!act.breakerOpened)
            return;
        if (guardMetrics_)
            guardMetrics_->add(obs::Counter::BreakerTrips);
        stats_.trace.instant("breaker_open", "health", now,
                             channel_, bank);
        if (act.retired) {
            std::uint64_t done = dispatchMaintenance(
                "migrate", now, bank, guardCosts_.retireCycles,
                guardCosts_.retireEnergyPj);
            health_->holdUntil(bank, group, done);
            if (guardMetrics_)
                guardMetrics_->add(obs::Counter::Retirements);
        }
        if (act.retired || act.died)
            stats_.trace.instant(act.retired ? "dbc_retire" : "dbc_dead",
                                 "health", now, channel_, bank);
        TrGang g = batcher_.flushGroup(bank, group, now);
        if (!g.members.empty())
            dispatchGang(g);
    }

    /** Dispatch one bus/bank unit carrying @p members requests. */
    void
    dispatch(std::uint64_t now, std::uint32_t bank, std::uint32_t group,
             const RequestCost &cost,
             std::span<const ServiceRequest> members)
    {
        const bool gang = members.size() > 1;
        obs::PrimCounts prims;
        if (injector_ || chMetrics_)
            prims = gang ? costs_.gangPrims(members.size())
                         : costs_.prims(members.front());
        FaultVerdict verdict;
        if (injector_) {
            bool pim = members.front().cls != RequestClass::Read &&
                       members.front().cls != RequestClass::Write;
            verdict = applyFaults(now, bank, group, cost,
                                  prims.shifts, pim);
            // Each component books only its own energy: the guard its
            // shift verdict here, the ecc component its data verdict
            // inside applyDataFaults, the channel the unit's base cost.
            if (guardMetrics_)
                guardMetrics_->addEnergy(verdict.extraEnergyPj);
            if (dataInjector_)
                verdict.merge(applyDataFaults(now, bank, group, cost,
                                              prims, pim));
        }
        std::uint64_t service = cost.serviceCycles + verdict.extraCycles;
        double energy = cost.energyPj + verdict.extraEnergyPj;
        auto [start, completion] =
            timeline_.issue(now, bank, cost.issueCmds, service);
        stats_.dispatchedUnits += 1;
        stats_.energyPj += energy;
        if (chMetrics_) {
            chMetrics_->add(obs::Counter::Requests, members.size());
            chMetrics_->addPrims(prims);
            chMetrics_->addEnergy(cost.energyPj);
        }
        if (stats_.trace.on()) {
            const char *name =
                gang ? "gang" : requestClassName(members.front().cls);
            stats_.trace.span(name, "dispatch", start,
                              completion - start, channel_, bank,
                              "members",
                              static_cast<double>(members.size()));
        }
        auto oidx = static_cast<std::size_t>(verdict.outcome);
        for (const ServiceRequest &m : members) {
            auto c = static_cast<std::size_t>(m.cls);
            std::uint64_t lat = completion - m.arrival;
            stats_.latency.record(lat);
            stats_.perClass[c].latency.record(lat);
            stats_.perClass[c].completed += 1;
            stats_.completed += 1;
            stats_.outcomes[oidx] += 1;
            stats_.outcomeLatency[oidx].record(lat);
            inFlight_.push({completion, static_cast<std::uint8_t>(c)});
            if (cfg_.process == ArrivalProcess::ClosedLoop)
                slots_.push(completion);
        }
        stats_.guardRetries += verdict.retries;
        if (guardMetrics_) {
            guardMetrics_->add(obs::Counter::MisalignCorrections,
                               verdict.corrections);
            guardMetrics_->add(obs::Counter::Retries, verdict.retries);
        }
        if (verdict.detected)
            handleHealthEvent(bank, group, completion, verdict.due(),
                              now);
    }

    void
    dispatchGang(const TrGang &g)
    {
        if (batchMetrics_)
            batchMetrics_->add(obs::Counter::Gangs);
        dispatch(g.readyAt, g.bank, g.dbcGroup,
                 costs_.gangCost(g.members.size()), g.members);
    }

    /** Route an admitted request to the batcher or straight out. */
    void
    handleAdmitted(const ServiceRequest &r)
    {
        if (cfg_.batching && r.cls == RequestClass::BulkBitwise) {
            TrGang g = batcher_.add(r);
            if (!g.members.empty())
                dispatchGang(g);
        } else {
            dispatch(r.arrival, r.bank, r.dbcGroup, costs_.cost(r),
                     {&r, 1});
        }
    }

    /** Whether the ECC scrub sweep rides the scrub cadence. */
    bool
    eccScrubOn() const
    {
        return dataInjector_.has_value() &&
               cfg_.faults.ecc != EccMode::None;
    }

    /** Whether a scrub sweep is due before the run's duration ends. */
    bool
    scrubDue() const
    {
        if (!injector_ || cfg_.faults.scrubIntervalCycles == 0 ||
            nextScrub_ >= cfg_.durationCycles)
            return false;
        return cfg_.faults.policy == GuardPolicy::PeriodicScrub ||
               eccScrubOn();
    }

    /**
     * One scrub sweep: every (bank, group) pays a guard check, sticky
     * misalignments are corrected (or reset when multi-step) and fed
     * to the health tracker, and each bank's share is dispatched as a
     * maintenance unit occupying it.  With SECDED on, the same sweep
     * re-reads the group's stored lines, rewrites correctable
     * retention decay before a second flip turns it into a DUE, and
     * refreshes the group's retention clock.
     */
    void
    runScrub()
    {
        std::uint64_t at = nextScrub_;
        nextScrub_ = satAddCycles(at, cfg_.faults.scrubIntervalCycles);
        const bool align =
            cfg_.faults.policy == GuardPolicy::PeriodicScrub;
        const bool ecc = eccScrubOn();
        for (std::uint32_t bank = 0; bank < cfg_.banksPerChannel;
             ++bank) {
            std::uint32_t cycles = 0;
            double pj = 0.0;
            double ecc_pj = 0.0; // the ECC share of pj
            for (std::uint32_t grp = 0; grp < cfg_.dbcGroupsPerBank;
                 ++grp) {
                if (align) {
                    cycles += guardCosts_.checkCycles;
                    pj += guardCosts_.checkEnergyPj;
                    int &mis = health_->misalign(bank, grp);
                    if (mis != 0) {
                        GuardServiceCosts::Realignment fix =
                            guardCosts_.realign(mis);
                        mis = 0;
                        cycles += fix.cycles;
                        pj += fix.energyPj;
                        if (!fix.due && guardMetrics_)
                            guardMetrics_->add(
                                obs::Counter::MisalignCorrections);
                        handleHealthEvent(bank, grp, at + cycles,
                                          fix.due, at);
                    }
                }
                if (ecc) {
                    scrubEccGroup(bank, grp, at, cycles, pj);
                    ecc_pj += guardCosts_.eccScrubGroupEnergyPj;
                }
            }
            dispatchMaintenance("scrub", at, bank, cycles, pj, ecc_pj);
        }
    }

    /** ECC share of one (bank, group)'s scrub visit. */
    void
    scrubEccGroup(std::uint32_t bank, std::uint32_t grp,
                  std::uint64_t at, std::uint32_t &cycles, double &pj)
    {
        cycles += guardCosts_.eccScrubGroupCycles;
        pj += guardCosts_.eccScrubGroupEnergyPj;
        ChannelDataFaultInjector::Sample s =
            dataInjector_->sample(0, health_->touch(bank, grp, at));
        if (s.flips == 0)
            return;
        if (eccMetrics_)
            eccMetrics_->add(obs::Counter::DataFaultsInjected,
                             s.flips);
        // Decay past SECDED's reach is flagged (the decoder sees it —
        // no silent path here) and escalates to the breaker/retirement
        // machinery.
        std::uint32_t lost = s.dueWords + s.sdcWords;
        tallyEcc(s.correctedWords, lost);
        if (lost > 0)
            handleHealthEvent(bank, grp, at + cycles, true, at);
        stats_.trace.instant("ecc_scrub", "ecc", at, channel_,
                             bank);
    }

    /**
     * The channel's one event loop.  Each turn runs the earliest of the
     * next scrub sweep, the next gang deadline and the next arrival;
     * ties go to the scrub, then the flush.  Arrivals come from the
     * generator (open loop) or from the earliest client slot (closed
     * loop).  A slot is peeked, not popped, until it is taken: a flush
     * or scrub run first can push an earlier completion slot.  The loop
     * ends only once the batcher is empty, so no gang outlives the run.
     */
    void
    runEvents()
    {
        const bool closed = cfg_.process == ArrivalProcess::ClosedLoop;
        ServiceRequest next;
        bool have = false;
        if (closed)
            for (std::uint32_t i = 0; i < cfg_.closedLoopWindow; ++i)
                slots_.push(0);
        else
            have = gen_.next(next);
        while (true) {
            std::uint64_t arrival_at =
                closed ? (slots_.empty() ? ~0ull : slots_.top())
                       : (have ? next.arrival : ~0ull);
            const bool flush = batcher_.pending() > 0;
            std::uint64_t flush_at =
                flush ? batcher_.nextDeadline() : ~0ull;
            if (scrubDue() &&
                nextScrub_ <= std::min(flush_at, arrival_at)) {
                runScrub();
            } else if (flush && flush_at <= arrival_at) {
                for (const TrGang &g : batcher_.flushDue(flush_at))
                    dispatchGang(g);
            } else if (arrival_at == ~0ull) {
                break;
            } else if (!closed) {
                if (admit(next, arrival_at))
                    handleAdmitted(next);
                have = gen_.next(next);
            } else {
                slots_.pop();
                if (arrival_at >= cfg_.durationCycles)
                    continue; // this client retires
                ServiceRequest r = gen_.sampleAt(arrival_at);
                if (admit(r, arrival_at))
                    handleAdmitted(r);
                else
                    slots_.push(arrival_at + kClosedLoopRejectWait);
            }
        }
    }

    const ServiceConfig &cfg_;
    const ServiceCostTable &costs_;
    const GuardServiceCosts &guardCosts_;
    const RetryLadder &ladder_;
    std::uint32_t channel_ = 0;
    obs::ComponentMetrics *chMetrics_ = nullptr;    ///< into stats_
    obs::ComponentMetrics *batchMetrics_ = nullptr; ///< into stats_
    obs::ComponentMetrics *guardMetrics_ = nullptr; ///< into stats_
    WorkloadGenerator gen_;
    GangBatcher batcher_;
    ChannelTimeline timeline_;
    std::optional<ChannelFaultInjector> injector_;
    std::optional<DbcHealthTracker> health_;
    std::optional<ChannelDataFaultInjector> dataInjector_;
    obs::ComponentMetrics *eccMetrics_ = nullptr; ///< into stats_
    std::uint64_t nextScrub_ = 0;

    std::array<std::uint64_t, kRequestClasses> outstanding_{};
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        inFlight_;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>>
        slots_;
    ServiceStats stats_;
};

} // namespace

ServiceEngine::ServiceEngine(const ServiceConfig &cfg)
    : cfg_(cfg),
      ladder_(cfg.faults.maxRetries, cfg.faults.retryBackoffCycles),
      costs_(ServiceCostTable::build(cfg.trd))
{
    fatalIf(cfg_.channels == 0, "service needs at least one channel");
    fatalIf(cfg_.banksPerChannel == 0,
            "service needs at least one bank per channel");
    fatalIf(cfg_.process == ArrivalProcess::ClosedLoop &&
                cfg_.closedLoopWindow == 0,
            "closed loop needs a positive window");
    fatalIf(cfg_.batchWindowCycles > ServiceConfig::kMaxWaitCycles,
            "batching window exceeds 2^32 cycles");
    fatalIf(cfg_.faults.breakerCooldownCycles > ServiceConfig::kMaxWaitCycles,
            "breaker cooldown exceeds 2^32 cycles");
    checkPimNmr(cfg_.faults.pimNmr, cfg_.trd);
    cfg_.faults.checkBreakerCounts();
}

ServiceStats
ServiceEngine::run() const
{
    std::uint32_t n_threads = std::clamp<std::uint32_t>(
        cfg_.threads ? cfg_.threads : std::thread::hardware_concurrency(),
        1, cfg_.channels);

    // Guard maintenance costs are measured once through the real
    // device pipeline and shared read-only by every channel worker.
    GuardServiceCosts guard_costs;
    if (cfg_.faults.enabled())
        guard_costs = GuardServiceCosts::measure();

    // Channels are data-independent; worker t owns the strided subset
    // t, t + n_threads, ... and writes only its own per_channel slots.
    // The caller runs worker 0; the join is the merge barrier.
    std::vector<ServiceStats> per_channel(cfg_.channels);
    std::vector<std::exception_ptr> errors(n_threads);
    auto worker = [&](std::uint32_t first) {
        try {
            for (std::uint32_t ch = first; ch < cfg_.channels;
                 ch += n_threads)
                per_channel[ch] =
                    ChannelSim(cfg_, costs_, guard_costs, ladder_, ch)
                        .run();
        } catch (...) {
            errors[first] = std::current_exception();
        }
    };
    {
        // A jthread joins when the pool goes out of scope, also when
        // starting a later thread throws.
        std::vector<std::jthread> pool;
        pool.reserve(n_threads - 1);
        for (std::uint32_t t = 1; t < n_threads; ++t)
            pool.emplace_back(worker, t);
        worker(0);
    }
    for (auto &e : errors)
        if (e)
            std::rethrow_exception(e);

    // Merge in channel order: the aggregate is a pure function of the
    // per-channel results, independent of worker count or timing.
    ServiceStats out;
    out.channels = cfg_.channels;
    double issued_cycles = 0, busy_weight = 0, span_sum = 0;
    for (const ServiceStats &c : per_channel) {
        out.makespan = std::max(out.makespan, c.makespan);
        out.generated += c.generated;
        out.admitted += c.admitted;
        out.rejected += c.rejected;
        out.completed += c.completed;
        out.dispatchedUnits += c.dispatchedUnits;
        out.energyPj += c.energyPj;
        out.batch.merge(c.batch);
        out.latency.merge(c.latency);
        out.metrics.merge(c.metrics);
        out.trace.append(c.trace);
        for (std::size_t k = 0; k < kRequestClasses; ++k)
            out.perClass[k].merge(c.perClass[k]);
        for (std::size_t k = 0; k < kRequestOutcomes; ++k) {
            out.outcomes[k] += c.outcomes[k];
            out.outcomeLatency[k].merge(c.outcomeLatency[k]);
        }
        out.injectedFaults += c.injectedFaults;
        out.guardRetries += c.guardRetries;
        out.breakerTrips += c.breakerTrips;
        out.retiredGroups += c.retiredGroups;
        out.deadGroups += c.deadGroups;
        out.steeredRequests += c.steeredRequests;
        out.capacityRejections += c.capacityRejections;
        out.maintenanceUnits += c.maintenanceUnits;
        out.capacityLossFraction += c.capacityLossFraction;
        out.dataFaultsInjected += c.dataFaultsInjected;
        out.eccCorrections += c.eccCorrections;
        out.eccDetectedUncorrectable += c.eccDetectedUncorrectable;
        issued_cycles +=
            c.busUtilization * static_cast<double>(c.makespan);
        busy_weight +=
            c.bankUtilization * static_cast<double>(c.makespan);
        span_sum += static_cast<double>(c.makespan);
    }
    if (span_sum > 0) {
        out.busUtilization = issued_cycles / span_sum;
        out.bankUtilization = busy_weight / span_sum;
    }
    out.capacityLossFraction /= cfg_.channels;
    return out;
}

ServiceStats
runService(const ServiceConfig &cfg)
{
    return ServiceEngine(cfg).run();
}

} // namespace coruscant
