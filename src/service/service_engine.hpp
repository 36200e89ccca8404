/**
 * @file
 * Sharded multi-channel request-service engine.
 *
 * Layered on the existing controller stack, this subsystem turns the
 * repo's closed-form/per-kernel simulators into a load-serving system
 * model:
 *
 *   WorkloadGenerator --> admission (bounded per-class queues)
 *       --> GangBatcher (bulk-bitwise TR gangs, Sec. III-C / PIRM)
 *       --> per-channel dispatch through a ChannelTimeline (command
 *           bus + bank occupancy, the kernel the discrete-event channel
 *           simulator shares; it yields makespan and utilization)
 *       --> merged ServiceStats with log-bucketed tail latencies.
 *
 * Sharding: memory channels are independent in the modeled system
 * (per-channel command bus and banks), so the engine partitions
 * channels across a std::thread worker pool.  Every channel derives
 * its RNG stream from (seed, channel) — never from the thread that
 * happens to simulate it — and per-channel results are merged in
 * channel order after a join barrier.  A run with N threads is
 * therefore bit-identical to the single-threaded run for a fixed
 * seed; a regression test and the CLI acceptance check both pin this.
 *
 * Admission control: each request class has a bounded queue of
 * admitted-but-incomplete requests per channel.  Arrivals beyond the
 * bound are rejected (open loop) or retried after a backoff (closed
 * loop), and per-class backpressure counters report drops and peak
 * depth — under overload the engine degrades by shedding load, not by
 * growing queues without bound.
 */

#ifndef CORUSCANT_SERVICE_SERVICE_ENGINE_HPP
#define CORUSCANT_SERVICE_SERVICE_ENGINE_HPP

#include <array>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "service/batcher.hpp"
#include "service/fault_service.hpp"
#include "service/request.hpp"
#include "service/workload.hpp"
#include "util/stats.hpp"

namespace coruscant {

/** Full configuration of one service run. */
struct ServiceConfig
{
    /**
     * Longest batching window or breaker cooldown (2^32 cycles), as
     * FaultConfig bounds the retry backoff.  A wait is added to a
     * cycle count, and the sum must not wrap.
     */
    static constexpr std::uint64_t kMaxWaitCycles = std::uint64_t{1} << 32;

    std::uint32_t channels = 8;
    std::uint32_t threads = 1;  ///< worker threads; 0 = hardware
    std::uint32_t banksPerChannel = 16;
    std::uint32_t dbcGroupsPerBank = 4;
    std::size_t trd = 7;
    std::uint64_t seed = 1;

    WorkloadMix mix = WorkloadMix::pimServing();
    ArrivalProcess process = ArrivalProcess::Poisson;
    double ratePerKcycle = 8.0;   ///< per channel; see WorkloadConfig
    std::uint64_t durationCycles = 100000;
    double burstFactor = 4.0;
    double burstFraction = 0.2;
    std::uint32_t bulkHotGroups = 8; ///< see WorkloadConfig

    bool batching = true;
    std::uint64_t batchWindowCycles = 256; ///< <= kMaxWaitCycles

    std::size_t queueCapacity = 64;  ///< per class per channel; 0 = inf
    std::uint32_t closedLoopWindow = 8; ///< clients per channel

    bool collectMetrics = false; ///< fill ServiceStats::metrics
    bool collectTrace = false;   ///< fill ServiceStats::trace

    /**
     * Live reliability: shift-fault injection, guard-policy handling
     * with correction latency folded into service times, DBC health
     * tracking, and degradation-aware steering.  Inactive (zero cost,
     * bit-identical results to a fault-free build) unless
     * faults.enabled().
     */
    ServiceFaultConfig faults;
};

/** Per-class service counters plus the class latency distribution. */
struct ClassStats
{
    std::uint64_t generated = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;  ///< backpressure drops
    std::uint64_t completed = 0;
    std::uint64_t maxQueueDepth = 0; ///< peak admitted-incomplete
    LatencyHistogram latency;

    void merge(const ClassStats &o);
};

/** Merged results of a service run. */
struct ServiceStats
{
    std::uint32_t channels = 0;
    std::uint64_t makespan = 0;   ///< max over channels
    std::uint64_t generated = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t dispatchedUnits = 0; ///< singles + gangs on the bus
    double busUtilization = 0.0;  ///< issued cmds / cycle, per channel
    double bankUtilization = 0.0;
    double energyPj = 0.0;
    BatchStats batch;
    LatencyHistogram latency;     ///< all classes
    std::array<ClassStats, kRequestClasses> perClass{};

    /**
     * Typed per-request verdicts.  Every generated request lands in
     * exactly one bin (completions split into Clean/Corrected/Due/Sdc;
     * drops of any kind are Rejected), so the bins always sum to
     * `generated` — with faults disabled everything is Clean/Rejected.
     */
    std::array<std::uint64_t, kRequestOutcomes> outcomes{};

    /**
     * Completion latency per outcome (Rejected stays empty), so clean
     * and corrected tails are reportable separately; per-outcome
     * histograms merge element-wise like every other histogram here.
     */
    std::array<LatencyHistogram, kRequestOutcomes> outcomeLatency{};

    // --- Reliability counters (all zero when faults are disabled) ----
    std::uint64_t injectedFaults = 0;  ///< misbehaving shift pulses
    std::uint64_t guardRetries = 0;    ///< re-executions after detection
    std::uint64_t breakerTrips = 0;    ///< DBC circuit-breaker openings
    std::uint64_t retiredGroups = 0;   ///< groups migrated to spares
    std::uint64_t deadGroups = 0;      ///< groups lost (no spare left)
    std::uint64_t steeredRequests = 0; ///< admissions routed off home
    std::uint64_t capacityRejections = 0; ///< no live group available
    std::uint64_t maintenanceUnits = 0; ///< scrub/migration bus units
    double capacityLossFraction = 0.0; ///< mean dead fraction/channel

    // --- Data-domain fault / ECC counters (zero unless enabled) ------
    std::uint64_t dataFaultsInjected = 0; ///< data-domain bit flips
    std::uint64_t eccCorrections = 0; ///< SECDED words fixed in-line
    std::uint64_t eccDetectedUncorrectable = 0; ///< SECDED DUE words

    /**
     * Per-channel activity counters ("channel<N>", "channel<N>/batcher"
     * components), populated when ServiceConfig::collectMetrics is set.
     * Channels own disjoint component paths and are merged in channel
     * order, so the registry (energy sums included) is bit-identical
     * across worker-thread counts for a fixed seed.
     */
    obs::MetricsRegistry metrics;

    /**
     * Dispatch spans (pid = channel, tid = bank), populated when
     * ServiceConfig::collectTrace is set; concatenated in channel
     * order.
     */
    obs::TraceSink trace;

    /** Completed requests per 1000 cycles (all channels combined). */
    double throughputPerKcycle() const;

    /** Multi-line human-readable report. */
    std::string report() const;
};

/** Runs the sharded service simulation. */
class ServiceEngine
{
  public:
    explicit ServiceEngine(const ServiceConfig &cfg);

    /** Simulate all channels and merge their results. */
    ServiceStats run() const;

  private:
    ServiceConfig cfg_;
    RetryLadder ladder_; ///< cfg_.faults' ladder, validated
    ServiceCostTable costs_;
};

/** Convenience wrapper: build an engine and run it. */
ServiceStats runService(const ServiceConfig &cfg);

} // namespace coruscant

#endif // CORUSCANT_SERVICE_SERVICE_ENGINE_HPP
