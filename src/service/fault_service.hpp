/**
 * @file
 * Reliability machinery for the live request-service path.
 *
 * PR 1 built the device-level pipeline — ShiftFaultModel injection,
 * AlignmentGuard detection/correction, bounded controller retry, DBC
 * retirement — but only exercised it offline through FaultCampaign.
 * This header puts the same machinery under traffic:
 *
 *  - RequestOutcome: every request completes with a typed verdict
 *    (clean / corrected / detected-uncorrectable / silent corruption /
 *    rejected), the serving-side mirror of the campaign taxonomy;
 *  - ServiceFaultConfig: the shared FaultConfig knobs plus a chaos
 *    ramp that changes the rate mid-run, the retry backoff, and
 *    DBC-health/circuit-breaker knobs;
 *  - GuardServiceCosts: check/correct/reset/retire latencies measured
 *    through the real DwmMainMemory + AlignmentGuard (costs are not
 *    invented here — same principle as ServiceCostTable);
 *  - ChannelFaultInjector: a per-channel ShiftFaultModel sampling the
 *    shift pulses of each dispatched unit, seeded from (seed, channel)
 *    so runs are bit-identical across worker-thread counts;
 *  - DbcHealthTracker: sliding-window error rate per (bank, DBC
 *    alignment group) -> circuit breaker -> retirement to spares, plus
 *    the degradation-aware steering that keeps gang formation off
 *    broken groups and accounts for lost capacity.
 *
 * Everything here is deterministic per channel: health state advances
 * on request arrival/completion cycles, never on wall-clock or thread
 * identity, which is what keeps `serve --threads N` bit-identical.
 */

#ifndef CORUSCANT_SERVICE_FAULT_SERVICE_HPP
#define CORUSCANT_SERVICE_FAULT_SERVICE_HPP

#include <cstdint>
#include <vector>

#include "arch/config.hpp"
#include "dwm/shift_fault.hpp"
#include "util/rng.hpp"

namespace coruscant {

/** Typed verdict of one service request (campaign taxonomy, online). */
enum class RequestOutcome : std::uint8_t
{
    Clean = 0, ///< completed, no fault observed
    Corrected, ///< fault(s) detected and corrected (maybe retried)
    Due,       ///< detected uncorrectable; result untrusted
    Sdc,       ///< completed on a misaligned cluster, nothing flagged
    Rejected,  ///< never served: backpressure or capacity exhaustion
};

/** Number of request outcomes (array sizing). */
inline constexpr std::size_t kRequestOutcomes = 5;

/** Short stable name for reports and JSON. */
const char *requestOutcomeName(RequestOutcome o);

/** One step of a fault-rate schedule: @ref rate from @ref startCycle on. */
struct FaultRampStep
{
    std::uint64_t startCycle = 0;
    double rate = 0.0;
};

/**
 * Reliability configuration of one service run: the shared fault knobs
 * (FaultConfig) plus the chaos ramp, the retry backoff and the
 * DBC-health/circuit-breaker knobs.
 */
struct ServiceFaultConfig : FaultConfig
{
    /**
     * Chaos schedule: when non-empty, overrides shiftFaultRate with a
     * piecewise-constant rate over the run (steps sorted by cycle).
     */
    std::vector<FaultRampStep> ramp;

    /** First retry waits this long; doubles per further attempt. */
    std::uint64_t retryBackoffCycles = 64;

    /** Sliding window for the per-group detected-error rate. */
    std::uint64_t healthWindowCycles = 20000;

    /** Detected errors within the window that open the breaker (>= 1). */
    std::uint32_t breakerThreshold = 8;

    /**
     * Cycles a tripped breaker keeps its group out of steering (at
     * most ServiceConfig::kMaxWaitCycles in a service run).
     */
    std::uint64_t breakerCooldownCycles = 10000;

    /** Breaker trips after which the group is retired to a spare (>= 1). */
    std::uint32_t tripsToRetire = 3;

    /** Spare DBC groups available per channel for retirement. */
    std::uint32_t sparesPerChannel = 4;

    /** Cycles between scrub sweeps under GuardPolicy::PeriodicScrub. */
    std::uint64_t scrubIntervalCycles = 4096;

    /** Whether the fault pipeline is active for a run. */
    bool
    enabled() const
    {
        return shiftFaultRate > 0.0 || !ramp.empty() ||
               dataFaultsEnabled();
    }

    /** Fault rate in effect at @p cycle (ramp, else the flat rate). */
    double rateAt(std::uint64_t cycle) const;

    /**
     * Throws FatalError when breakerThreshold or tripsToRetire is 0:
     * the health tracker counts an error or a trip before it compares,
     * so a 0 would silently act as 1.
     */
    void checkBreakerCounts() const;

    /**
     * Built-in chaos schedule for `serve --chaos`: quarters of the run
     * at base, 4x, 10x, and back to base — a mid-run fault storm the
     * breaker/retirement machinery must absorb and recover from.
     */
    static std::vector<FaultRampStep> chaosRamp(double base,
                                                std::uint64_t duration);
};

/**
 * Guard-maintenance latencies/energies for the service timing model,
 * measured once per engine run through the real reliability pipeline
 * (a guarded DwmMainMemory with an injected misalignment), so the
 * service layer folds the same correction costs into request latency
 * that the cycle-accurate campaigns charge.
 */
struct GuardServiceCosts
{
    std::uint32_t checkCycles = 0;   ///< one clean guard check
    double checkEnergyPj = 0.0;
    std::uint32_t correctCycles = 0; ///< detect + fix one misalignment
    double correctEnergyPj = 0.0;
    std::uint32_t resetCycles = 0;   ///< guard-track rewrite after a DUE
    double resetEnergyPj = 0.0;
    std::uint32_t retireCycles = 0;  ///< migrate a DBC group to a spare
    double retireEnergyPj = 0.0;

    // ECC charges, measured through a SECDED-enabled DwmMainMemory.
    // Check lanes ride the data's shift pulses and port strobe, so
    // per-access protection costs energy, not cycles; the scrub sweep
    // occupies the bank like any maintenance unit.
    double eccReadEnergyPj = 0.0;  ///< check-lane energy per line read
    double eccWriteEnergyPj = 0.0; ///< check-lane energy per line write
    std::uint32_t eccScrubGroupCycles = 0; ///< ECC-sweep one DBC group
    double eccScrubGroupEnergyPj = 0.0;

    /** Charge and verdict of realigning one misaligned cluster. */
    struct Realignment
    {
        std::uint32_t cycles = 0;
        double energyPj = 0.0;
        bool due = false; ///< reset, not corrected: data lost
    };

    /**
     * The realign verdict for a cluster @p net (non-zero) positions
     * off: one position is corrected; further off, the guard track is
     * reset and the event is a detected-uncorrectable.
     */
    Realignment
    realign(int net) const
    {
        if (net < -1 || net > 1)
            return {resetCycles, resetEnergyPj, true};
        return {correctCycles, correctEnergyPj, false};
    }

    /** Measure against the default guarded device configuration. */
    static GuardServiceCosts measure();
};

/**
 * Per-channel shift-fault source: one ShiftFaultModel sampling every
 * shift pulse of every dispatched unit, with the chaos ramp applied by
 * dispatch cycle.  Seeded from (seed, channel) — never from the worker
 * thread — so the fault stream a channel sees is a pure function of
 * the configuration.
 */
class ChannelFaultInjector
{
  public:
    ChannelFaultInjector(const ServiceFaultConfig &cfg,
                         std::uint64_t channel_seed);

    /** What the faults of one dispatched unit amount to. */
    struct Sample
    {
        std::uint32_t faults = 0; ///< misbehaving pulses
        int net = 0;              ///< net misalignment (+over, -under)
    };

    /** Sample @p shifts pulses of a unit dispatched at @p cycle. */
    Sample sample(std::uint64_t shifts, std::uint64_t cycle);

    /** Faults injected into this channel so far. */
    std::uint64_t injected() const { return model_.injectedFaults(); }

  private:
    const ServiceFaultConfig &cfg_;
    ShiftFaultModel model_;
};

/**
 * Per-channel data-domain fault source: the statistical mirror of the
 * device-level DataFaultModel for the service timing model.  Every
 * line access of a dispatched unit exposes the line's bits to
 * transient flips plus the half of the stationary stuck-at population
 * whose frozen polarity disagrees with the stored data; the first
 * access additionally pays retention decay accumulated while the
 * (bank, group) sat idle.  Flips are placed by geometric gap sampling
 * (O(flips), not O(bits)) and classified per SECDED codeword: one
 * flip corrects in-line, two are a detected-uncorrectable, three or
 * more alias the syndrome — silent corruption.  With ECC off every
 * flipped word is silent.  Seeded from (seed, channel), never from
 * the worker thread, so `serve --threads N` stays bit-identical.
 */
class ChannelDataFaultInjector
{
  public:
    ChannelDataFaultInjector(const ServiceFaultConfig &cfg,
                             std::uint64_t channel_seed,
                             std::size_t line_bits,
                             std::size_t word_bits);

    /** Per-codeword classification of one unit's data faults. */
    struct Sample
    {
        std::uint64_t flips = 0;          ///< raw bits flipped
        std::uint32_t correctedWords = 0; ///< single-bit, SECDED fixes
        std::uint32_t dueWords = 0;       ///< double-bit, detected
        std::uint32_t sdcWords = 0;       ///< >=3 bits, or ECC off
    };

    /**
     * Sample the faults of one unit making @p line_accesses port
     * accesses, the first of which lands on a line idle for
     * @p idle_cycles (retention exposure).
     */
    Sample sample(std::uint64_t line_accesses,
                  std::uint64_t idle_cycles);

    /** Data-domain bit flips injected into this channel so far. */
    std::uint64_t injected() const { return injected_; }

  private:
    const ServiceFaultConfig &cfg_;
    std::size_t lineBits_;
    std::size_t wordBits_;
    /** Per-bit flip rate of every access: transient plus stuck-at. */
    BernoulliRate accessRate_;
    Rng rng_;
    std::uint64_t injected_ = 0;

    /** Flips one sample() call put in one codeword. */
    struct WordFlips
    {
        std::uint64_t word;
        std::uint32_t flips;
    };
    /**
     * The current call's flipped words, kept across calls so that a
     * call that hits allocates only when it flips more words than any
     * call before it.
     */
    std::vector<WordFlips> words_;
};

/**
 * Health and capacity state of one channel's (bank, DBC-group) homes.
 *
 * Detected errors (corrections and DUEs) are recorded per group with
 * their completion cycle; when a group accumulates
 * `breakerThreshold` errors within `healthWindowCycles`, its circuit
 * breaker opens for `breakerCooldownCycles` and steering routes new
 * requests to surviving groups.  After `tripsToRetire` trips the group
 * is retired: migrated to a spare when one is left (capacity
 * preserved, migration charged by the engine), or marked dead when the
 * pool is exhausted — a permanent capacity loss surfaced as typed
 * Rejected outcomes once no live group remains.
 */
class DbcHealthTracker
{
  public:
    DbcHealthTracker(const ServiceFaultConfig &cfg, std::uint32_t banks,
                     std::uint32_t groups);

    /** Whether (bank, group) can accept new work at @p cycle. */
    bool available(std::uint32_t bank, std::uint32_t group,
                   std::uint64_t cycle) const;

    /**
     * Route (@p bank, @p group) to an available home at @p cycle,
     * preferring the original, then sibling groups of the same bank,
     * then other banks (deterministic scan order).  Returns false when
     * every group in the channel is dead or breaker-open — the typed
     * capacity-rejection path.
     */
    bool steer(std::uint32_t &bank, std::uint32_t &group,
               std::uint64_t cycle);

    /** What recording an error decided (for accounting and tracing). */
    struct ErrorAction
    {
        bool breakerOpened = false;
        bool retired = false;  ///< group replaced by a spare
        bool died = false;     ///< spare pool exhausted; group lost
    };

    /**
     * Record a detected error on (bank, group) at completion
     * @p cycle.  A DUE trips the breaker immediately; corrected errors
     * trip it when the sliding window fills.
     */
    ErrorAction recordError(std::uint32_t bank, std::uint32_t group,
                            std::uint64_t cycle, bool due);

    /** Keep (bank, group) out of steering until @p cycle (migration). */
    void holdUntil(std::uint32_t bank, std::uint32_t group,
                   std::uint64_t cycle);

    /**
     * Net physical misalignment of the group's cluster — the sticky
     * state unguarded traffic accumulates and scrub sweeps clear.
     */
    int &misalign(std::uint32_t bank, std::uint32_t group);

    /**
     * Cycles (bank, group) sat idle before @p cycle (its retention
     * exposure); restarts its retention clock at @p cycle.
     */
    std::uint64_t touch(std::uint32_t bank, std::uint32_t group,
                        std::uint64_t cycle);

    std::uint64_t breakerTrips() const { return breakerTrips_; }
    std::uint64_t retiredGroups() const { return retired_; }
    std::uint64_t deadGroups() const { return dead_; }
    std::uint64_t steeredRequests() const { return steered_; }
    std::uint32_t sparesLeft() const { return sparesLeft_; }

    /** Fraction of the channel's groups permanently lost. */
    double
    capacityLossFraction() const
    {
        return groups_.empty()
                   ? 0.0
                   : static_cast<double>(dead_) /
                         static_cast<double>(groups_.size());
    }

  private:
    struct GroupState
    {
        std::vector<std::uint64_t> errorCycles; ///< recent, pruned
        std::uint64_t openedAt = ~0ull; ///< breaker/migration start
        std::uint64_t openUntil = 0;    ///< unavailable before this
        std::uint32_t trips = 0;
        bool dead = false;
        int misalign = 0;
        std::uint64_t lastTouch = 0; ///< retention clock
    };

    /** Index of (@p bank, @p group) in groups_. */
    std::size_t
    slot(std::uint32_t bank, std::uint32_t group) const
    {
        return static_cast<std::size_t>(bank) * groupsPerBank_ + group;
    }

    const ServiceFaultConfig &cfg_;
    std::uint32_t banks_ = 0;
    std::uint32_t groupsPerBank_ = 0;
    std::vector<GroupState> groups_;
    std::uint64_t breakerTrips_ = 0;
    std::uint64_t retired_ = 0;
    std::uint64_t dead_ = 0;
    std::uint64_t steered_ = 0;
    std::uint32_t sparesLeft_ = 0;
};

} // namespace coruscant

#endif // CORUSCANT_SERVICE_FAULT_SERVICE_HPP
