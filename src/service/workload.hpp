/**
 * @file
 * Multi-class load generation for the service layer.
 *
 * Open-loop streams model front-end traffic that does not wait for
 * the memory system (arrivals keep coming under overload — the regime
 * where tail latency lives):
 *  - Poisson: exponential inter-arrivals at the offered rate;
 *  - Bursty: a two-state (on/off) modulated Poisson process — bursts
 *    arrive at a multiple of the base rate, idle gaps in between, same
 *    long-run offered rate.
 *
 * Closed-loop streams model a fixed population of clients with one
 * outstanding request each: a new request is issued only when a window
 * slot frees (the engine drives those arrivals from completions).
 *
 * Each channel owns one generator seeded from (seed, channel), so the
 * stream a channel sees is a pure function of the configuration — not
 * of which worker thread simulates it.  That is what makes the sharded
 * engine bit-identical to the single-threaded run.
 */

#ifndef CORUSCANT_SERVICE_WORKLOAD_HPP
#define CORUSCANT_SERVICE_WORKLOAD_HPP

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "service/request.hpp"
#include "util/rng.hpp"

namespace coruscant {

/** Arrival process of the generated stream. */
enum class ArrivalProcess
{
    Poisson,
    Bursty,
    ClosedLoop,
};

/** Spelling of each ArrivalProcess in declaration order (flags, reports). */
inline std::span<const char *const>
enumTokens(ArrivalProcess)
{
    static constexpr const char *kTokens[] = {"poisson", "bursty", "closed"};
    return kTokens;
}

const char *arrivalProcessName(ArrivalProcess p);

/** Per-class traffic weights (need not be normalized). */
struct WorkloadMix
{
    std::array<double, kRequestClasses> weight{};

    /** All classes equally likely. */
    static WorkloadMix uniform();

    /** Paper-flavoured default: bulk-heavy PIM serving mix. */
    static WorkloadMix pimServing();

    /**
     * Parse "read:0.2,bulk:0.5,add:0.2,mac:0.1" (class names from
     * requestClassName(); omitted classes get weight 0).  Throws
     * FatalError on unknown names, or on a weight that is not one
     * finite, non-negative number spelled as an option's double.
     */
    static WorkloadMix parse(const std::string &text);

    std::string describe() const;
};

/** Configuration of one generated stream. */
struct WorkloadConfig
{
    WorkloadMix mix = WorkloadMix::pimServing();
    ArrivalProcess process = ArrivalProcess::Poisson;
    double ratePerKcycle = 8.0;   ///< offered requests per 1000 cycles

    /**
     * Highest open-loop rate: one arrival per cycle on average, the
     * most one channel's command bus (one command per cycle) issues.
     * Beyond it the mean gap underflows the arrival clock's precision.
     */
    static constexpr double kMaxRatePerKcycle = 1000.0;

    /** The open-loop rates a generator accepts, as a flag states them. */
    static constexpr const char *kRateRange = "in (0, 1000]";

    /** Whether @p r lies in (0, kMaxRatePerKcycle]. */
    static constexpr bool
    rateValid(double r)
    {
        return r > 0 && r <= kMaxRatePerKcycle;
    }

    std::uint64_t durationCycles = 100000; ///< arrivals beyond stop
    std::uint32_t banks = 16;     ///< banks per channel
    std::uint32_t dbcGroups = 4;  ///< alignment groups per bank
    double burstFactor = 4.0;     ///< on-state rate multiplier
    double burstFraction = 0.2;   ///< long-run fraction of time on
    static constexpr double meanBurstCycles = 2000; ///< mean on dwell
    std::size_t maxAddOperands = 5; ///< size-dist cap for MultiOpAdd

    /**
     * Bulk-bitwise requests fold into shared accumulators (the bitmap
     * base-column pattern), so they concentrate on this many hot
     * (bank, DBC group) homes instead of spreading uniformly; 0
     * spreads them like every other class.
     */
    std::uint32_t bulkHotGroups = 8;
};

/**
 * Deterministic per-channel request stream.
 *
 * next() returns requests with non-decreasing arrival cycles until the
 * configured duration is exhausted (open-loop), or forever at caller-
 * chosen arrival times (closed-loop, via sampleAt()).
 */
class WorkloadGenerator
{
  public:
    WorkloadGenerator(const WorkloadConfig &cfg, std::uint64_t seed,
                      std::uint32_t channel);

    /**
     * Open-loop: produce the next arrival.  Returns false once the
     * next arrival would fall past the duration.
     * @pre cfg.process != ClosedLoop
     */
    bool next(ServiceRequest &out);

    /** Closed-loop: materialize a request arriving at @p arrival. */
    ServiceRequest sampleAt(std::uint64_t arrival);

    /** Requests produced so far. */
    std::uint64_t produced() const { return produced_; }

  private:
    double exponential(double mean_cycles);
    void advanceClock();
    ServiceRequest sampleBody();

    WorkloadConfig cfg_;
    Rng rng_;
    std::array<double, kRequestClasses> cumulative_{};
    double clock_ = 0.0;        ///< continuous arrival clock
    bool burstOn_ = false;
    double burstLeft_ = 0.0;    ///< cycles left in the current state
    std::uint64_t produced_ = 0;
};

/** Deterministic per-channel seed derivation (SplitMix of the pair). */
std::uint64_t channelSeed(std::uint64_t seed, std::uint32_t channel);

} // namespace coruscant

#endif // CORUSCANT_SERVICE_WORKLOAD_HPP
