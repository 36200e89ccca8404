/**
 * @file
 * System-level memory organization (paper Table II / Fig. 2).
 *
 * A 1 GB (8 Gb) DWM main memory presenting a DDR3-1600 interface:
 * 32 banks x 64 subarrays x 16 tiles; each 512x512 tile holds 16 DBCs
 * of 512 nanowires x 32 data domains.  One tile's worth of DBCs per
 * subarray is PIM-enabled ("1-PIM": 15 + 1-PIM DBCs per tile).
 */

#ifndef CORUSCANT_ARCH_CONFIG_HPP
#define CORUSCANT_ARCH_CONFIG_HPP

#include <cstddef>
#include <cstdint>
#include <span>

#include "dwm/data_fault.hpp"
#include "dwm/device_params.hpp"

namespace coruscant {

/**
 * Address interleaving policy: how consecutive cache lines map onto
 * the hierarchy.  BankFirst maximizes bank-level parallelism for
 * streams (each line a different bank; rows within a DBC are revisited
 * with stride 1, keeping DW shifts short).  RowFirst walks the rows of
 * one DBC before moving on — minimal shifting, no bank overlap — the
 * data-placement trade-off studied by the ShiftsReduce line of work
 * the paper builds on.
 */
enum class Interleave
{
    BankFirst,
    RowFirst,
};

/**
 * When the memory verifies DBC alignment with its guard wires
 * (paper Sec. II-D: TR-based misalignment detection).
 */
enum class GuardPolicy
{
    None,          ///< no checks: shifting faults corrupt data silently
    PerAccess,     ///< check the target DBC before every line access
    PerCpim,       ///< controller checks src/dst DBCs around each cpim
    PeriodicScrub, ///< sweep all materialized DBCs every N accesses
};

const char *guardPolicyName(GuardPolicy policy);

/**
 * Command-line spelling of each GuardPolicy, in declaration order
 * (reports spell PeriodicScrub "periodic-scrub", the flag "scrub").
 */
inline std::span<const char *const>
enumTokens(GuardPolicy)
{
    static constexpr const char *kTokens[] = {"none", "per-access",
                                              "per-cpim", "scrub"};
    return kTokens;
}

/**
 * In-memory ECC protecting the *contents* of stored lines (the guard
 * policies above protect their *position*).  Secded stores extended
 * Hamming check bits in dedicated check-lane nanowires of each DBC and
 * corrects/detects on every port read; it cannot cover in-situ PIM
 * ops, which sense raw operand lanes — those fall back to NMR voting
 * (see ReliabilityConfig::pimNmr).
 */
enum class EccMode
{
    None,   ///< stored bits are returned as-is
    Secded, ///< per-word SECDED over every line read/write
};

/** Spelling of each EccMode in declaration order, for flags and reports. */
inline std::span<const char *const>
enumTokens(EccMode)
{
    static constexpr const char *kTokens[] = {"none", "secded"};
    return kTokens;
}

const char *eccModeName(EccMode mode);

/**
 * Limits of every retry ladder (ReliabilityConfig, FaultConfig):
 * rung k waits `backoff << k`, so an in-range ladder charges fewer
 * than 2^49 cycles and never shifts by 64 bits or more.
 */
struct RetryLadderLimits
{
    static constexpr std::size_t kMaxRetries = 16;
    static constexpr std::uint64_t kMaxRetryBackoffCycles = 1ull << 32;
};

/**
 * The bounded retry ladder of every reliability layer: the
 * controller's guarded cpim and the service's shift- and data-fault
 * verdicts.  Attempt 0 is the first execution; while an attempt asks
 * for a retry and fewer than maxRetries rungs have run, rung k waits
 * `backoff << k` cycles and attempt k + 1 re-executes.  What an
 * exhausted ladder means is the caller's verdict.
 */
class RetryLadder : public RetryLadderLimits
{
  public:
    /** Throws FatalError beyond kMaxRetries or kMaxRetryBackoffCycles. */
    RetryLadder(std::size_t max_retries, std::uint64_t backoff_cycles);

    /**
     * Climb the ladder: @p run(k) runs attempt k and returns true when
     * it must be retried; @p retry(cycles) is called with rung k's
     * backoff before attempt k + 1.  Returns true when the ladder ran
     * out with the last attempt still asking for a retry.
     */
    template <class Run, class Retry>
    bool
    climb(Run &&run, Retry &&retry) const
    {
        for (std::size_t attempt = 0; run(attempt); ++attempt) {
            if (attempt >= maxRetries_)
                return true;
            retry(backoffCycles_ << attempt);
        }
        return false;
    }

  private:
    std::size_t maxRetries_;
    std::uint64_t backoffCycles_;
};

/**
 * The range of a fault-probability flag (--pshift, --pdata, --pstuck,
 * --pfault), named once for every command that binds one.
 */
inline constexpr const char *kProbabilityRange = "in [0, 1]";

/** Whether @p p lies in kProbabilityRange. */
constexpr bool
probabilityValid(double p)
{
    return p >= 0.0 && p <= 1.0;
}

/** The range of a decay-rate flag (--retention): any rate >= 0. */
inline constexpr const char *kDecayRateRange = "in [0, inf]";

/** Whether @p r lies in kDecayRateRange. */
constexpr bool
decayRateValid(double r)
{
    return r >= 0.0;
}

/** NMR arities a PIM op may run at: 1 (no voting), 3, 5 or 7. */
inline constexpr const char *kPimNmrArities = "1, 3, 5 or 7";

/** Whether @p n is one of kPimNmrArities. */
constexpr bool
pimNmrValid(std::size_t n)
{
    return n == 1 || DeviceParams::voteFits(n);
}

/**
 * Throws FatalError unless @p n is one of kPimNmrArities and at most
 * @p trd: a vote senses all N replicas in one TR window.
 */
void checkPimNmr(std::size_t n, std::size_t trd);

/**
 * The fault knobs that a run's configuration (FaultConfig) and the
 * memory's (ReliabilityConfig) share, declared once.
 */
struct FaultKnobs : RetryLadderLimits, DataFaultRates
{
    /** Probability that a single shift pulse over-/under-shifts. */
    double shiftFaultRate = 0.0;

    /** Fraction of shift faults that are over-shifts (symmetric). */
    static constexpr double overShiftFraction = 0.5;

    /** Retry-ladder depth (<= kMaxRetries). */
    std::size_t maxRetries = 2;

    /**
     * NMR arity of PIM ops under data faults (ECC cannot cover
     * in-situ compute), one of kPimNmrArities.  1 = no voting.
     */
    std::size_t pimNmr = 1;
};

/**
 * The fault knobs of a fault-injecting run:
 * ServiceFaultConfig and ControllerCampaignConfig build on it, and
 * `coruscant_cli campaign` and `serve` bind its flags through one
 * option fragment.  (ReliabilityConfig, the memory's view, keeps its
 * own spellings guardPolicy/eccMode.)
 */
struct FaultConfig : FaultKnobs
{
    /** Alignment-check cadence. */
    GuardPolicy policy = GuardPolicy::PerAccess;

    /** Content protection of lines on the port path (TRs bypass it). */
    EccMode ecc = EccMode::None;
};

/** Shift-fault injection and guarded-execution configuration. */
struct ReliabilityConfig : FaultKnobs
{
    /** RNG seed for the shift-fault injector. */
    std::uint64_t shiftFaultSeed = 1;

    /** Alignment-check cadence. */
    GuardPolicy guardPolicy = GuardPolicy::None;

    /** Accesses between sweeps under GuardPolicy::PeriodicScrub. */
    static constexpr std::size_t scrubInterval = 256;

    /**
     * Idle cycles charged before the first ladder re-execution,
     * doubling with each further attempt (exponential backoff lets a
     * transient disturbance decay before the retry).  0 retries
     * immediately, preserving the pre-backoff cost accounting.  At
     * most kMaxRetryBackoffCycles.
     */
    std::uint64_t retryBackoffCycles = 0;

    /**
     * Corrected-fault count at which a DBC is retired and its
     * addresses remapped to a spare (0 disables retirement).
     */
    std::uint64_t retireThreshold = 0;

    /** Spare DBCs available for remapping retired clusters. */
    std::size_t spareDbcs = 64;

    /** RNG seed for the data-fault injector. */
    std::uint64_t dataFaultSeed = 1;

    /** Content protection for stored lines. */
    EccMode eccMode = EccMode::None;

    /** Protected word width under EccMode::Secded: (72,64) SECDED. */
    static constexpr std::size_t eccWordBits = 64;

    bool guarded() const { return guardPolicy != GuardPolicy::None; }

    bool eccEnabled() const { return eccMode != EccMode::None; }
};

/** Geometry and interface of the CORUSCANT main memory. */
struct MemoryConfig
{
    Interleave interleave = Interleave::BankFirst;

    ReliabilityConfig reliability;

    std::size_t banks = 32;
    std::size_t subarraysPerBank = 64;
    std::size_t tilesPerSubarray = 16;
    std::size_t dbcsPerTile = 16;
    std::size_t pimDbcsPerSubarray = 16; ///< one PIM tile's worth

    DeviceParams device = DeviceParams::coruscantDefault();

    /** Bits stored per DBC. */
    std::size_t
    bitsPerDbc() const
    {
        return device.wiresPerDbc * device.domainsPerWire;
    }

    /** All DBCs in the memory. */
    std::size_t
    totalDbcs() const
    {
        return banks * subarraysPerBank * tilesPerSubarray * dbcsPerTile;
    }

    /** PIM-enabled DBCs (paper: 32768 for the default config). */
    std::size_t
    totalPimDbcs() const
    {
        return banks * subarraysPerBank * pimDbcsPerSubarray;
    }

    /** Memory capacity in bytes (1 GiB for the defaults). */
    std::uint64_t
    capacityBytes() const
    {
        return static_cast<std::uint64_t>(totalDbcs()) * bitsPerDbc() / 8;
    }

    /** Bytes in one DBC row (one 512-bit cache line). */
    std::size_t
    rowBytes() const
    {
        return device.wiresPerDbc / 8;
    }
};

/** Physical location of one cache-line-sized row. */
struct LineAddress
{
    std::size_t bank;
    std::size_t subarray;
    std::size_t tile;
    std::size_t dbc;
    std::size_t row;

    bool
    operator==(const LineAddress &o) const
    {
        return bank == o.bank && subarray == o.subarray &&
               tile == o.tile && dbc == o.dbc && row == o.row;
    }
};

/**
 * Byte address -> line location.  Lines interleave across banks first
 * (bank bits lowest) so streaming accesses exploit bank parallelism,
 * then walk rows within a DBC to keep shifts short.
 */
class AddressMap
{
  public:
    explicit AddressMap(const MemoryConfig &cfg)
        : config(cfg)
    {}

    /** Decompose @p byte_addr; must be line-aligned capacity-wise. */
    LineAddress decode(std::uint64_t byte_addr) const;

    /** Inverse of decode. */
    std::uint64_t encode(const LineAddress &loc) const;

    /** Flat DBC index for sparse storage keys. */
    std::uint64_t dbcId(const LineAddress &loc) const;

  private:
    MemoryConfig config;
};

} // namespace coruscant

#endif // CORUSCANT_ARCH_CONFIG_HPP
