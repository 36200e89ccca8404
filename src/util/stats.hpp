/**
 * @file
 * Cycle and energy accounting for the simulators.
 *
 * Every modeled component charges its primitive operations to a
 * CostLedger, each to one category of the closed set Cost, so a
 * composite operation's cost is the sum of its primitives' costs.
 *
 * LatencyHistogram is the companion for distributions: a log-bucketed
 * (HdrHistogram-style) histogram of cycle counts with bounded relative
 * error, cheap to merge across channels/threads, reporting the tail
 * quantiles (p50/p95/p99/p99.9) that means hide.
 */

#ifndef CORUSCANT_UTIL_STATS_HPP
#define CORUSCANT_UTIL_STATS_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace coruscant {

/**
 * Log-bucketed latency histogram.
 *
 * Values below 2^kLinearBits are recorded exactly; above that each
 * power-of-two octave is split into 2^kSubBits sub-buckets, so any
 * reported quantile's bucket edge is within 1/2^kSubBits (~3%) of the
 * true value.  Buckets are value-indexed and fixed, so merging two
 * histograms is element-wise addition and is order-independent —
 * per-channel histograms merged in any grouping give bit-identical
 * aggregates (the property the sharded service engine relies on).
 */
class LatencyHistogram
{
  public:
    static constexpr std::size_t kLinearBits = 6; ///< exact below 64
    static constexpr std::size_t kSubBits = 5;    ///< 32 buckets/octave

    /** Record @p n observations of @p value cycles. */
    void
    record(std::uint64_t value, std::uint64_t n = 1)
    {
        if (n == 0)
            return;
        std::size_t idx = bucketIndex(value);
        if (idx >= buckets_.size())
            buckets_.resize(idx + 1, 0);
        buckets_[idx] += n;
        count_ += n;
        sum_ += static_cast<double>(value) * static_cast<double>(n);
        if (value > max_)
            max_ = value;
        if (count_ == n || value < min_)
            min_ = value;
    }

    /** Element-wise merge of @p o into this histogram. */
    void
    merge(const LatencyHistogram &o)
    {
        if (o.buckets_.size() > buckets_.size())
            buckets_.resize(o.buckets_.size(), 0);
        for (std::size_t i = 0; i < o.buckets_.size(); ++i)
            buckets_[i] += o.buckets_[i];
        if (o.count_ > 0 && (count_ == 0 || o.min_ < min_))
            min_ = o.min_;
        count_ += o.count_;
        sum_ += o.sum_;
        if (o.max_ > max_)
            max_ = o.max_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t max() const { return max_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }

    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /**
     * Value @p q of the way through the distribution (q in [0,1]).
     * Returns the upper edge of the covering bucket, clamped to the
     * exact observed [min, max]; 0 when empty.
     *
     * Error bound: values below 2^kLinearBits are exact.  Above that,
     * the true order statistic lies in the covering bucket, whose
     * width is 1/2^kSubBits of its octave, so the reported value
     * over-estimates by at most one sub-bucket — a relative error
     * <= 1/2^kSubBits (1/32 ~ 3.1%) — and never under-estimates.
     * Without the [min, max] clamp the bucket upper edge could exceed
     * every recorded observation (a single sample of 64 would report
     * 65); the clamp restores exactness whenever the covering bucket's
     * occupants are the distribution's extremes.
     */
    std::uint64_t percentile(double q) const;

    std::uint64_t p50() const { return percentile(0.50); }
    std::uint64_t p95() const { return percentile(0.95); }
    std::uint64_t p99() const { return percentile(0.99); }
    std::uint64_t p999() const { return percentile(0.999); }

    /** One-line "p50=... p95=... p99=... p99.9=... max=..." summary. */
    std::string summary() const;

  private:
    static std::size_t
    bucketIndex(std::uint64_t v)
    {
        if (v < (1ull << kLinearBits))
            return static_cast<std::size_t>(v);
        std::size_t msb =
            static_cast<std::size_t>(std::bit_width(v)) - 1;
        std::size_t sub = static_cast<std::size_t>(
            (v >> (msb - kSubBits)) & ((1ull << kSubBits) - 1));
        return (1ull << kLinearBits) +
               (msb - kLinearBits) * (1ull << kSubBits) + sub;
    }

    /** Largest value mapping to bucket @p idx. */
    static std::uint64_t bucketUpperEdge(std::size_t idx);

    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t min_ = 0;
    double sum_ = 0.0;
};

/**
 * The closed set of cost categories.  Declared in the byte order of
 * their names (costName), so CostLedger::summary() lists them sorted.
 */
enum class Cost : std::uint8_t
{
    Aap,          ///< DRAM activate-activate-precharge (Ambit)
    Ap,           ///< DRAM activate-precharge (ELP2IM)
    Copy,         ///< multiplier's partial-product row copy
    Ecc,          ///< SECDED check lanes of a line access
    EccScrub,     ///< SECDED scrub sweep of a DBC
    Guard,        ///< alignment-guard check TRs
    GuardFix,     ///< corrective shifts after a misalignment
    GuardReset,   ///< guard-track rewrite of a damaged or lost DBC
    Read,         ///< line or row read
    Retire,       ///< migration of a worn DBC to a spare
    RetryBackoff, ///< retry-ladder wait between re-executions
    Shift,        ///< DW shift steps
    Tr,           ///< transverse read
    Tw,           ///< transverse write
    Vote,         ///< NMR majority vote
    Write,        ///< line or row write
};

inline constexpr std::size_t kCostCategories =
    static_cast<std::size_t>(Cost::Write) + 1;

/** The category's name as summary() prints it. */
constexpr const char *
costName(Cost c)
{
    constexpr const char *names[] = {
        "aap",         "ap",     "copy",          "ecc",
        "ecc_scrub",   "guard",  "guard_fix",     "guard_reset",
        "read",        "retire", "retry_backoff", "shift",
        "tr",          "tw",     "vote",          "write"};
    static_assert(std::size(names) == kCostCategories);
    return names[static_cast<std::size_t>(c)];
}

/**
 * Accumulates cycles and energy (picojoules), with per-category
 * breakdowns for reporting.
 */
class CostLedger
{
  public:
    /** Per-category entry. */
    struct Entry
    {
        std::uint64_t cycles = 0;
        double energyPj = 0;
        std::uint64_t count = 0;
    };

    /** Charge @p cycles cycles and @p energy_pj picojoules to @p what. */
    void
    charge(Cost what, std::uint64_t cycles, double energy_pj)
    {
        totalCycles_ += cycles;
        totalEnergyPj_ += energy_pj;
        Entry &e = entries_[static_cast<std::size_t>(what)];
        e.cycles += cycles;
        e.energyPj += energy_pj;
        e.count += 1;
    }

    void reset() { *this = CostLedger(); }

    std::uint64_t cycles() const { return totalCycles_; }
    double energyPj() const { return totalEnergyPj_; }

    /** What has been charged to @p what (all zero if nothing). */
    const Entry &
    entry(Cost what) const
    {
        return entries_[static_cast<std::size_t>(what)];
    }

    /**
     * Human-readable multi-line summary: the totals, then each
     * category charged at least once, in enum order.
     */
    std::string summary() const;

  private:
    std::uint64_t totalCycles_ = 0;
    double totalEnergyPj_ = 0;
    std::array<Entry, kCostCategories> entries_{};
};

} // namespace coruscant

#endif // CORUSCANT_UTIL_STATS_HPP
