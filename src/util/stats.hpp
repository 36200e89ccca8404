/**
 * @file
 * Cycle and energy accounting for the simulators.
 *
 * Every modeled component charges its primitive operations to a
 * CostLedger.  Ledgers are cheap value types that can be merged, so a
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
#include <map>
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

    /**
     * Charge @p cycles cycles and @p energy_pj picojoules to @p what,
     * a category name with static storage duration (a string
     * literal): repeat charges find the category by pointer, without
     * building or comparing strings.
     */
    void
    charge(const char *what, std::uint64_t cycles, double energy_pj)
    {
        add(cache_.find(what, byCategory_), cycles, energy_pj);
    }

    /** charge() for a category name built at run time. */
    void
    charge(const std::string &what, std::uint64_t cycles, double energy_pj)
    {
        add(byCategory_[what], cycles, energy_pj);
    }

    /** Merge another ledger's totals into this one. */
    void
    merge(const CostLedger &o)
    {
        totalCycles_ += o.totalCycles_;
        totalEnergyPj_ += o.totalEnergyPj_;
        for (const auto &[k, v] : o.byCategory_) {
            auto &e = byCategory_[k];
            e.cycles += v.cycles;
            e.energyPj += v.energyPj;
            e.count += v.count;
        }
    }

    void
    reset()
    {
        totalCycles_ = 0;
        totalEnergyPj_ = 0;
        byCategory_.clear();
        cache_.clear();
    }

    std::uint64_t cycles() const { return totalCycles_; }
    double energyPj() const { return totalEnergyPj_; }

    const std::map<std::string, Entry> &byCategory() const
    {
        return byCategory_;
    }

    /** Human-readable multi-line summary. */
    std::string summary() const;

  private:
    /**
     * byCategory_ entries of the last few literal names charged.  Map
     * nodes never move, so the pointers stay valid until reset(); a
     * copied or moved ledger starts (and a moved-from one restarts)
     * with an empty cache, as its pointers name the other map.
     */
    class EntryCache
    {
      public:
        EntryCache() = default;
        EntryCache(const EntryCache &) {}
        EntryCache(EntryCache &&o) noexcept { o.clear(); }
        EntryCache &
        operator=(const EntryCache &)
        {
            clear();
            return *this;
        }
        EntryCache &
        operator=(EntryCache &&o) noexcept
        {
            clear();
            o.clear();
            return *this;
        }

        /** The entry of @p what, inserted into @p map if new. */
        Entry &
        find(const char *what, std::map<std::string, Entry> &map)
        {
            for (std::size_t i = 0; i < used; ++i)
                if (keys[i] == what)
                    return *entries[i];
            Entry &e = map[what];
            std::size_t slot = used < slots ? used++ : next++ % slots;
            keys[slot] = what;
            entries[slot] = &e;
            return e;
        }

        void
        clear()
        {
            used = 0;
            next = 0;
        }

      private:
        static constexpr std::size_t slots = 8;
        std::array<const char *, slots> keys{};
        std::array<Entry *, slots> entries{};
        std::size_t used = 0; ///< filled slots
        std::size_t next = 0; ///< round-robin victim once full
    };

    void
    add(Entry &e, std::uint64_t cycles, double energy_pj)
    {
        totalCycles_ += cycles;
        totalEnergyPj_ += energy_pj;
        e.cycles += cycles;
        e.energyPj += energy_pj;
        e.count += 1;
    }

    std::uint64_t totalCycles_ = 0;
    double totalEnergyPj_ = 0;
    std::map<std::string, Entry> byCategory_;
    EntryCache cache_;
};

} // namespace coruscant

#endif // CORUSCANT_UTIL_STATS_HPP
