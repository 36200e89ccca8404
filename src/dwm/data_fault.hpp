/**
 * @file
 * Data-domain fault injection.
 *
 * ShiftFaultModel perturbs *positions*; this model perturbs the
 * *contents* of the domains themselves, covering the three data
 * failure modes of DWM storage:
 *
 *  - transient flips: a read/write/shift disturbs a domain and its
 *    read-back value flips (soft error, per-bit Bernoulli);
 *  - stuck-at domains: a manufacturing-weak domain always senses the
 *    same value regardless of what was written.  Sites are a fixed,
 *    sticky property of the array — derived from a stateless hash of
 *    (seed, dbc, row, wire) so the same seed yields the same defect
 *    map in every run and at every thread count;
 *  - retention decay: a stored domain loses its value over time with
 *    per-cycle rate lambda, so a row untouched for t cycles sees each
 *    bit flip with p = 1 - exp(-lambda * t).
 *
 * Transient and retention sampling use a sequential SplitMix64 stream
 * (same discipline as ShiftFaultModel): one model per channel/memory,
 * seeded from the run seed, with per-bit probabilities realized by
 * geometric gap sampling so a disabled or low-rate model costs O(flips)
 * instead of O(bits).
 *
 * Matching repair mechanisms: SECDED ECC (reliability/ecc) for port
 * reads, NMR voting for in-situ PIM, scrubbing for retention.
 */

#ifndef CORUSCANT_DWM_DATA_FAULT_HPP
#define CORUSCANT_DWM_DATA_FAULT_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/bit_vector.hpp"
#include "util/rng.hpp"

namespace coruscant {

/**
 * Data-domain fault rates (content, not alignment): the model's knobs,
 * shared by the memory (ReliabilityConfig) and every fault-injecting
 * run (FaultConfig).
 */
struct DataFaultRates
{
    /** Per-bit transient flip probability per line access. */
    double dataFaultRate = 0.0;

    /** Fraction of domains manufactured stuck-at (sticky sites). */
    double stuckAtFraction = 0.0;

    /** Per-bit retention decay rate lambda per idle cycle. */
    double retentionRatePerCycle = 0.0;

    /** Whether any data-domain fault source is active. */
    bool
    dataFaultsEnabled() const
    {
        return dataFaultRate > 0.0 || stuckAtFraction > 0.0 ||
               retentionRatePerCycle > 0.0;
    }
};

/**
 * Injects data-domain faults into rows as they move through the
 * memory.  Each injector touches only a row's first `bits` bits, so
 * faults can stay off wires past a payload, such as a guard wire.  A
 * default-constructed (all-zero-rate) model is inert.
 */
class DataFaultModel
{
  public:
    DataFaultModel() = default;

    /** Same @p seed => same fault sites at any thread count. */
    DataFaultModel(const DataFaultRates &rates, std::uint64_t seed)
        : rates_(rates), transientRate_(rates.dataFaultRate),
          seed_(seed), rng_(seed)
    {}

    bool enabled() const { return rates_.dataFaultsEnabled(); }

    /** Default of each injector's @p bits: the whole row. */
    static constexpr std::size_t allBits = SIZE_MAX;

    /**
     * Transient disturbance of one accessed row: flips each bit with
     * dataFaultRate.  Returns the number of flips.
     */
    std::uint64_t
    perturbTransient(BitVector &row, std::size_t bits = allBits)
    {
        std::uint64_t flips = flipBernoulli(row, bits, transientRate_);
        transientFlips_ += flips;
        return flips;
    }

    /**
     * Force the sticky stuck-at sites of (@p dbc_id, @p row_index)
     * onto @p row.  Site membership and stuck polarity come from a
     * stateless hash, so the defect map never depends on access order.
     * Returns the number of bits the defects actually changed.
     */
    std::uint64_t
    applyStuckAt(BitVector &row, std::uint64_t dbc_id,
                 std::uint32_t row_index, std::size_t bits = allBits)
    {
        if (rates_.stuckAtFraction <= 0.0)
            return 0;
        std::uint64_t changed = 0;
        bits = std::min(bits, row.size());
        for (std::size_t wire = 0; wire < bits; ++wire) {
            std::uint64_t h = siteHash(dbc_id, row_index, wire);
            if (!stuckSite(h))
                continue;
            bool stuckValue = (h >> 63) != 0; // independent polarity
            if (row.get(wire) != stuckValue) {
                row.set(wire, stuckValue);
                ++changed;
            }
        }
        stuckAtActivations_ += changed;
        return changed;
    }

    /** Whether any site of (@p dbc_id, @p row_index) is stuck-at. */
    bool
    hasStuckSite(std::uint64_t dbc_id, std::uint32_t row_index,
                 std::size_t wires) const
    {
        if (rates_.stuckAtFraction <= 0.0)
            return false;
        for (std::size_t wire = 0; wire < wires; ++wire)
            if (stuckSite(siteHash(dbc_id, row_index, wire)))
                return true;
        return false;
    }

    /**
     * Retention decay of a stored row untouched for @p elapsed_cycles:
     * each bit flips with p = 1 - exp(-lambda * t).  Returns flips.
     */
    std::uint64_t
    decay(BitVector &row, std::uint64_t elapsed_cycles,
          std::size_t bits = allBits)
    {
        std::uint64_t flips = flipBernoulli(
            row, bits,
            BernoulliRate(retentionFlipProbability(elapsed_cycles)));
        retentionFlips_ += flips;
        return flips;
    }

    /** Per-bit flip probability after @p elapsed_cycles unrefreshed. */
    double
    retentionFlipProbability(std::uint64_t elapsed_cycles) const
    {
        if (rates_.retentionRatePerCycle <= 0.0 || elapsed_cycles == 0)
            return 0.0;
        return 1.0 - std::exp(-rates_.retentionRatePerCycle *
                              static_cast<double>(elapsed_cycles));
    }

    std::uint64_t transientFlips() const { return transientFlips_; }

    /** All data faults injected so far. */
    std::uint64_t
    injectedFaults() const
    {
        return transientFlips_ + stuckAtActivations_ +
               retentionFlips_;
    }

  private:
    /** Flip each of @p row's first @p bits bits at @p rate. */
    std::uint64_t
    flipBernoulli(BitVector &row, std::size_t bits,
                  const BernoulliRate &rate)
    {
        bits = std::min(bits, row.size());
        return forEachBernoulli(rng_, bits, rate, [&](std::size_t i) {
            row.set(i, !row.get(i));
        });
    }

    /** Whether the site hashing to @p h is stuck (top 53 bits draw). */
    bool
    stuckSite(std::uint64_t h) const
    {
        return static_cast<double>(h >> 11) * 0x1.0p-53 <
               rates_.stuckAtFraction;
    }

    /** Stateless per-site hash (SplitMix64 finalizer over the key). */
    std::uint64_t
    siteHash(std::uint64_t dbc_id, std::uint32_t row_index,
             std::size_t wire) const
    {
        std::uint64_t key = seed_ ^
                            (dbc_id * 0x9e3779b97f4a7c15ULL) ^
                            ((static_cast<std::uint64_t>(row_index)
                              << 32) |
                             static_cast<std::uint64_t>(wire));
        return splitMix64(key + 0x9e3779b97f4a7c15ULL);
    }

    DataFaultRates rates_;
    BernoulliRate transientRate_; ///< dataFaultRate, built once
    std::uint64_t seed_ = 0;
    Rng rng_;
    std::uint64_t transientFlips_ = 0;
    std::uint64_t stuckAtActivations_ = 0;
    std::uint64_t retentionFlips_ = 0;
};

} // namespace coruscant

#endif // CORUSCANT_DWM_DATA_FAULT_HPP
