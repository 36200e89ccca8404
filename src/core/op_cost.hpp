/**
 * @file
 * Operation-level cost summaries for CORUSCANT.
 *
 * System-level models (Polybench, bitmap indices, CNNs) need the
 * latency/energy of whole PIM operations as numbers.  Rather than
 * duplicating formulas, this model *measures* them by running the
 * functional simulator on a representative microbenchmark and reading
 * its ledger — a single source of truth with the unit tests that pin
 * the paper's published composites.
 *
 * Measurements are memoized: the functional run (a CoruscantUnit plus
 * real BitVector data) happens once per distinct (op, operands, bits,
 * strategy) key — the model itself is per-TRD — and every repeated
 * query from the queue model or event simulator is an O(log n) map
 * lookup.  Each measurement also captures the device-primitive counts
 * behind the composite, so downstream layers can attribute shift/TR/TW
 * activity without re-running the simulation.
 */

#ifndef CORUSCANT_CORE_OP_COST_HPP
#define CORUSCANT_CORE_OP_COST_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>

#include "core/coruscant_unit.hpp"
#include "obs/metrics.hpp"

namespace coruscant {

/** Latency, energy, and primitive activity of one operation instance. */
struct OpCost
{
    std::uint64_t cycles = 0;
    double energyPj = 0.0;
    obs::PrimCounts prims; ///< device primitives behind the measurement
};

/** Measured (and memoized) CORUSCANT operation costs for a given TRD. */
class CoruscantCostModel
{
  public:
    explicit CoruscantCostModel(std::size_t trd)
        : trd_(trd)
    {}

    // The memo cache travels with the model; the mutex does not.
    CoruscantCostModel(const CoruscantCostModel &o);
    CoruscantCostModel &operator=(const CoruscantCostModel &o);

    std::size_t trd() const { return trd_; }

    /** m-operand addition of `bits`-bit words (one lane). */
    OpCost add(std::size_t operands, std::size_t bits) const;

    /** Two-operand multiply of `bits`-bit words (one 2n-wide lane). */
    OpCost multiply(std::size_t bits,
                    MulStrategy strategy = MulStrategy::OptimizedCsa) const;

    /** m-operand bulk-bitwise op over a full 512-bit row. */
    OpCost bulkBitwise(std::size_t operands) const;

    /**
     * One reduction over a full row of as many rows as the unit
     * reduces: TRD->3 with the super-carry (TRD >= 5), else 3->2.
     */
    OpCost reduce() const;

    /** Max of m `bits`-bit candidates (one lane). */
    OpCost max(std::size_t candidates, std::size_t bits,
               bool use_tw = true) const;

    /** N-modular redundancy vote over a full row. */
    OpCost nmrVote(std::size_t n) const;

    /** Adder arity for this TRD. */
    std::size_t
    maxAddOperands() const
    {
        return DeviceParams::withTrd(trd_).maxAddOperands();
    }

    /** Functional-sim runs performed so far (cache misses). */
    std::uint64_t measurements() const;

    /** Queries served from the memo cache. */
    std::uint64_t cacheHits() const;

    /**
     * Attach a registry: each distinct operation records its primitive
     * counts and energy under "opcost/<op>" when first measured.
     * Non-owning; nullptr detaches.
     */
    void attachMetrics(obs::MetricsRegistry *r) { registry_ = r; }

  private:
    /** Memo key: (op kind, up to three operand/flag fields). */
    using Key = std::array<std::uint64_t, 4>;

    OpCost lookup(const Key &key, const char *name,
                  const std::function<OpCost()> &measure) const;

    std::size_t trd_;
    mutable std::mutex mutex_;
    mutable std::map<Key, OpCost> cache_;
    mutable std::uint64_t measurements_ = 0;
    mutable std::uint64_t cacheHits_ = 0;
    obs::MetricsRegistry *registry_ = nullptr; ///< non-owning, optional
};

} // namespace coruscant

#endif // CORUSCANT_CORE_OP_COST_HPP
