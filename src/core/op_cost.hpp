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
 * Every query is a fresh measurement: the op runs once on a new
 * CoruscantUnit with real BitVector data, so the model holds nothing
 * but its TRD.  A caller that needs a cost more than once keeps the
 * OpCost it got.  Each measurement also captures the device-primitive
 * counts behind the composite, so downstream layers can attribute
 * shift/TR/TW activity without re-running the simulation.
 */

#ifndef CORUSCANT_CORE_OP_COST_HPP
#define CORUSCANT_CORE_OP_COST_HPP

#include <cstdint>

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

/** Measured CORUSCANT operation costs for a given TRD. */
class CoruscantCostModel
{
  public:
    explicit CoruscantCostModel(std::size_t trd)
        : trd_(trd)
    {
        DeviceParams::checkPimTrd(trd);
    }

    /** m-operand addition of `bits`-bit words (one lane). */
    OpCost add(std::size_t operands, std::size_t bits) const;

    /** Two-operand multiply of `bits`-bit words (one 2n-wide lane). */
    OpCost multiply(std::size_t bits,
                    MulStrategy strategy = MulStrategy::OptimizedCsa) const;

    /** m-operand bulk-bitwise op over a full 512-bit row. */
    OpCost bulkBitwise(std::size_t operands) const;

    /**
     * One reduction over a full row of DeviceParams::csaInputs() rows:
     * TRD->3 with the super carry, else 3->2.
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

    /**
     * Attach a registry: each measurement records its primitive
     * counts and energy under "opcost/<op>".  Non-owning; nullptr
     * detaches.
     */
    void attachMetrics(obs::MetricsRegistry *r) { registry_ = r; }

  private:
    /**
     * Run @p op on a fresh unit of @p wires wires and return its ledger
     * totals and primitive counts, recorded under "opcost/<name>".
     */
    template <typename Op>
    OpCost measure(const char *name, std::size_t wires, Op op) const;

    std::size_t trd_;
    obs::MetricsRegistry *registry_ = nullptr; ///< non-owning, optional
};

} // namespace coruscant

#endif // CORUSCANT_CORE_OP_COST_HPP
