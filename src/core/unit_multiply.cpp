/**
 * @file
 * CoruscantUnit multiplication (paper Sec. III-D).
 *
 * Lanes: an n-bit multiplicand occupies the low bits of a 2n-wire lane
 * so the product fits the lane.  Partial products are shifted copies
 * of A generated through the inter-wire forwarding path (one "shifted
 * read/write" per copy, one DW shift to advance the destination row),
 * predicated on the multiplier bits held in the row buffer.
 *
 * Strategies:
 *  - Arbitrary: partial products summed in groups of the adder arity
 *    (paper Sec. III-D.2); O(n^2 / TRD) addition steps.
 *  - OptimizedCsa: 7->3 reductions collapse the partial products to at
 *    most the adder arity, then one final addition (Sec. III-D.3);
 *    O(n) total.
 *
 * Constant multiplication (Sec. III-D.1) recodes the constant in
 * canonical-signed-digit form; negative digits become one's-complement
 * rows plus a single correction row holding the count of negative
 * terms (the "+1"s of the two's complements).
 */

#include <algorithm>

#include "core/coruscant_unit.hpp"
#include "util/csd.hpp"
#include "util/logging.hpp"

namespace coruscant {

void
CoruscantUnit::chargeCopy(std::size_t active_wires)
{
    // Fused shifted read/write through the inter-wire brown path.
    double pj = static_cast<double>(active_wires)
                * (dev.readEnergyPj + dev.writeEnergyPj);
    costs.charge(Cost::Copy, dev.readCycles, pj);
    if (metrics) {
        metrics->add(obs::Counter::Reads);
        metrics->add(obs::Counter::Writes);
        metrics->addEnergy(pj);
    }
}

namespace {

/** Extract lane @p lane of width @p lane_w from @p row. */
std::uint64_t
laneValue(const BitVector &row, std::size_t lane, std::size_t lane_w)
{
    return row.sliceUint64(lane * lane_w, lane_w);
}

} // namespace

BitVector
CoruscantUnit::multiply(const BitVector &a_row, const BitVector &b_row,
                        std::size_t operand_bits, MulStrategy strategy,
                        std::size_t active_wires)
{
    OpSpan span(*this, "multiply");
    std::size_t act = resolveActive(active_wires);
    fatalIf(operand_bits == 0 || operand_bits > 32,
            "operand bits must be in [1, 32]");
    const std::size_t lane_w = 2 * operand_bits;
    fatalIf(act % lane_w != 0,
            "active wires must be a whole number of 2n-wide lanes");
    fatalIf(a_row.size() != dev.wiresPerDbc ||
                b_row.size() != dev.wiresPerDbc,
            "operand row width mismatch");
    const std::size_t lanes = act / lane_w;

    // ------------------------------------------------------------------
    // Partial-product generation: bring B into the row buffer (1 read),
    // then for each multiplier bit produce a predicated shifted copy of
    // A (1 fused read/write) and advance the destination row (1 shift):
    // 2n + 1 cycles total.
    // ------------------------------------------------------------------
    chargeRowRead(act);
    std::vector<BitVector> pps;
    pps.reserve(operand_bits);
    for (std::size_t i = 0; i < operand_bits; ++i) {
        BitVector pp(dev.wiresPerDbc);
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            std::uint64_t a = laneValue(a_row, lane, lane_w);
            std::uint64_t b = laneValue(b_row, lane, lane_w);
            if ((b >> i) & 1ULL)
                pp.insertUint64(lane * lane_w, lane_w, a << i);
        }
        pps.push_back(std::move(pp));
        chargeCopy(act);
        chargeShifts(1, act);
    }

    switch (strategy) {
      case MulStrategy::OptimizedCsa:
        // Carry-save collapse of the partial products, then one
        // final addition (paper Sec. III-D.3).
        return reduceAndSum(std::move(pps), lane_w, act);
      case MulStrategy::Arbitrary:
        return addMany(std::move(pps), lane_w, act);
    }
    panic("unknown multiplication strategy");
}

BitVector
CoruscantUnit::multiplyByConstant(const BitVector &a_row,
                                  std::uint64_t constant,
                                  std::size_t operand_bits,
                                  std::size_t active_wires)
{
    OpSpan span(*this, "multiply_by_constant");
    std::size_t act = resolveActive(active_wires);
    fatalIf(operand_bits == 0 || operand_bits > 32,
            "operand bits must be in [1, 32]");
    const std::size_t lane_w = 2 * operand_bits;
    fatalIf(act % lane_w != 0,
            "active wires must be a whole number of 2n-wide lanes");
    const std::size_t lanes = act / lane_w;
    const std::uint64_t lane_mask =
        lane_w >= 64 ? ~0ULL : ((1ULL << lane_w) - 1);

    if (constant == 0) {
        chargeRowWrite(act);
        return BitVector(dev.wiresPerDbc);
    }

    auto terms = csdRecode(constant);
    std::vector<BitVector> rows;
    std::size_t neg_terms = 0;
    std::size_t max_shift = 0;
    for (const auto &term : terms) {
        if (term.shift >= lane_w)
            continue; // contributes a multiple of 2^lane_w: zero mod lane
        max_shift = std::max<std::size_t>(max_shift, term.shift);
        BitVector row(dev.wiresPerDbc);
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            std::uint64_t a = laneValue(a_row, lane, lane_w);
            std::uint64_t v = (a << term.shift) & lane_mask;
            if (term.sign < 0)
                v = ~v & lane_mask; // one's complement; +1 corrected below
            row.insertUint64(lane * lane_w, lane_w, v);
        }
        if (term.sign < 0)
            ++neg_terms;
        rows.push_back(std::move(row));
    }

    // Shifted-copy generation cost (paper Sec. III-D): max_shift fused
    // shifted read/writes plus one DW shift per retained copy.
    for (std::size_t s = 0; s < max_shift; ++s)
        chargeCopy(act);
    chargeShifts(rows.size(), act);

    if (neg_terms > 0) {
        // One correction row adds the "+1" of each two's complement.
        BitVector corr(dev.wiresPerDbc);
        for (std::size_t lane = 0; lane < lanes; ++lane)
            corr.insertUint64(lane * lane_w, lane_w, neg_terms);
        rows.push_back(std::move(corr));
        chargeRowWrite(act);
    }

    if (rows.empty()) { // every CSD digit above the lane width
        chargeRowWrite(act);
        return BitVector(dev.wiresPerDbc);
    }
    if (rows.size() == 1)
        return rows.front();
    return addMany(std::move(rows), lane_w, act);
}

} // namespace coruscant
