#include "baselines/dram_pim.hpp"

#include "arch/timing.hpp"
#include "util/logging.hpp"

namespace coruscant {

namespace {

// DRAM row-activation energy at the 8 KiB row scale, used for the
// energy columns of the comparison benches.  Derived from typical
// DDR3 activation energy (~0.9 nJ per activation) as cited in the
// RowClone/Ambit literature.
constexpr double activationEnergyPj = 909.0;

} // namespace

DramPimUnit::DramPimUnit(std::size_t row_bits, const DramPriceList &price_list)
    : rowBits(row_bits), prices(price_list),
      // A command opens its rows one after another, then precharges.
      commandCycles(price_list.activations * DdrTiming::dram().tRas +
                    DdrTiming::dram().tRp),
      commandEnergyPj(price_list.activations * activationEnergyPj)
{}

void
DramPimUnit::charge(std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        costs.charge(prices.command, commandCycles, commandEnergyPj);
}

void
DramPimUnit::fold(BulkOp op, BitVector &acc, const BitVector &b)
{
    fatalIf(acc.size() != rowBits || b.size() != rowBits,
            "row width mismatch");
    fatalIf(op == BulkOp::Not || op == BulkOp::Maj,
            "a DRAM step has no two-operand ", bulkOpName(op));
    charge(prices.count(op));
    switch (op) {
      case BulkOp::And:
        acc &= b;
        return;
      case BulkOp::Or:
        acc |= b;
        return;
      case BulkOp::Xor:
        acc ^= b;
        return;
      case BulkOp::Nand:
        acc &= b;
        break;
      case BulkOp::Nor:
        acc |= b;
        break;
      default: // Xnor
        acc ^= b;
        break;
    }
    // The inverting ops: NOT the result, in place.
    acc.setWords([&acc](std::size_t j) { return ~acc.word(j); });
}

BitVector
DramPimUnit::bulkNot(const BitVector &a)
{
    charge(prices.count(BulkOp::Not));
    return ~a;
}

BitVector
DramPimUnit::bulkMulti(BulkOp op, const std::vector<BitVector> &ops)
{
    fatalIf(ops.empty(), "bulk op needs at least one operand");
    std::vector<WordSpan> words;
    words.reserve(ops.size());
    for (const BitVector &row : ops) {
        fatalIf(row.size() != rowBits, "row width mismatch");
        words.push_back(row.words());
    }
    // The accumulator starts as a copy of the first row, which the
    // fold then takes in place.
    BitVector acc = ops.front();
    words.front() = acc.words();
    bulkMulti(op, words, acc);
    return acc;
}

namespace {

/**
 * @p acc's words, each combined by @p f with the same word of @p src
 * (zero past its end).  A span that covers the row takes the loop
 * without the bound check.
 */
template <typename F>
void
foldWords(BitVector &acc, WordSpan src, F f)
{
    const std::size_t live = src.size();
    if (live >= acc.numWords())
        acc.updateWords([src, f](std::uint64_t a, std::size_t j) {
            return f(a, src[j]);
        });
    else
        acc.updateWords([src, live, f](std::uint64_t a, std::size_t j) {
            return f(a, j < live ? src[j] : 0);
        });
}

} // namespace

void
DramPimUnit::bulkMulti(BulkOp op, std::span<const WordSpan> ops,
                       BitVector &acc)
{
    fatalIf(ops.empty(), "bulk op needs at least one operand");
    fatalIf(acc.size() != rowBits, "row width mismatch");
    // Compose with the non-inverting op, inverting once at the end; a
    // lone operand is inverted by every inverting op, NOT included.
    BulkOp inner = op;
    bool invert = false;
    switch (op) {
      case BulkOp::Nand:
        inner = BulkOp::And;
        invert = true;
        break;
      case BulkOp::Nor:
        inner = BulkOp::Or;
        invert = true;
        break;
      case BulkOp::Xnor:
        inner = BulkOp::Xor;
        invert = true;
        break;
      case BulkOp::Not:
        invert = true;
        break;
      default:
        break;
    }
    if (ops.size() > 1) {
        fatalIf(inner == BulkOp::Not || inner == BulkOp::Maj,
                "a DRAM step has no two-operand ", bulkOpName(inner));
        for (std::size_t i = 1; i < ops.size(); ++i)
            charge(prices.count(inner));
    }
    if (invert)
        charge(prices.count(BulkOp::Not));

    acc.assignWords(ops[0]);
    for (const WordSpan &src : ops.subspan(1)) {
        switch (inner) {
          case BulkOp::And:
            foldWords(acc, src, [](std::uint64_t a, std::uint64_t b) {
                return a & b;
            });
            break;
          case BulkOp::Or:
            foldWords(acc, src, [](std::uint64_t a, std::uint64_t b) {
                return a | b;
            });
            break;
          default: // Xor
            foldWords(acc, src, [](std::uint64_t a, std::uint64_t b) {
                return a ^ b;
            });
            break;
        }
    }
    if (invert)
        acc.updateWords([](std::uint64_t a, std::size_t) { return ~a; });
}

// ---------------------------------------------------------------------
// Ambit
// ---------------------------------------------------------------------

AmbitUnit::AmbitUnit(std::size_t row_bits)
    : DramPimUnit(row_bits, {Cost::Aap, 2, &AmbitUnit::aapCount})
{}

std::size_t
AmbitUnit::aapCount(BulkOp op)
{
    // Published command sequences (Ambit, MICRO 2017): and/or need the
    // two operand copies, the control copy, and the fused TRA+result
    // copy; the inverting variants add a DCC pass; xor composes two
    // ANDs with negated operands plus an OR.
    switch (op) {
      case BulkOp::And:
      case BulkOp::Or:
        return 4;
      case BulkOp::Nand:
      case BulkOp::Nor:
        return 5;
      case BulkOp::Xor:
      case BulkOp::Xnor:
        return 7;
      case BulkOp::Not:
        return 3;
      default:
        fatal("Ambit does not implement ", bulkOpName(op));
    }
}

// ---------------------------------------------------------------------
// ELP2IM
// ---------------------------------------------------------------------

Elp2ImUnit::Elp2ImUnit(std::size_t row_bits)
    : DramPimUnit(row_bits, {Cost::Ap, 1, &Elp2ImUnit::phaseCount})
{}

std::size_t
Elp2ImUnit::phaseCount(BulkOp op)
{
    // ELP2IM performs a two-operand op as a short sequence of
    // pseudo-precharge state changes plus row activations: two row
    // phases for and/or, three when an inversion or xor composition is
    // needed (HPCA 2020, Sec. IV).
    switch (op) {
      case BulkOp::And:
      case BulkOp::Or:
        return 2;
      case BulkOp::Nand:
      case BulkOp::Nor:
      case BulkOp::Xor:
        return 3;
      case BulkOp::Xnor:
        return 4;
      case BulkOp::Not:
        return 1;
      default:
        fatal("ELP2IM does not implement ", bulkOpName(op));
    }
}

} // namespace coruscant
