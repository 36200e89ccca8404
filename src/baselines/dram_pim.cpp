#include "baselines/dram_pim.hpp"

#include "util/logging.hpp"

namespace coruscant {

namespace {

// DRAM row-activation energy at the 8 KiB row scale, used for the
// energy columns of the comparison benches.  Derived from typical
// DDR3 activation energy (~0.9 nJ per activation) as cited in the
// RowClone/Ambit literature.
constexpr double activationEnergyPj = 909.0;

} // namespace

void
DramPimUnit::checkWidths(const BitVector &a, const BitVector &b) const
{
    fatalIf(a.size() != rowBits || b.size() != rowBits,
            "row width mismatch");
}

void
DramPimUnit::chargeAap()
{
    costs.charge(Cost::Aap, 2u * timing.tRas + timing.tRp,
                 2.0 * activationEnergyPj);
}

void
DramPimUnit::chargeAp()
{
    costs.charge(Cost::Ap, timing.tRas + timing.tRp, activationEnergyPj);
}

BitVector
DramPimUnit::bulkMulti(BulkOp op, const std::vector<BitVector> &ops)
{
    fatalIf(ops.empty(), "bulk op needs at least one operand");
    if (ops.size() == 1) {
        if (op == BulkOp::Not || op == BulkOp::Nand ||
            op == BulkOp::Nor || op == BulkOp::Xnor) {
            return bulkNot(ops[0]);
        }
        return ops[0];
    }
    // Compose with the non-inverting op, inverting once at the end.
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
      default:
        break;
    }
    BitVector acc = ops[0];
    for (std::size_t i = 1; i < ops.size(); ++i)
        fold(inner, acc, ops[i]);
    if (invert)
        acc = bulkNot(acc);
    return acc;
}

// ---------------------------------------------------------------------
// Ambit
// ---------------------------------------------------------------------

AmbitUnit::AmbitUnit(std::size_t row_bits)
    : DramPimUnit(row_bits), scratch(8, row_bits)
{
    scratch.setRow(4, BitVector(row_bits, false)); // C0
    scratch.setRow(5, BitVector(row_bits, true));  // C1
}

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

void
AmbitUnit::fold(BulkOp op, BitVector &acc, const BitVector &b)
{
    checkWidths(acc, b);
    for (std::size_t i = 0; i < aapCount(op); ++i)
        chargeAap();

    // Functional execution through the real mechanisms; acc is read
    // until the result is assigned to it.
    scratch.setRow(6, acc);
    scratch.setRow(7, b);
    auto tra = [&](std::size_t ctrl) {
        scratch.rowClone(6, 0);
        scratch.rowClone(7, 1);
        scratch.rowClone(ctrl, 2);
        return scratch.tripleRowActivate(0, 1, 2);
    };
    switch (op) {
      case BulkOp::And:
        acc = tra(4);
        return;
      case BulkOp::Or:
        acc = tra(5);
        return;
      case BulkOp::Nand:
        scratch.setRow(3, tra(4));
        acc = scratch.readInverted(3);
        return;
      case BulkOp::Nor:
        scratch.setRow(3, tra(5));
        acc = scratch.readInverted(3);
        return;
      case BulkOp::Xor:
      case BulkOp::Xnor: {
        // k = A AND NOT B; k' = NOT A AND B; result = k OR k'.
        scratch.setRow(3, b);
        BitVector nb = scratch.readInverted(3);
        scratch.setRow(3, acc);
        BitVector na = scratch.readInverted(3);
        scratch.setRow(6, acc);
        scratch.setRow(7, nb);
        BitVector k = tra(4);
        scratch.setRow(6, na);
        scratch.setRow(7, b);
        BitVector kp = tra(4);
        scratch.setRow(6, k);
        scratch.setRow(7, kp);
        acc = tra(5);
        if (op == BulkOp::Xnor) {
            scratch.setRow(3, acc);
            acc = scratch.readInverted(3);
        }
        return;
      }
      default:
        fatal("Ambit does not implement ", bulkOpName(op));
    }
}

BitVector
AmbitUnit::bulkNot(const BitVector &a)
{
    for (std::size_t i = 0; i < aapCount(BulkOp::Not); ++i)
        chargeAap();
    scratch.setRow(3, a);
    return scratch.readInverted(3);
}

// ---------------------------------------------------------------------
// ELP2IM
// ---------------------------------------------------------------------

Elp2ImUnit::Elp2ImUnit(std::size_t row_bits)
    : DramPimUnit(row_bits)
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

void
Elp2ImUnit::fold(BulkOp op, BitVector &acc, const BitVector &b)
{
    checkWidths(acc, b);
    for (std::size_t i = 0; i < phaseCount(op); ++i)
        chargeAp();
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
      case BulkOp::Xnor:
        acc ^= b;
        break;
      default:
        fatal("ELP2IM does not implement ", bulkOpName(op));
    }
    // The inverting ops: NOT the result, in place.
    acc.setWords([&acc](std::size_t j) { return ~acc.word(j); });
}

BitVector
Elp2ImUnit::bulkNot(const BitVector &a)
{
    for (std::size_t i = 0; i < phaseCount(BulkOp::Not); ++i)
        chargeAp();
    return ~a;
}

} // namespace coruscant
