#include "oracle/ambit.hpp"

#include "util/logging.hpp"

namespace coruscant {

AmbitOracle::AmbitOracle(std::size_t row_bits) : scratch(8, row_bits)
{
    scratch.setRow(4, BitVector(row_bits, false)); // C0
    scratch.setRow(5, BitVector(row_bits, true));  // C1
}

void
AmbitOracle::fold(BulkOp op, BitVector &acc, const BitVector &b)
{
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
AmbitOracle::bulkNot(const BitVector &a)
{
    scratch.setRow(3, a);
    return scratch.readInverted(3);
}

} // namespace coruscant
