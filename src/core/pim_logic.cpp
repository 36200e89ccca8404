#include "core/pim_logic.hpp"

#include "util/logging.hpp"

namespace coruscant {

const char *
bulkOpName(BulkOp op)
{
    switch (op) {
      case BulkOp::And: return "AND";
      case BulkOp::Nand: return "NAND";
      case BulkOp::Or: return "OR";
      case BulkOp::Nor: return "NOR";
      case BulkOp::Xor: return "XOR";
      case BulkOp::Xnor: return "XNOR";
      case BulkOp::Not: return "NOT";
      case BulkOp::Maj: return "MAJ";
    }
    return "?";
}

PimOutputs
evalPimLogic(std::size_t count, std::size_t window)
{
    PimOutputs o;
    o.orOut = count >= 1;
    o.andOut = count >= window;
    o.xorOut = (count & 1) != 0;
    o.sum = o.xorOut;
    o.carry = (count >> 1) & 1;
    o.superCarry = (count >> 2) & 1;
    return o;
}

bool
selectBulkOp(BulkOp op, const PimOutputs &out)
{
    switch (op) {
      case BulkOp::And: return out.andOut;
      case BulkOp::Nand: return !out.andOut;
      case BulkOp::Or: return out.orOut;
      case BulkOp::Nor: return !out.orOut;
      case BulkOp::Xor: return out.xorOut;
      case BulkOp::Xnor: return !out.xorOut;
      case BulkOp::Not: return !out.orOut; // single operand, 0-padded
      case BulkOp::Maj: return out.superCarry; // >= 4 of 7
    }
    panic("unknown bulk op");
}

BitVector
bulkOpRow(BulkOp op, const CountPlanes &counts, std::size_t window)
{
    switch (op) {
      case BulkOp::And: return counts.atLeast(window);
      case BulkOp::Nand: return ~counts.atLeast(window);
      case BulkOp::Or: return counts.atLeast(1);
      case BulkOp::Nor: return ~counts.atLeast(1);
      case BulkOp::Xor: return counts.plane(0);
      case BulkOp::Xnor: return ~counts.plane(0);
      case BulkOp::Not: return ~counts.atLeast(1);
      case BulkOp::Maj: return counts.plane(2);
    }
    panic("unknown bulk op");
}

} // namespace coruscant
