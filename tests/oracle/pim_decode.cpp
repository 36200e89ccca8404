#include "oracle/pim_decode.hpp"

#include "util/logging.hpp"

namespace coruscant {

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

} // namespace coruscant
