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
