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

void
bulkOpRow(BulkOp op, const CountPlanes &counts, std::size_t window,
          BitVector &out)
{
    switch (op) {
      case BulkOp::And:
      case BulkOp::Nand:
        counts.atLeast(window, out);
        break;
      case BulkOp::Or:
      case BulkOp::Nor:
      case BulkOp::Not:
        counts.atLeast(1, out);
        break;
      case BulkOp::Xor:
      case BulkOp::Xnor:
        counts.plane(0, out);
        break;
      case BulkOp::Maj:
        counts.plane(2, out);
        break;
      default:
        panic("unknown bulk op");
    }
    // The inverting ops: NOT the row, in place.
    if (op == BulkOp::Nand || op == BulkOp::Nor || op == BulkOp::Xnor ||
        op == BulkOp::Not)
        out.updateWords([](std::uint64_t w, std::size_t) { return ~w; });
}

} // namespace coruscant
