#include "controller/cpim_isa.hpp"

#include "dwm/device_params.hpp"
#include "util/logging.hpp"

namespace coruscant {

const char *
cpimOpName(CpimOp op)
{
    switch (op) {
      case CpimOp::And: return "and";
      case CpimOp::Nand: return "nand";
      case CpimOp::Or: return "or";
      case CpimOp::Nor: return "nor";
      case CpimOp::Xor: return "xor";
      case CpimOp::Xnor: return "xnor";
      case CpimOp::Not: return "not";
      case CpimOp::Add: return "add";
      case CpimOp::Reduce: return "reduce";
      case CpimOp::Multiply: return "mult";
      case CpimOp::Max: return "max";
      case CpimOp::Relu: return "relu";
      case CpimOp::Vote: return "vote";
      case CpimOp::Copy: return "copy";
    }
    return "?";
}

std::optional<BulkOp>
cpimBulkOp(CpimOp op)
{
    switch (op) {
      case CpimOp::And: return BulkOp::And;
      case CpimOp::Nand: return BulkOp::Nand;
      case CpimOp::Or: return BulkOp::Or;
      case CpimOp::Nor: return BulkOp::Nor;
      case CpimOp::Xor: return BulkOp::Xor;
      case CpimOp::Xnor: return BulkOp::Xnor;
      case CpimOp::Not: return BulkOp::Not;
      default: return std::nullopt;
    }
}

std::string
CpimInstruction::validate(std::size_t trd) const
{
    if (blockSize == 0 || (blockSize & (blockSize - 1)) != 0 ||
        blockSize < 8 || blockSize > 512) {
        return "blocksize must be a power of two in [8, 512]";
    }
    if (operands == 0)
        return "at least one operand required";
    if (cpimIsBulk(op) && operands > trd)
        return "bulk operations take at most TRD operands";
    // Every limit the unit enforces is checked here, before the
    // controller reads (and charges) a single operand row.  The shape
    // needs only the TRD, so it skips DeviceParams::validate().
    const DeviceParams dev{.trd = trd};
    if (op == CpimOp::Add && operands > dev.maxAddOperands())
        return "addition takes at most TRD-2 operands";
    if (op == CpimOp::Reduce && operands > dev.csaInputs())
        return "reduction takes at most TRD operands (3 below TRD 5)";
    if (op == CpimOp::Multiply && (operands != 2 || blockSize > 64))
        return "mult takes two rows of at most 32-bit operands";
    if (op == CpimOp::Max && operands > trd)
        return "max compares at most TRD operands";
    if (op == CpimOp::Vote && !DeviceParams::voteFits(operands, trd))
        return "vote requires an odd N in [3, TRD]";
    return "";
}

} // namespace coruscant
