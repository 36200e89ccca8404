/**
 * @file
 * The cpim instruction (paper Sec. III-E).
 *
 * CORUSCANT reserves part of the physical address space for PIM and
 * adds an instruction the core hands to the memory controller:
 *
 *     cpim  src, op, blocksize
 *
 * src names the DBC and nanowire position to align with the leftmost
 * access port; op selects the PIM operation; blocksize in
 * {8,16,32,64,128,256,512} tells the controller where to mask the
 * bitlines that form carry chains.  This module defines the
 * instruction, its operations and its validation against the ISA
 * limits; the controller takes it as a struct, with no packed binary
 * encoding.
 */

#ifndef CORUSCANT_CONTROLLER_CPIM_ISA_HPP
#define CORUSCANT_CONTROLLER_CPIM_ISA_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "core/pim_logic.hpp"

namespace coruscant {

/** PIM operations addressable from the cpim instruction. */
enum class CpimOp : std::uint8_t
{
    And = 0,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
    Not,
    Add,
    Reduce,
    Multiply,
    Max,
    Relu,
    Vote,
    Copy, ///< row-buffer data movement into/out of PIM DBCs
};

const char *cpimOpName(CpimOp op);

/** The bulk-bitwise op behind a single-TR bulk op; none otherwise. */
std::optional<BulkOp> cpimBulkOp(CpimOp op);

/** Whether the op is a single-TR bulk-bitwise operation. */
inline bool cpimIsBulk(CpimOp op) { return cpimBulkOp(op).has_value(); }

/** One cpim instruction. */
struct CpimInstruction
{
    CpimOp op = CpimOp::And;
    std::uint64_t src = 0;      ///< byte address of the first operand row
    std::uint8_t operands = 2;  ///< operand rows at src, src+stride, ...
    std::uint16_t blockSize = 512; ///< carry-chain lane width
    std::uint64_t dst = 0;      ///< result row byte address

    /** Validate against the ISA limits; returns an error or "". */
    std::string validate(std::size_t trd) const;
};

} // namespace coruscant

#endif // CORUSCANT_CONTROLLER_CPIM_ISA_HPP
