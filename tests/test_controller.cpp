/**
 * @file
 * cpim ISA and memory-controller end-to-end tests.
 */

#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <utility>

#include "controller/memory_controller.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

TEST(CpimIsa, ValidationRules)
{
    CpimInstruction inst;
    inst.blockSize = 12; // not a power of two
    EXPECT_FALSE(inst.validate(7).empty());
    inst.blockSize = 4; // below ISA minimum
    EXPECT_FALSE(inst.validate(7).empty());
    inst.blockSize = 8;
    inst.op = CpimOp::And;
    inst.operands = 8; // > TRD
    EXPECT_FALSE(inst.validate(7).empty());
    inst.operands = 7;
    EXPECT_TRUE(inst.validate(7).empty());
    inst.op = CpimOp::Add;
    inst.operands = 6; // > TRD-2
    EXPECT_FALSE(inst.validate(7).empty());
    inst.operands = 5;
    EXPECT_TRUE(inst.validate(7).empty());
    inst.op = CpimOp::Vote;
    inst.operands = 4;
    EXPECT_FALSE(inst.validate(7).empty());
}

TEST(CpimIsa, OperandLimitsFailBeforeAnyRead)
{
    // Each instruction breaks a limit the unit enforces: validate()
    // refuses it, so execute() throws before it reads (and charges) a
    // single operand row.
    auto cpim = [](CpimOp op, std::uint8_t operands,
                   std::uint16_t block = 64) {
        CpimInstruction inst;
        inst.op = op;
        inst.operands = operands;
        inst.blockSize = block;
        inst.dst = 64 * 1024;
        return inst;
    };
    const CpimInstruction bad[] = {
        cpim(CpimOp::Reduce, 8),          // > TRD rows
        cpim(CpimOp::Multiply, 3),        // not two rows
        cpim(CpimOp::Multiply, 1),
        cpim(CpimOp::Multiply, 2, 128),   // 64-bit operands
        cpim(CpimOp::Max, 8),             // > TRD candidates
    };
    for (const CpimInstruction &inst : bad) {
        SCOPED_TRACE(cpimOpName(inst.op));
        EXPECT_FALSE(inst.validate(7).empty());
        DwmMainMemory mem;
        MemoryController ctrl(mem);
        EXPECT_THROW(ctrl.execute(inst), FatalError);
        EXPECT_EQ(mem.ledger().cycles(), 0u);
    }
    // Below TRD 5 a reduction takes 3 rows; a vote needs N <= TRD.
    EXPECT_TRUE(cpim(CpimOp::Reduce, 3).validate(4).empty());
    EXPECT_FALSE(cpim(CpimOp::Reduce, 4).validate(4).empty());
    EXPECT_TRUE(cpim(CpimOp::Reduce, 5).validate(5).empty());
    EXPECT_FALSE(cpim(CpimOp::Vote, 7).validate(5).empty());
    EXPECT_TRUE(cpim(CpimOp::Multiply, 2).validate(7).empty());
}

class ControllerEndToEnd : public ::testing::Test
{
  protected:
    ControllerEndToEnd()
        : mem(), ctrl(mem)
    {}

    /** Write operand rows at consecutive rows of the DBC at `base`. */
    void
    stage(std::uint64_t base, const std::vector<BitVector> &rows)
    {
        for (std::size_t i = 0; i < rows.size(); ++i)
            mem.writeLine(ctrl.operandAddress(base, i), rows[i]);
    }

    DwmMainMemory mem;
    MemoryController ctrl;
};

TEST_F(ControllerEndToEnd, BulkAndThroughMemory)
{
    Rng rng(3);
    BitVector a(512), b(512), c(512);
    for (std::size_t i = 0; i < 512; ++i) {
        a.set(i, rng.nextBool());
        b.set(i, rng.nextBool());
        c.set(i, rng.nextBool());
    }
    std::uint64_t src = 0x1000;
    stage(src, {a, b, c});
    CpimInstruction inst;
    inst.op = CpimOp::And;
    inst.operands = 3;
    inst.src = src;
    inst.dst = 0x400000;
    auto result = ctrl.execute(inst);
    EXPECT_EQ(result, a & b & c);
    EXPECT_EQ(mem.readLine(inst.dst), a & b & c);
}

TEST_F(ControllerEndToEnd, EveryBulkOpMatchesHostBitVectorOps)
{
    Rng rng(5);
    const std::uint64_t src = 0x1000;
    CpimInstruction inst;
    inst.src = src;
    inst.dst = 0x400000;
    auto run = [&](CpimOp op, std::size_t m) {
        std::vector<BitVector> rows(m, BitVector(512));
        for (BitVector &row : rows)
            for (std::size_t i = 0; i < 512; ++i)
                row.set(i, rng.nextBool());
        stage(src, rows);
        inst.op = op;
        inst.operands = static_cast<std::uint8_t>(m);
        BitVector result = ctrl.execute(inst);
        EXPECT_EQ(mem.readLine(inst.dst), result);
        return std::pair{rows, result};
    };
    auto fold = [](const std::vector<BitVector> &rows, auto f) {
        return std::accumulate(rows.begin() + 1, rows.end(), rows[0], f);
    };
    for (std::size_t m = 1; m <= 7; ++m) {
        SCOPED_TRACE(m);
        auto [and_rows, and_out] = run(CpimOp::And, m);
        EXPECT_EQ(and_out, fold(and_rows, std::bit_and<>()));
        auto [nand_rows, nand_out] = run(CpimOp::Nand, m);
        EXPECT_EQ(nand_out, ~fold(nand_rows, std::bit_and<>()));
        auto [or_rows, or_out] = run(CpimOp::Or, m);
        EXPECT_EQ(or_out, fold(or_rows, std::bit_or<>()));
        auto [nor_rows, nor_out] = run(CpimOp::Nor, m);
        EXPECT_EQ(nor_out, ~fold(nor_rows, std::bit_or<>()));
        auto [xor_rows, xor_out] = run(CpimOp::Xor, m);
        EXPECT_EQ(xor_out, fold(xor_rows, std::bit_xor<>()));
        auto [xnor_rows, xnor_out] = run(CpimOp::Xnor, m);
        EXPECT_EQ(xnor_out, ~fold(xnor_rows, std::bit_xor<>()));
    }
    // NOT senses its first operand row only, however many are named.
    for (std::size_t m : {1u, 3u}) {
        auto [rows, out] = run(CpimOp::Not, m);
        EXPECT_EQ(out, ~rows[0]) << m;
    }
}

TEST_F(ControllerEndToEnd, PackedAdditionThroughMemory)
{
    // 64 packed 8-bit lanes, five operands.
    std::vector<BitVector> ops;
    std::vector<std::uint64_t> expect(64, 0);
    Rng rng(9);
    for (int i = 0; i < 5; ++i) {
        BitVector row(512);
        for (std::size_t lane = 0; lane < 64; ++lane) {
            std::uint64_t v = rng.next() & 0xFF;
            row.insertUint64(lane * 8, 8, v);
            expect[lane] += v;
        }
        ops.push_back(row);
    }
    std::uint64_t src = 0x2000;
    stage(src, ops);
    CpimInstruction inst;
    inst.op = CpimOp::Add;
    inst.operands = 5;
    inst.blockSize = 8;
    inst.src = src;
    inst.dst = 0x800000;
    auto result = ctrl.execute(inst);
    for (std::size_t lane = 0; lane < 64; ++lane)
        EXPECT_EQ(result.sliceUint64(lane * 8, 8), expect[lane] & 0xFF)
            << "lane " << lane;
}

TEST_F(ControllerEndToEnd, MultiplyThroughMemory)
{
    // blockSize 16 => 8-bit multiplicands in 16-bit lanes.
    BitVector a(512), b(512);
    Rng rng(21);
    std::vector<std::uint64_t> av(32), bv(32);
    for (std::size_t lane = 0; lane < 32; ++lane) {
        av[lane] = rng.next() & 0xFF;
        bv[lane] = rng.next() & 0xFF;
        a.insertUint64(lane * 16, 16, av[lane]);
        b.insertUint64(lane * 16, 16, bv[lane]);
    }
    std::uint64_t src = 0x3000;
    stage(src, {a, b});
    CpimInstruction inst;
    inst.op = CpimOp::Multiply;
    inst.operands = 2;
    inst.blockSize = 16;
    inst.src = src;
    inst.dst = 0xC00000;
    auto result = ctrl.execute(inst);
    for (std::size_t lane = 0; lane < 32; ++lane)
        EXPECT_EQ(result.sliceUint64(lane * 16, 16), av[lane] * bv[lane])
            << "lane " << lane;
}

TEST_F(ControllerEndToEnd, MaxThroughMemory)
{
    std::vector<BitVector> cands;
    std::vector<std::uint64_t> expect(64, 0);
    Rng rng(33);
    for (int i = 0; i < 7; ++i) {
        BitVector row(512);
        for (std::size_t lane = 0; lane < 64; ++lane) {
            std::uint64_t v = rng.next() & 0xFF;
            row.insertUint64(lane * 8, 8, v);
            expect[lane] = std::max(expect[lane], v);
        }
        cands.push_back(row);
    }
    std::uint64_t src = 0x4000;
    stage(src, cands);
    CpimInstruction inst;
    inst.op = CpimOp::Max;
    inst.operands = 7;
    inst.blockSize = 8;
    inst.src = src;
    inst.dst = 0x1000000;
    auto result = ctrl.execute(inst);
    for (std::size_t lane = 0; lane < 64; ++lane)
        EXPECT_EQ(result.sliceUint64(lane * 8, 8), expect[lane])
            << "lane " << lane;
}

TEST_F(ControllerEndToEnd, RejectsInvalidInstruction)
{
    CpimInstruction inst;
    inst.op = CpimOp::Add;
    inst.operands = 7; // > TRD - 2
    inst.src = 0;
    EXPECT_THROW(ctrl.execute(inst), FatalError);
}

TEST_F(ControllerEndToEnd, ChargesMemoryAndPimCosts)
{
    BitVector a(512, true), b(512, true);
    std::uint64_t src = 0x5000;
    stage(src, {a, b});
    mem.resetCosts();
    CpimInstruction inst;
    inst.op = CpimOp::Or;
    inst.operands = 2;
    inst.src = src;
    inst.dst = 0x2000000;
    ctrl.execute(inst);
    // Memory charged: 2 operand reads + 1 result write.
    EXPECT_EQ(mem.ledger().entry(Cost::Read).count, 2u);
    EXPECT_EQ(mem.ledger().entry(Cost::Write).count, 1u);
    // PIM unit charged the TR.
    auto src_loc = mem.addressMap().decode(src);
    auto &unit = mem.pimUnit(src_loc.bank, src_loc.subarray);
    EXPECT_GE(unit.ledger().entry(Cost::Tr).count, 1u);
}

} // namespace
} // namespace coruscant
