/**
 * @file
 * Unit tests for the sense-amplifier thermometer code and PIM block.
 */

#include <gtest/gtest.h>

#include "oracle/pim_decode.hpp"

namespace coruscant {
namespace {

TEST(SenseLevels, ThermometerRoundTrip)
{
    for (std::size_t c = 0; c <= 7; ++c) {
        auto s = SenseLevels::fromCount(c);
        EXPECT_EQ(s.count(), c);
        for (std::size_t j = 1; j <= 7; ++j)
            EXPECT_EQ(s.geq[j - 1], c >= j);
    }
}

TEST(PimLogic, SumCarrySuperCarryDecomposeTheCount)
{
    // Paper Fig. 4(b): t = S + 2C + 4C' for t in 0..7.
    for (std::size_t t = 0; t <= 7; ++t) {
        auto o = evalPimLogic(t, 7);
        std::size_t recomposed = (o.sum ? 1 : 0) + (o.carry ? 2 : 0) +
                                 (o.superCarry ? 4 : 0);
        EXPECT_EQ(recomposed, t);
    }
}

TEST(PimLogic, CarryMatchesPaperDescription)
{
    // "C ... is a function of TR levels above two and not above four
    // or above six": true for t in {2,3,6,7}.
    for (std::size_t t = 0; t <= 7; ++t) {
        bool expected = (t >= 2 && t < 4) || t >= 6;
        EXPECT_EQ(evalPimLogic(t, 7).carry, expected) << "t = " << t;
    }
}

TEST(PimLogic, OrAndXorSemantics)
{
    for (std::size_t window : {3u, 5u, 7u}) {
        for (std::size_t t = 0; t <= window; ++t) {
            auto o = evalPimLogic(t, window);
            EXPECT_EQ(o.orOut, t >= 1);
            EXPECT_EQ(o.andOut, t == window);
            EXPECT_EQ(o.xorOut, t % 2 == 1);
            EXPECT_EQ(o.sum, o.xorOut);
        }
    }
}

TEST(PimLogic, SelectBulkOpCoversInversions)
{
    auto o = evalPimLogic(3, 7); // some ones, not all
    EXPECT_TRUE(selectBulkOp(BulkOp::Or, o));
    EXPECT_FALSE(selectBulkOp(BulkOp::Nor, o));
    EXPECT_FALSE(selectBulkOp(BulkOp::And, o));
    EXPECT_TRUE(selectBulkOp(BulkOp::Nand, o));
    EXPECT_TRUE(selectBulkOp(BulkOp::Xor, o));
    EXPECT_FALSE(selectBulkOp(BulkOp::Xnor, o));
    EXPECT_FALSE(selectBulkOp(BulkOp::Maj, o)); // 3 < 4
    EXPECT_TRUE(selectBulkOp(BulkOp::Maj, evalPimLogic(4, 7)));
}

TEST(PimLogic, NotIsInvertedSingleOperand)
{
    // Zero-padded single operand: count is the operand bit itself.
    EXPECT_TRUE(selectBulkOp(BulkOp::Not, evalPimLogic(0, 7)));
    EXPECT_FALSE(selectBulkOp(BulkOp::Not, evalPimLogic(1, 7)));
}

TEST(PimLogic, BulkOpNames)
{
    EXPECT_STREQ(bulkOpName(BulkOp::And), "AND");
    EXPECT_STREQ(bulkOpName(BulkOp::Xnor), "XNOR");
    EXPECT_STREQ(bulkOpName(BulkOp::Maj), "MAJ");
}

} // namespace
} // namespace coruscant
