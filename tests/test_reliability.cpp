/**
 * @file
 * Analytical reliability model (paper Table V) and Monte-Carlo
 * cross-validation through the fault injector.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "reliability/error_model.hpp"
#include "util/logging.hpp"
#include "reliability/fault_campaign.hpp"

namespace coruscant {
namespace {

TEST(ErrorModel, TableVPerBitRows)
{
    // AND, OR, C' (per bit): 3.3e-7 / 2.0e-7 / 1.4e-7 at C3/C5/C7.
    EXPECT_NEAR(TrErrorModel(3).perBitOrAndSuperCarry(), 3.33e-7,
                0.05e-7);
    EXPECT_NEAR(TrErrorModel(5).perBitOrAndSuperCarry(), 2.0e-7,
                0.05e-7);
    EXPECT_NEAR(TrErrorModel(7).perBitOrAndSuperCarry(), 1.43e-7,
                0.05e-7);
    // XOR: 1e-6 everywhere.
    for (std::size_t trd : {3u, 5u, 7u})
        EXPECT_DOUBLE_EQ(TrErrorModel(trd).perBitXor(), 1e-6);
    // C: 3.3e-7 / 4.0e-7 / 4.3e-7.
    EXPECT_NEAR(TrErrorModel(3).perBitCarry(), 3.33e-7, 0.05e-7);
    EXPECT_NEAR(TrErrorModel(5).perBitCarry(), 4.0e-7, 0.05e-7);
    EXPECT_NEAR(TrErrorModel(7).perBitCarry(), 4.29e-7, 0.05e-7);
}

TEST(ErrorModel, TableVAddRow)
{
    // add (per 8 bits): 8e-6 for every TRD.
    for (std::size_t trd : {3u, 5u, 7u})
        EXPECT_NEAR(TrErrorModel(trd).addError(8), 8e-6, 1e-12);
}

TEST(ErrorModel, MultiplyOrderingMatchesTableV)
{
    // Paper: 4.1e-4 / 2.1e-4 / 7.6e-5 at C3/C5/C7 — the smaller the
    // TRD, the more reduction rounds and thus TR opportunities.  The
    // emergent structural counts must preserve the ordering and rough
    // magnitudes.
    double m3 = TrErrorModel(3).multiplyError(8);
    double m5 = TrErrorModel(5).multiplyError(8);
    double m7 = TrErrorModel(7).multiplyError(8);
    EXPECT_GT(m3, m5);
    EXPECT_GT(m5, m7);
    EXPECT_NEAR(m7, 7.6e-5, 5e-5);
    EXPECT_GT(m3 / m7, 2.5);
}

TEST(ErrorModel, NmrImprovesByOrdersOfMagnitude)
{
    TrErrorModel m(7);
    double raw = m.addError(8);
    double tmr = m.nmrAddError(3, 8);
    double n5 = m.nmrAddError(5, 8);
    double n7 = m.nmrAddError(7, 8);
    // Paper: TMR add ~5e-12 (6 orders below 8e-6); N = 5 reaches
    // ~1e-17 and N = 7 beyond.
    EXPECT_LT(tmr, raw * 1e-4);
    EXPECT_LT(n5, tmr * 1e-3);
    EXPECT_LT(n7, n5 * 1e-2);
    EXPECT_NEAR(std::log10(tmr), std::log10(5.6e-12), 1.5);
}

TEST(ErrorModel, NmrMultiplyReachesPaperBallpark)
{
    // Paper: multiply with TMR ~5e-12; N = 5 ~5e-18.
    TrErrorModel m(7);
    EXPECT_LT(m.nmrMultiplyError(3, 8), 1e-9);
    EXPECT_LT(m.nmrMultiplyError(5, 8), 1e-14);
}

TEST(ErrorModel, RejectsBadArguments)
{
    EXPECT_THROW(TrErrorModel(0), FatalError);
    EXPECT_THROW(TrErrorModel(7, 2.0), FatalError);
    EXPECT_THROW(TrErrorModel(7).nmrError(1e-6, 4, 8), FatalError);
}

// ---------------------------------------------------------------------
// Monte-Carlo cross-validation at elevated fault rates.
// ---------------------------------------------------------------------

TEST(FaultCampaign, AddEmpiricalMatchesAnalytical)
{
    auto res = FaultCampaign::addCampaign(7, 8, 1e-3, 20000, 5);
    EXPECT_GT(res.injectedFaults, 0u);
    // Analytical first-order rate: 8e-3.
    EXPECT_NEAR(res.empiricalRate(), res.analyticalRate,
                res.analyticalRate * 0.5);
}

TEST(FaultCampaign, XorPerBitMatchesAnalytical)
{
    auto res =
        FaultCampaign::bulkCampaign(BulkOp::Xor, 7, 4, 5e-3, 4000, 9);
    EXPECT_NEAR(res.empiricalRate(), res.analyticalRate,
                res.analyticalRate * 0.5);
}

TEST(FaultCampaign, OrPerBitLowerThanXor)
{
    auto or_res =
        FaultCampaign::bulkCampaign(BulkOp::Or, 7, 4, 5e-3, 4000, 9);
    auto xor_res =
        FaultCampaign::bulkCampaign(BulkOp::Xor, 7, 4, 5e-3, 4000, 9);
    // OR only fails at the 0/1 boundary; XOR fails on every fault.
    EXPECT_LT(or_res.empiricalRate(), xor_res.empiricalRate() / 2);
}

TEST(FaultCampaign, MultiplyWorseThanAdd)
{
    auto mul = FaultCampaign::multiplyCampaign(7, 8, 1e-4, 5000, 3);
    auto add = FaultCampaign::addCampaign(7, 8, 1e-4, 5000, 3);
    EXPECT_GT(mul.empiricalRate(), add.empiricalRate());
}

} // namespace
} // namespace coruscant
