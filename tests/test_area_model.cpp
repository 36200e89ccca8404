/**
 * @file
 * Area model tests: paper Table I overheads and Table III PE areas.
 */

#include <gtest/gtest.h>

#include "dwm/area_model.hpp"

namespace coruscant {
namespace {

TEST(AreaModel, TableIOverheads)
{
    AreaModel model;
    EXPECT_NEAR(model.memoryOverheadFraction(PimFeatureSet::add2()),
                0.037, 0.001);
    EXPECT_NEAR(model.memoryOverheadFraction(PimFeatureSet::add5()),
                0.092, 0.001);
    EXPECT_NEAR(model.memoryOverheadFraction(PimFeatureSet::mulAdd5()),
                0.094, 0.001);
    EXPECT_NEAR(
        model.memoryOverheadFraction(PimFeatureSet::mulAdd5Bbo()),
        0.100, 0.001);
}

TEST(AreaModel, OverheadMonotoneInFeatures)
{
    AreaModel model;
    double add2 = model.memoryOverheadFraction(PimFeatureSet::add2());
    double add5 = model.memoryOverheadFraction(PimFeatureSet::add5());
    double mul = model.memoryOverheadFraction(PimFeatureSet::mulAdd5());
    double bbo =
        model.memoryOverheadFraction(PimFeatureSet::mulAdd5Bbo());
    EXPECT_LT(add2, add5);
    EXPECT_LT(add5, mul);
    EXPECT_LT(mul, bbo);
}

TEST(AreaModel, TableIIIPeAreas)
{
    // CORUSCANT column of Table III.
    EXPECT_NEAR(AreaModel::peAreaUm2(3, 2, false), 2.16, 1e-9);
    EXPECT_NEAR(AreaModel::peAreaUm2(7, 2, false), 3.60, 1e-9);
    EXPECT_NEAR(AreaModel::peAreaUm2(7, 5, false), 4.94, 1e-9);
    EXPECT_NEAR(AreaModel::peAreaUm2(3, 2, true), 3.80, 1e-9);
    EXPECT_NEAR(AreaModel::peAreaUm2(7, 5, true), 5.07, 1e-9);
}

TEST(AreaModel, PaperOverheadDomains)
{
    AreaModel model;
    EXPECT_EQ(model.baselineOverheadDomains(), 16u);
    EXPECT_EQ(model.pimOverheadDomains(7), 25u);
    EXPECT_EQ(model.pimOverheadDomains(3), 29u);
}

TEST(AreaModel, CellAreaIsTwoFSquared)
{
    AreaModel model;
    EXPECT_NEAR(model.cellAreaUm2(), 2 * 0.032 * 0.032, 1e-12);
}

TEST(AreaModel, SmallerTrdHalvesOverhead)
{
    // Paper conclusion: "Using a smaller TRD, this area can be cut in
    // less than half."
    AreaModel model;
    double full =
        model.memoryOverheadFraction(PimFeatureSet::mulAdd5Bbo());
    double small = model.memoryOverheadFraction(PimFeatureSet::add2());
    EXPECT_LT(small, full / 2);
}

} // namespace
} // namespace coruscant
