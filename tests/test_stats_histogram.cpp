/**
 * @file
 * LatencyHistogram: bucketing accuracy, quantile bounds, and the
 * merge identity the sharded service engine depends on.  CostLedger:
 * copies, moves and resets keep ledgers apart, and the summary lists
 * the charged categories in name order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace coruscant {
namespace {

TEST(LatencyHistogram, EmptyIsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.p999(), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact)
{
    // Below 2^kLinearBits every value has its own bucket, so
    // percentiles are exact order statistics.
    LatencyHistogram h;
    for (std::uint64_t v = 0; v < 64; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 64u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 63u);
    EXPECT_EQ(h.percentile(0.5), 31u);  // ceil(.5*64)=32nd value
    EXPECT_EQ(h.percentile(1.0), 63u);
    EXPECT_DOUBLE_EQ(h.mean(), 31.5);
}

TEST(LatencyHistogram, SingleSampleReportsItself)
{
    // Regression: percentile() used to return the bucket's *upper*
    // edge, so one sample of 64 (the first two-wide bucket) reported
    // 65.  Results are now clamped to the observed [min, max].
    LatencyHistogram h;
    h.record(64);
    EXPECT_EQ(h.min(), 64u);
    EXPECT_EQ(h.max(), 64u);
    for (double q : {0.0, 0.5, 0.99, 1.0})
        EXPECT_EQ(h.percentile(q), 64u) << "q=" << q;

    // Same at a coarser bucket: one sample, exact answer.
    LatencyHistogram big;
    big.record(1000000);
    EXPECT_EQ(big.percentile(0.5), 1000000u);
    EXPECT_EQ(big.percentile(0.999), 1000000u);
}

TEST(LatencyHistogram, ClampNeverUndershootsMin)
{
    // All mass in high buckets: low quantiles clamp up to min, never
    // below the smallest recorded value.
    LatencyHistogram h;
    h.record(1000);
    h.record(1000000);
    EXPECT_GE(h.percentile(0.0), 1000u);
    EXPECT_LE(h.percentile(1.0), 1000000u);
}

TEST(LatencyHistogram, QuantilesWithinRelativeErrorBound)
{
    // Log bucketing guarantees the reported quantile is an upper
    // bound within one sub-bucket (~1/32) of the true order statistic.
    Rng rng(7);
    std::vector<std::uint64_t> values;
    LatencyHistogram h;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = rng.nextBelow(1000000);
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());
    for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
        std::size_t idx = static_cast<std::size_t>(
            std::max<double>(0.0, std::ceil(q * values.size()) - 1));
        double truth = static_cast<double>(values[idx]);
        double got = static_cast<double>(h.percentile(q));
        EXPECT_GE(got, truth) << "q=" << q;
        EXPECT_LE(got, truth * (1.0 + 1.0 / 32 + 1e-9) + 1.0)
            << "q=" << q;
    }
    EXPECT_EQ(h.percentile(1.0), values.back());
}

TEST(LatencyHistogram, MergeMatchesSingleHistogram)
{
    Rng rng(13);
    LatencyHistogram whole, a, b, c;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t v = rng.next() >> 40;
        whole.record(v);
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
    }
    // Merge in an arbitrary grouping: results must be identical.
    LatencyHistogram merged;
    merged.merge(c);
    merged.merge(a);
    merged.merge(b);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.max(), whole.max());
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.mean(), whole.mean());
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(merged.percentile(q), whole.percentile(q)) << q;
}

TEST(LatencyHistogram, WeightedRecord)
{
    LatencyHistogram h, w;
    for (int i = 0; i < 10; ++i)
        h.record(100);
    w.record(100, 10);
    EXPECT_EQ(h.count(), w.count());
    EXPECT_EQ(h.percentile(0.5), w.percentile(0.5));
    EXPECT_DOUBLE_EQ(h.mean(), w.mean());
    w.record(100, 0); // no-op
    EXPECT_EQ(w.count(), 10u);
}

TEST(LatencyHistogram, QuantilesAreMonotone)
{
    Rng rng(99);
    LatencyHistogram h;
    for (int i = 0; i < 1000; ++i)
        h.record(1 + rng.nextBelow(100000));
    std::uint64_t last = 0;
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
        std::uint64_t v = h.percentile(q);
        EXPECT_GE(v, last);
        last = v;
    }
    EXPECT_EQ(last, h.max());
}

TEST(LatencyHistogram, HugeValuesDoNotOverflow)
{
    LatencyHistogram h;
    h.record(~0ull);
    h.record(1ull << 62);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), ~0ull);
    EXPECT_EQ(h.percentile(1.0), ~0ull);
    EXPECT_GE(h.percentile(0.25), 1ull << 62);
}

TEST(CostLedger, CopiesMovesAndResetsKeepLedgersApart)
{
    CostLedger a;
    a.charge(Cost::Tr, 1, 1.0);
    a.charge(Cost::Write, 2, 2.0);

    CostLedger b = a; // copy: b's charges must not land in a
    b.charge(Cost::Tr, 10, 10.0);
    EXPECT_EQ(a.entry(Cost::Tr).cycles, 1u);
    EXPECT_EQ(b.entry(Cost::Tr).cycles, 11u);

    CostLedger c;
    c.charge(Cost::Tr, 5, 5.0);
    c = a; // copy-assign over a ledger with cached entries
    c.charge(Cost::Tr, 100, 0.0);
    EXPECT_EQ(a.entry(Cost::Tr).cycles, 1u);
    EXPECT_EQ(c.entry(Cost::Tr).cycles, 101u);

    CostLedger d = std::move(c);
    d.charge(Cost::Tr, 1000, 0.0);
    EXPECT_EQ(d.entry(Cost::Tr).cycles, 1101u);
    c = CostLedger(); // the moved-from ledger is reusable
    c.charge(Cost::Tr, 7, 0.0);
    EXPECT_EQ(c.entry(Cost::Tr).cycles, 7u);
    EXPECT_EQ(d.entry(Cost::Tr).cycles, 1101u);

    CostLedger e;
    e.charge(Cost::Write, 3, 0.0);
    e = std::move(d);
    e.charge(Cost::Write, 4, 0.0);
    EXPECT_EQ(e.entry(Cost::Write).cycles, 6u);

    a.reset();
    EXPECT_EQ(a.entry(Cost::Tr).count, 0u);
    EXPECT_EQ(a.entry(Cost::Write).count, 0u);
    a.charge(Cost::Tr, 2, 0.0);
    EXPECT_EQ(a.entry(Cost::Tr).cycles, 2u);
    EXPECT_EQ(a.entry(Cost::Tr).count, 1u);
    EXPECT_EQ(a.cycles(), 2u);
}

TEST(CostLedger, SummaryListsChargedCategoriesInNameOrder)
{
    // Enum order is name order, so summary() prints the categories
    // sorted by name.
    for (std::size_t i = 1; i < kCostCategories; ++i)
        EXPECT_LT(std::strcmp(costName(static_cast<Cost>(i - 1)),
                              costName(static_cast<Cost>(i))),
                  0)
            << costName(static_cast<Cost>(i));

    // Only charged categories are listed, a zero-cycle charge too.
    CostLedger l;
    l.charge(Cost::Write, 2, 1.5);
    l.charge(Cost::Ecc, 0, 0.0);
    l.charge(Cost::Write, 3, 0.5);
    EXPECT_EQ(l.summary(), "total: 5 cycles, 2 pJ\n"
                           "  ecc: 1 ops, 0 cycles, 0 pJ\n"
                           "  write: 2 ops, 5 cycles, 2 pJ\n");
}

} // namespace
} // namespace coruscant
