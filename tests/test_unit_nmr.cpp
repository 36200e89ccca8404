/**
 * @file
 * CoruscantUnit N-modular-redundancy voting (paper Sec. III-F) and
 * fault-injection behaviour.
 */

#include <gtest/gtest.h>

#include "core/coruscant_unit.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

DeviceParams
smallParams(std::size_t trd, std::size_t wires = 32)
{
    DeviceParams p = DeviceParams::withTrd(trd);
    p.wiresPerDbc = wires;
    return p;
}

BitVector
randomRow(Rng &rng, std::size_t width)
{
    BitVector row(width);
    for (std::size_t w = 0; w < width; ++w)
        row.set(w, rng.nextBool());
    return row;
}

class NmrSweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(NmrSweep, MinorityCorruptionIsOutvoted)
{
    std::size_t n = GetParam();
    CoruscantUnit unit(smallParams(7, 32));
    Rng rng(n);
    for (int iter = 0; iter < 20; ++iter) {
        BitVector truth = randomRow(rng, 32);
        std::vector<BitVector> replicas(n, truth);
        // Corrupt a strict minority of replicas at random bits.
        std::size_t bad = (n - 1) / 2;
        for (std::size_t i = 0; i < bad; ++i) {
            std::size_t bit = rng.nextBelow(32);
            replicas[i].set(bit, !replicas[i].get(bit));
        }
        EXPECT_EQ(unit.nmrVote(replicas), truth) << "N = " << n;
    }
}

TEST_P(NmrSweep, MajorityCorruptionWins)
{
    std::size_t n = GetParam();
    CoruscantUnit unit(smallParams(7, 32));
    BitVector truth(32, false);
    std::vector<BitVector> replicas(n, truth);
    std::size_t flips = (n + 1) / 2; // majority faulty at bit 3
    for (std::size_t i = 0; i < flips; ++i)
        replicas[i].set(3, true);
    auto vote = unit.nmrVote(replicas);
    EXPECT_TRUE(vote.get(3)); // the uncorrectable case
    EXPECT_EQ(vote.popcount(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllRedundancyLevels, NmrSweep,
                         ::testing::Values(3u, 5u, 7u),
                         [](const ::testing::TestParamInfo<std::size_t> &i) {
                             std::string name = "N";
                             name += std::to_string(i.param);
                             return name;
                         });

TEST(UnitNmr, WorksAtSmallTrd)
{
    // TRD = 3 supports triple-modular redundancy via the thermometer
    // threshold.
    CoruscantUnit unit(smallParams(3, 16));
    BitVector truth = BitVector::fromUint64(16, 0xA5A5);
    std::vector<BitVector> replicas(3, truth);
    replicas[0].set(0, !truth.get(0));
    EXPECT_EQ(unit.nmrVote(replicas), truth);
    // N = 5 does not fit in a TRD = 3 window.
    std::vector<BitVector> five(5, truth);
    EXPECT_THROW(unit.nmrVote(five), FatalError);
}

TEST(UnitNmr, RejectsEvenN)
{
    CoruscantUnit unit(smallParams(7, 16));
    std::vector<BitVector> four(4, BitVector(16));
    EXPECT_THROW(unit.nmrVote(four), FatalError);
}

TEST(UnitNmr, VoteCostIsConstant)
{
    CoruscantUnit unit(smallParams(7, 16));
    std::vector<BitVector> replicas(3, BitVector(16, true));
    unit.resetCosts();
    unit.nmrVote(replicas);
    auto c3 = unit.ledger().cycles();
    std::vector<BitVector> seven(7, BitVector(16, true));
    unit.resetCosts();
    unit.nmrVote(seven);
    EXPECT_EQ(c3, unit.ledger().cycles());
    EXPECT_EQ(c3, 3u); // align + TR + result write
}

TEST(UnitNmr, NmrExecuteMasksInjectedTrFaults)
{
    // With an artificially high TR fault rate, a single bulk AND is
    // frequently wrong, but TMR over it recovers the correct result
    // most of the time.  (Statistical, with a fixed seed.)
    const double p_fault = 0.02;
    DeviceParams p = smallParams(7, 64);
    auto a = BitVector::fromUint64(64, 0x123456789ABCDEF0ULL);
    auto b = BitVector(64, true);
    BitVector expected = a; // AND with all-ones

    int plain_errors = 0, tmr_errors = 0;
    CoruscantUnit plain(p, p_fault, 11);
    CoruscantUnit tmr(p, p_fault, 12);
    for (int iter = 0; iter < 200; ++iter) {
        if (plain.bulkBitwise(BulkOp::And, {a, b}) != expected)
            ++plain_errors;
        auto voted = tmr.nmrExecute(3, [&] {
            return tmr.bulkBitwise(BulkOp::And, {a, b});
        });
        if (voted != expected)
            ++tmr_errors;
    }
    EXPECT_GT(plain_errors, 0);
    EXPECT_LT(tmr_errors, plain_errors / 4);
}

} // namespace
} // namespace coruscant
