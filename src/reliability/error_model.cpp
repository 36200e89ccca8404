#include "reliability/error_model.hpp"

#include <cmath>

#include "dwm/device_params.hpp"
#include "util/logging.hpp"

namespace coruscant {

namespace {

double
binomial(std::size_t n, std::size_t k)
{
    double r = 1;
    for (std::size_t i = 0; i < k; ++i)
        r = r * static_cast<double>(n - i) / static_cast<double>(i + 1);
    return r;
}

} // namespace

TrErrorModel::TrErrorModel(std::size_t trd, double p_fault)
    : trd_(trd), p(p_fault)
{
    DeviceParams::checkPimTrd(trd);
    fatalIf(p_fault < 0 || p_fault > 1, "fault rate must be in [0, 1]");
}

double
TrErrorModel::perBitOrAndSuperCarry() const
{
    return p / static_cast<double>(trd_);
}

double
TrErrorModel::perBitXor() const
{
    return p;
}

double
TrErrorModel::perBitCarry() const
{
    auto flip_pairs = static_cast<double>((trd_ - 1) / 2);
    return flip_pairs * p / static_cast<double>(trd_);
}

double
TrErrorModel::addError(std::size_t bits) const
{
    // One TR per bit position; any fault corrupts the sum (directly
    // via S, or downstream via C/C').  First order in p.
    return static_cast<double>(bits) * p;
}

std::size_t
TrErrorModel::multiplyTrOpportunities(std::size_t bits) const
{
    // Optimized CSA multiply of k-bit operands (2k-bit product):
    // every reduction round transverse-reads all 2k product wires;
    // the final addition reads one wire per product bit.
    std::size_t product_bits = 2 * bits;
    const DeviceParams dev{.trd = trd_};
    std::size_t arity = dev.maxAddOperands();
    std::size_t consumed_per_round = dev.csaInputs() - dev.csaOutputs();
    std::size_t rows = bits; // partial products
    std::size_t rounds = 0;
    while (rows > arity) {
        rows -= consumed_per_round;
        ++rounds;
    }
    return rounds * product_bits + product_bits;
}

double
TrErrorModel::multiplyError(std::size_t bits) const
{
    return static_cast<double>(multiplyTrOpportunities(bits)) * p;
}

double
TrErrorModel::nmrError(double per_bit_error, std::size_t n,
                       std::size_t bits) const
{
    DeviceParams::checkVote(n, trd_);
    std::size_t k = (n + 1) / 2; // replicas that must agree wrongly
    // All k failures must hit the same bit with the same polarity
    // (1/2 per extra replica), and the agreeing polarity must be the
    // one that swings the vote (another 1/2) — the paper's "two
    // faults in the same bit position" condition.
    double same_polarity = std::pow(0.5, static_cast<double>(k));
    double majority = binomial(n, k)
                      * std::pow(per_bit_error,
                                 static_cast<double>(k))
                      * same_polarity;
    // Or: k-1 replica failures plus a fault in sensing the C' vote.
    double vote_fault = binomial(n, k - 1)
                        * std::pow(per_bit_error,
                                   static_cast<double>(k - 1))
                        * std::pow(0.5, static_cast<double>(k - 1))
                        * perBitOrAndSuperCarry();
    return static_cast<double>(bits) * (majority + vote_fault);
}

double
TrErrorModel::nmrAddError(std::size_t n, std::size_t bits) const
{
    return nmrError(addError(bits) / static_cast<double>(bits), n,
                    bits);
}

double
TrErrorModel::nmrMultiplyError(std::size_t n, std::size_t bits) const
{
    // The paper votes between reduction steps (Sec. V-F), so errors do
    // not accumulate across the multiply: each protected step sees the
    // raw per-TR rate, over the 2k product bits.
    return nmrError(p, n, 2 * bits);
}

} // namespace coruscant
