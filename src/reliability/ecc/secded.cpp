#include "reliability/ecc/secded.hpp"

#include <array>
#include <bit>
#include <cassert>

#include "util/logging.hpp"

namespace coruscant {

namespace {

/** Hamming check bits of a maxDataBits-wide word. */
constexpr std::size_t maxHammingBits = 7;

/**
 * coverMask[k]: the data bits whose codeword position has bit k set.
 * Data bit i sits at the i-th position (1-based) that is not a power
 * of two, whatever the word width, so one table serves every code.
 */
constexpr std::array<std::uint64_t, maxHammingBits> coverMask = [] {
    std::array<std::uint64_t, maxHammingBits> mask{};
    std::size_t i = 0;
    for (std::size_t pos = 1; i < SecdedCode::maxDataBits; ++pos) {
        if (std::has_single_bit(pos))
            continue; // a check-bit position
        for (std::size_t k = 0; k < maxHammingBits; ++k)
            if ((pos >> k) & 1)
                mask[k] |= std::uint64_t{1} << i;
        ++i;
    }
    return mask;
}();

/**
 * Parity of the set bits of @p v.  The builtin is inline on x86-64
 * (two xor folds and the parity flag); a std::popcount there, with no
 * popcount instruction, is a libgcc call unless the compiler spots
 * the parity in it.
 */
constexpr std::uint64_t
parity(std::uint64_t v)
{
    return static_cast<std::uint64_t>(__builtin_parityll(v));
}

} // namespace

SecdedCode::SecdedCode(std::size_t data_bits) : dataBits_(data_bits)
{
    fatalIf(data_bits == 0 || data_bits > maxDataBits,
            "SECDED word width ", data_bits, " outside [1, ",
            maxDataBits, "]");
    // Smallest r with 2^r >= data + r + 1 (positions 1..data+r, the
    // power-of-two ones reserved for checks).
    hammingBits_ = 0;
    while ((std::size_t{1} << hammingBits_) <
           data_bits + hammingBits_ + 1)
        ++hammingBits_;
}

std::uint64_t
SecdedCode::checkWord(std::uint64_t data) const
{
    assert(dataBits_ == 64 || (data >> dataBits_) == 0);
    // Check bit 2^k is the parity of the data positions with bit k
    // set, which zeroes the fault-free syndrome.
    std::uint64_t check = 0;
    for (std::size_t k = 0; k < hammingBits_; ++k)
        check |= parity(data & coverMask[k]) << k;
    // Overall parity covers data + hamming checks + itself -> even.
    return check | (parity(data) ^ parity(check)) << hammingBits_;
}

SecdedCode::Decoded
SecdedCode::decodeWord(std::uint64_t &data, std::uint64_t &check) const
{
    std::size_t syndrome = 0;
    for (std::size_t k = 0; k < hammingBits_; ++k)
        syndrome |= (parity(data & coverMask[k]) ^ ((check >> k) & 1)) << k;
    bool parityOdd = (parity(data) ^ parity(check)) != 0;

    Decoded out;
    if (syndrome == 0 && !parityOdd)
        return out; // clean

    if (!parityOdd) {
        // Non-zero syndrome with even overall parity: an even number
        // of flips (>= 2).  Report, never touch the word.
        out.status = EccStatus::Uncorrectable;
        return out;
    }
    if (syndrome == 0) {
        // Only the overall parity bit flipped.
        check ^= std::uint64_t{1} << hammingBits_;
        out.status = EccStatus::Corrected;
        out.correctedBit = dataBits_ + hammingBits_;
        return out;
    }
    if (syndrome > dataBits_ + hammingBits_) {
        // Syndrome points outside the codeword: only reachable with
        // multiple flips whose positions XOR past the end.
        out.status = EccStatus::Uncorrectable;
        return out;
    }
    out.status = EccStatus::Corrected;
    // syndrome != 0 here, so clearing its lowest set bit tests for a
    // power of two (std::has_single_bit is a libgcc popcount call).
    if ((syndrome & (syndrome - 1)) == 0) {
        // Position 2^k holds check bit k.
        std::size_t k = static_cast<std::size_t>(std::countr_zero(syndrome));
        check ^= std::uint64_t{1} << k;
        out.correctedBit = dataBits_ + k;
    } else {
        // Position p is preceded by bit_width(p) check positions.
        std::size_t i =
            syndrome - 1 - static_cast<std::size_t>(std::bit_width(syndrome));
        data ^= std::uint64_t{1} << i;
        out.correctedBit = i;
    }
    return out;
}

LineSecded::LineSecded(std::size_t line_bits, std::size_t word_bits)
    : lineBits_(line_bits), code_(word_bits)
{
    // code_ has rejected a word width outside [1, maxDataBits].
    fatalIf(line_bits % word_bits != 0, "ECC word width ", word_bits,
            " does not divide the ", line_bits,
            "-bit line; the remainder would be unprotected");
}

void
LineSecded::encode(BitVector &row) const
{
    assert(row.size() >= lineBits_ + checkLanes());
    const std::size_t wb = wordBits();
    const std::size_t cb = code_.checkBits();
    for (std::size_t w = 0; w < words(); ++w)
        row.insertUint64(lineBits_ + w * cb, cb,
                         code_.checkWord(row.sliceUint64(w * wb, wb)));
}

LineSecded::Result
LineSecded::correct(BitVector &row) const
{
    assert(row.size() >= lineBits_ + checkLanes());
    Result res;
    const std::size_t wb = wordBits();
    const std::size_t cb = code_.checkBits();
    for (std::size_t w = 0; w < words(); ++w) {
        std::uint64_t word = row.sliceUint64(w * wb, wb);
        std::uint64_t check = row.sliceUint64(lineBits_ + w * cb, cb);
        SecdedCode::Decoded d = code_.decodeWord(word, check);
        if (d.status == EccStatus::Clean)
            continue;
        if (d.status == EccStatus::Uncorrectable) {
            ++res.uncorrectableWords;
            continue;
        }
        ++res.correctedWords;
        if (d.correctedBit < wb)
            row.insertUint64(w * wb, wb, word);
        else
            row.insertUint64(lineBits_ + w * cb, cb, check);
    }
    return res;
}

} // namespace coruscant
