/**
 * @file
 * Hamming SECDED (single-error-correct, double-error-detect) codes
 * over DWM lines.
 *
 * The alignment guard protects the *position* of a DBC's domains;
 * this module protects their *contents*: an extended Hamming code per
 * data word, with the check bits stored in dedicated nanowires of the
 * same DBC, so a line read returns data and check lanes in one port
 * access and the decoder can correct any single flipped bit per word
 * and flag (never miscorrect) any double flip.
 *
 * LineSecded codes one stored DBC row in place.  The row holds L data
 * bits in words of wb bits, word w at [w*wb, wb); then each word's cb
 * check bits, word w's at [L + w*cb, cb); then whatever else the row
 * carries (the memory's alignment-guard wire), which the codec never
 * touches.
 *
 * Code construction (standard extended Hamming):
 *  - codeword positions are numbered 1..m; positions that are powers
 *    of two hold check bits, the rest hold data bits in order;
 *  - check bit at position 2^k is the parity of all positions whose
 *    index has bit k set;
 *  - one extra overall-parity bit (position 0) covers the whole
 *    codeword and turns SEC into SECDED.
 *
 * A data bit's position does not depend on the word width (data bit
 * i sits at the i-th position that is not a power of two), so the
 * positions covered by check bit k, restricted to data bits, form one
 * fixed mask per k over a 64-bit word.  Check bits and syndromes are
 * then parities of popcount(word & mask_k), and words up to
 * maxDataBits wide are coded with no per-code tables.
 *
 * Decoding: syndrome S = XOR of the indices of all set positions,
 * overall parity P of the stored codeword.
 *   S == 0, P even  -> clean
 *   S == 0, P odd   -> the overall parity bit itself flipped (correct)
 *   S != 0, P odd   -> single-bit error at position S (correct)
 *   S != 0, P even  -> double-bit error (detected uncorrectable)
 * A syndrome pointing past the codeword length is likewise a detected
 * uncorrectable pattern (only reachable with >= 2 flips).
 *
 * ECC deliberately does NOT cover in-situ PIM: transverse reads sense
 * raw operand lanes across words, so check bits are meaningless to a
 * TR — PIM results are protected by the paper's NMR voting instead
 * (reliability/error_model, CoruscantUnit::nmrVote).  See
 * EXPERIMENTS.md "Data-fault tolerance and ECC".
 */

#ifndef CORUSCANT_RELIABILITY_ECC_SECDED_HPP
#define CORUSCANT_RELIABILITY_ECC_SECDED_HPP

#include <cstdint>

#include "util/bit_vector.hpp"

namespace coruscant {

/** How a SECDED decode resolved. */
enum class EccStatus : std::uint8_t
{
    Clean = 0,     ///< syndrome zero, parity even
    Corrected,     ///< single-bit error located and flipped back
    Uncorrectable, ///< double-bit (or detectable multi-bit) pattern
};

/** Extended Hamming code over one data word. */
class SecdedCode
{
  public:
    /** Widest data word the check-bit masks cover. */
    static constexpr std::size_t maxDataBits = 64;

    /** Build the code for @p data_bits-wide words, 1..maxDataBits. */
    explicit SecdedCode(std::size_t data_bits);

    std::size_t dataBits() const { return dataBits_; }

    /** Hamming check bits plus the overall parity bit. */
    std::size_t checkBits() const { return hammingBits_ + 1; }

    /** Stored codeword width: data + check. */
    std::size_t codeBits() const { return dataBits_ + checkBits(); }

    /**
     * The checkBits() check bits of a packed word: @p data holds
     * dataBits() bits (bit i = data bit i, higher bits zero); bit k of
     * the result is check bit k.  A codeword is [data | hamming checks
     * | overall parity]: data bits keep their positions, so the check
     * bits can live in separate nanowires.
     */
    std::uint64_t checkWord(std::uint64_t data) const;

    /** Outcome of decoding one codeword. */
    struct Decoded
    {
        EccStatus status = EccStatus::Clean;
        /**
         * Flat codeword index of the corrected bit ([0, dataBits) =
         * data, beyond = check lanes); only valid when status is
         * Corrected.
         */
        std::size_t correctedBit = 0;
    };

    /**
     * Decode in place: packed @p data and @p check words, laid out as
     * for checkWord(), as read from the array.  A single-bit error is
     * flipped back (in whichever of the two words it lies); a
     * double-bit error leaves both untouched and reports Uncorrectable
     * — SECDED never miscorrects a double error.
     */
    Decoded decodeWord(std::uint64_t &data, std::uint64_t &check) const;

  private:
    std::size_t dataBits_;
    std::size_t hammingBits_;
};

/**
 * SECDED over a whole DWM line: the line is split into equal words,
 * each independently protected, and the concatenated check bits form
 * the extra "check lanes" stored on the row after the data nanowires.
 *
 * For the default 512-bit line and 64-bit words this is the classic
 * (72, 64) organization: 8 words x 8 check bits = 64 check lanes, a
 * 12.5 % capacity overhead per protected DBC.  With the guard wire,
 * the memory's stored row is 577 bits, read in one port access.
 */
class LineSecded
{
  public:
    /**
     * fatal() unless @p word_bits is at least 1, at most
     * SecdedCode::maxDataBits, and a divisor of @p line_bits (a
     * remainder would be left unprotected).
     *
     * @param line_bits data bits per line
     * @param word_bits protected word width
     */
    LineSecded(std::size_t line_bits, std::size_t word_bits);

    std::size_t lineBits() const { return lineBits_; }
    std::size_t wordBits() const { return code_.dataBits(); }
    std::size_t words() const { return lineBits_ / wordBits(); }

    /** Check lanes appended to the line: words() x code.checkBits(). */
    std::size_t checkLanes() const
    {
        return words() * code_.checkBits();
    }

    const SecdedCode &code() const { return code_; }

    /** Fill @p row's check lanes from its data words; see the file comment. */
    void encode(BitVector &row) const;

    /** Aggregate outcome of decoding one line. */
    struct Result
    {
        std::uint32_t correctedWords = 0;
        std::uint32_t uncorrectableWords = 0;

        EccStatus
        status() const
        {
            if (uncorrectableWords)
                return EccStatus::Uncorrectable;
            return correctedWords ? EccStatus::Corrected
                                  : EccStatus::Clean;
        }
    };

    /**
     * Decode @p row word by word, correcting a single-bit error in
     * place in the data or the check lane.  Words with double-bit
     * errors are left untouched and counted uncorrectable.
     */
    Result correct(BitVector &row) const;

  private:
    std::size_t lineBits_;
    SecdedCode code_;
};

} // namespace coruscant

#endif // CORUSCANT_RELIABILITY_ECC_SECDED_HPP
