/**
 * @file
 * Bitmap-index database query (paper Sec. V-D, Fig. 12).
 *
 * The benchmark from the DRAM PIM literature: a table of `users`
 * records keeps one bitmap per predicate (gender, weekly activity).
 * The query "how many male users were active in each of the last w
 * weeks" ANDs w+1 bitmaps of `users` bits and counts the survivors.
 *
 * Baselines perform the AND as a chain of two-operand bulk operations
 * over 65536-bit DRAM rows (Ambit via triple-row activation, ELP2IM
 * via pseudo-precharge states); CORUSCANT evaluates all w+1 <= TRD
 * operands with a single transverse read per 512-bit DBC chunk, with
 * the bitmaps laid out in consecutive rows of the PIM DBC windows — so
 * its latency stays flat as w grows while the DRAM techniques scale
 * linearly (the paper's 1.6x / 2.2x / 3.4x over ELP2IM at
 * w = 2 / 3 / 4).  One cpim is broadcast to every PIM DBC, so the
 * simulation evaluates a subarray's 16 DBCs with one call.
 */

#ifndef CORUSCANT_APPS_BITMAP_BITMAP_INDEX_HPP
#define CORUSCANT_APPS_BITMAP_BITMAP_INDEX_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "util/bit_vector.hpp"

namespace coruscant {

/** A synthetic user table as predicate bitmaps. */
struct BitmapDatabase
{
    /** Most users: seven 2^30-bit bitmaps (male, six weeks) take 896 MiB. */
    static constexpr std::size_t kMaxUsers = std::size_t{1} << 30;

    std::size_t users = 0;
    BitVector male;
    std::vector<BitVector> activeWeek; ///< [week] -> activity bitmap

    /** Deterministic synthetic database; FatalError outside [1, kMaxUsers]. */
    static BitmapDatabase synthesize(std::size_t users,
                                     std::size_t weeks,
                                     std::uint64_t seed = 1);
};

/** One technique's result on the query. */
struct BitmapQueryResult
{
    std::string technique;
    std::uint64_t matches = 0; ///< functional query answer
    std::uint64_t cycles = 0;  ///< memory cycles for the bitwise phase
};

/** Runs the query functionally and under each latency model. */
class BitmapQueryEngine
{
  public:
    explicit BitmapQueryEngine(const BitmapDatabase &db)
        : db(db)
    {}

    /**
     * Golden answer (plain CPU evaluation): one pass that ANDs the
     * bitmaps a block of words at a time and counts each block.
     */
    std::uint64_t goldenCount(std::size_t weeks) const;

    /** CPU + DRAM: stream every bitmap over the bus. */
    BitmapQueryResult runCpuDram(std::size_t weeks) const;

    /** Ambit: chains of TRA-based ANDs over 65536-bit rows. */
    BitmapQueryResult runAmbit(std::size_t weeks) const;

    /** ELP2IM: chains of in-SA ANDs over 65536-bit rows. */
    BitmapQueryResult runElp2im(std::size_t weeks) const;

    /**
     * CORUSCANT: one multi-operand TR per 512-bit row chunk.  The
     * chunks are simulated a subarray (16 PIM DBCs, 8192 bits) at a
     * time; the cycles are the closed form over 512-bit chunks.
     */
    BitmapQueryResult runCoruscant(std::size_t weeks,
                                   std::size_t trd = 7) const;

  private:
    /** Gather the query's operand bitmaps (male + w weeks). */
    std::vector<const BitVector *> operands(std::size_t weeks) const;

    const BitmapDatabase &db;
};

} // namespace coruscant

#endif // CORUSCANT_APPS_BITMAP_BITMAP_INDEX_HPP
