#include "apps/bitmap/bitmap_index.hpp"

#include <algorithm>

#include "arch/config.hpp"
#include "arch/timing.hpp"
#include "baselines/dram_pim.hpp"
#include "controller/queue_model.hpp"
#include "core/coruscant_unit.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {

namespace {

constexpr std::size_t dramRowBits = 65536; ///< 8 KiB DRAM row
constexpr std::size_t dwmRowBits = 512;    ///< one DBC row
static_assert(dramRowBits % 64 == 0 && dwmRowBits % 64 == 0,
              "row chunks start on BitVector word boundaries");

/**
 * cpim command round-trip per CORUSCANT chunk operation (instruction
 * decode, bank activation, and result forwarding through the
 * hierarchical row buffer).  Calibrated so the measured gains over
 * ELP2IM (1.6x / 2.4x / 3.2x at w = 2 / 3 / 4) bracket the paper's
 * published 1.6x / 2.2x / 3.4x.  The bitmaps
 * are resident in consecutive DBC rows, so the per-chunk work itself
 * is one window alignment, one TR, and one write-back, independent of
 * the operand count — that independence is what the experiment
 * demonstrates.
 */
constexpr std::uint64_t coruscantChunkOverhead = 54;

/**
 * @p bits Bernoulli(@p p) bits, bit u being the u-th nextBool(@p p)
 * draw: a word per nextBoolWord call, the last one drawing only the
 * bits it holds so the stream ends where a per-bit fill would.
 */
BitVector
randomBitmap(Rng &rng, std::size_t bits, double p)
{
    BitVector v(bits);
    v.setWords([&](std::size_t i) {
        return rng.nextBoolWord(std::min<std::size_t>(64, bits - 64 * i), p);
    });
    return v;
}

} // namespace

BitmapDatabase
BitmapDatabase::synthesize(std::size_t users, std::size_t weeks,
                           std::uint64_t seed)
{
    fatalIf(users == 0, "bitmap database needs at least one user");
    fatalIf(users > kMaxUsers, "bitmap database holds at most 2^30 users");
    BitmapDatabase db;
    db.users = users;
    Rng rng(seed);
    db.male = randomBitmap(rng, users, 0.5);
    for (std::size_t w = 0; w < weeks; ++w) {
        // Activity decays for older weeks.
        double p = 0.7 - 0.1 * static_cast<double>(w);
        db.activeWeek.push_back(randomBitmap(rng, users, p));
    }
    return db;
}

std::vector<const BitVector *>
BitmapQueryEngine::operands(std::size_t weeks) const
{
    fatalIf(weeks == 0 || weeks > db.activeWeek.size(),
            "query weeks out of range");
    std::vector<const BitVector *> ops = {&db.male};
    for (std::size_t w = 0; w < weeks; ++w)
        ops.push_back(&db.activeWeek[w]);
    return ops;
}

std::uint64_t
BitmapQueryEngine::goldenCount(std::size_t weeks) const
{
    const auto ops = operands(weeks);
    // One pass over the bitmaps: each block of words is ANDed across
    // the operands into a buffer that stays in cache, then counted.
    // The block is a whole number of carry-save blocks.
    constexpr std::size_t block = 256;
    std::uint64_t buf[block] = {};
    const std::size_t n_words = ops[0]->numWords();
    std::uint64_t matches = 0;
    for (std::size_t lo = 0; lo < n_words; lo += block) {
        const std::size_t len = std::min(block, n_words - lo);
        const WordSpan first = ops[0]->words().subspan(lo, len);
        std::copy(first.begin(), first.end(), buf);
        for (std::size_t i = 1; i < ops.size(); ++i) {
            const WordSpan src = ops[i]->words().subspan(lo, len);
            for (std::size_t j = 0; j < len; ++j)
                buf[j] &= src[j];
        }
        matches += popcountWords({buf, len});
    }
    return matches;
}

BitmapQueryResult
BitmapQueryEngine::runCpuDram(std::size_t weeks) const
{
    const std::uint64_t matches = goldenCount(weeks);
    // Every bitmap (male and each week) streams over the 16 B/cycle
    // bus; the SIMD AND and population count overlap with the
    // transfers.
    std::uint64_t lines =
        (weeks + 1) * ((db.users + dwmRowBits - 1) / dwmRowBits);
    return {"cpu-dram", matches, lines * BusConfig::lineBurstCycles()};
}

namespace {

/**
 * Survivors among the first @p width bits of a step's @p result: the
 * whole words, then the live bits of a partial last one.
 */
std::uint64_t
survivors(const BitVector &result, std::size_t width)
{
    const WordSpan words = result.words();
    std::uint64_t n = popcountWords(words.first(width / 64));
    if (width % 64 != 0) {
        const std::uint64_t tail =
            words[width / 64] & ((std::uint64_t{1} << (width % 64)) - 1);
        n += popcountWords({&tail, 1});
    }
    return n;
}

/** Run a DRAM PIM unit over all row-sized chunks of the query. */
BitmapQueryResult
runDramPim(DramPimUnit &unit, const std::string &name,
           const std::vector<const BitVector *> &ops, std::size_t users)
{
    std::size_t chunks = (users + dramRowBits - 1) / dramRowBits;
    std::uint64_t matches = 0;
    std::uint64_t chunk_cycles = 0;
    // Each chunk is folded straight from the bitmaps' words into one
    // accumulator row; the unit zero-extends the last, shorter chunk.
    std::vector<WordSpan> chunk(ops.size());
    BitVector acc(dramRowBits);
    for (std::size_t c = 0; c < chunks; ++c) {
        std::size_t lo = c * dramRowBits;
        std::size_t width = std::min(dramRowBits, users - lo);
        for (std::size_t i = 0; i < ops.size(); ++i)
            chunk[i] = ops[i]->words().subspan(lo / 64);
        unit.resetCosts();
        unit.bulkMulti(BulkOp::And, chunk, acc);
        chunk_cycles = unit.ledger().cycles(); // identical per chunk
        matches += survivors(acc, width);
    }
    // Chunk groups are colocated per subarray and the identical
    // command sequence is broadcast: chunks execute concurrently, one
    // per subarray in each wave.
    const MemoryConfig mem;
    return {name, matches,
            runUniform(mem.banks * mem.subarraysPerBank, chunks,
                       chunk_cycles, 0)
                .makespanCycles};
}

} // namespace

BitmapQueryResult
BitmapQueryEngine::runAmbit(std::size_t weeks) const
{
    AmbitUnit unit(dramRowBits);
    return runDramPim(unit, "ambit", operands(weeks), db.users);
}

BitmapQueryResult
BitmapQueryEngine::runElp2im(std::size_t weeks) const
{
    Elp2ImUnit unit(dramRowBits);
    return runDramPim(unit, "elp2im", operands(weeks), db.users);
}

BitmapQueryResult
BitmapQueryEngine::runCoruscant(std::size_t weeks,
                                std::size_t trd) const
{
    auto ops = operands(weeks);
    fatalIf(ops.size() > trd, "query needs ", ops.size(),
            " operands but TRD = ", trd);

    // The unit is a subarray's PIM DBCs side by side.  Each wire's TR
    // is independent of every other wire's, so stepping a subarray at
    // a time gives each 512-bit chunk the result a DBC of its own
    // would.  The unit zero-extends the last, shorter step; its
    // survivors count only the live bits.
    const MemoryConfig mem;
    const std::size_t subarray_bits = mem.pimDbcsPerSubarray * dwmRowBits;
    DeviceParams dev = DeviceParams::withTrd(trd);
    dev.wiresPerDbc = subarray_bits;
    CoruscantUnit unit(dev);

    std::uint64_t matches = 0;
    // Each step is staged straight from the bitmaps' words, and its
    // result lands in one row kept across the steps.
    std::vector<WordSpan> step(ops.size());
    BitVector result(subarray_bits);
    for (std::size_t lo = 0; lo < db.users; lo += subarray_bits) {
        std::size_t width = std::min(subarray_bits, db.users - lo);
        for (std::size_t i = 0; i < ops.size(); ++i)
            step[i] = ops[i]->words().subspan(lo / 64);
        unit.bulkBitwise(BulkOp::And, step, result);
        matches += survivors(result, width);
    }
    // The cycles stay a closed form over 512-bit chunks.  The bitmaps
    // live in consecutive rows of every PIM DBC (male at window row 0,
    // week b at row b, per Fig. 7's preset layout), so one chunk
    // operation is: align the window over the bitmap rows, one TR, one
    // write-back — independent of w.  All 32768 PIM DBCs fire on the
    // broadcast cpim.
    std::uint64_t align = dev.leftPortRow(); // window over rows 0..TRD-1
    std::uint64_t chunk_cycles = coruscantChunkOverhead + align +
                                 dev.trCycles + dev.writeCycles;
    std::size_t chunks = (db.users + dwmRowBits - 1) / dwmRowBits;
    return {"coruscant", matches,
            runUniform(mem.totalPimDbcs(), chunks, chunk_cycles, 0)
                .makespanCycles};
}

} // namespace coruscant
