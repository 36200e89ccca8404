/**
 * @file
 * Data-domain fault model: determinism of the transient stream,
 * stationarity of the stuck-at defect map, retention monotonicity, the
 * geometric-gap sampler's statistics, and the end-to-end contract that
 * a SECDED-protected DwmMainMemory reads back what was written while
 * an unprotected one silently corrupts — plus the service-level
 * statistical injector that mirrors all of it per channel.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "arch/dwm_memory.hpp"
#include "dwm/data_fault.hpp"
#include "service/fault_service.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

BitVector
randomRow(Rng &rng, std::size_t bits)
{
    BitVector v(bits);
    for (std::size_t i = 0; i < bits; ++i)
        v.set(i, rng.nextBool());
    return v;
}

TEST(DataFaultModel, DisabledModelIsInert)
{
    DataFaultModel m;
    EXPECT_FALSE(m.enabled());
    Rng rng(7);
    BitVector row = randomRow(rng, 512);
    BitVector before = row;
    EXPECT_EQ(m.perturbTransient(row), 0u);
    EXPECT_EQ(m.applyStuckAt(row, 3, 5), 0u);
    EXPECT_EQ(m.decay(row, 1 << 20), 0u);
    EXPECT_EQ(row, before);
    EXPECT_EQ(m.injectedFaults(), 0u);
}

TEST(DataFaultModel, TransientRateBoundaries)
{
    DataFaultRates rates;
    rates.dataFaultRate = 1.0;
    DataFaultModel m(rates, 1);
    BitVector row(64);
    row.set(3, true);
    BitVector before = row;
    EXPECT_EQ(m.perturbTransient(row), 64u); // p = 1 flips every bit
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_NE(row.get(i), before.get(i));
}

TEST(DataFaultModel, SameSeedSameFaultStream)
{
    DataFaultRates rates;
    rates.dataFaultRate = 0.01;
    rates.retentionRatePerCycle = 1e-6;
    DataFaultModel a(rates, 99), b(rates, 99);
    Rng content(42);
    for (int i = 0; i < 50; ++i) {
        BitVector row = randomRow(content, 512);
        BitVector ra = row, rb = row;
        EXPECT_EQ(a.perturbTransient(ra), b.perturbTransient(rb));
        EXPECT_EQ(ra, rb);
        EXPECT_EQ(a.decay(ra, 1000), b.decay(rb, 1000));
        EXPECT_EQ(ra, rb);
    }
    EXPECT_EQ(a.injectedFaults(), b.injectedFaults());
    EXPECT_GT(a.injectedFaults(), 0u);
}

TEST(DataFaultModel, StuckAtMapIsStationary)
{
    DataFaultRates rates;
    rates.stuckAtFraction = 0.05;
    DataFaultModel a(rates, 7);

    // Forcing all-zero and all-one rows exposes every stuck site: a
    // site changes exactly one of the two, and the union of forced
    // patterns is the defect map.
    BitVector zeros(256), ones(256);
    for (std::size_t i = 0; i < 256; ++i)
        ones.set(i, true);
    BitVector z1 = zeros, o1 = ones;
    std::uint64_t cz = a.applyStuckAt(z1, 11, 3);
    std::uint64_t co = a.applyStuckAt(o1, 11, 3);
    EXPECT_GT(cz + co, 0u); // ~13 expected sites over 256 wires

    // A second model with the same seed — and the same model asked
    // again in a different order — forces the identical pattern:
    // membership and polarity come from a stateless hash, not the
    // sampling stream.
    DataFaultModel b(rates, 7);
    BitVector o2 = ones, z2 = zeros;
    EXPECT_EQ(b.applyStuckAt(o2, 11, 3), co);
    EXPECT_EQ(b.applyStuckAt(z2, 11, 3), cz);
    EXPECT_EQ(z1, z2);
    EXPECT_EQ(o1, o2);

    // Re-applying to an already-forced row changes nothing (sticky,
    // idempotent), and hasStuckSite agrees with the observable map.
    BitVector z3 = z1;
    EXPECT_EQ(a.applyStuckAt(z3, 11, 3), 0u);
    EXPECT_EQ(z3, z1);
    EXPECT_TRUE(a.hasStuckSite(11, 3, 256));

    // A different (dbc, row) key draws a different (but equally
    // stationary) pattern.
    BitVector z4 = zeros;
    a.applyStuckAt(z4, 12, 3);
    BitVector z5 = zeros;
    b.applyStuckAt(z5, 12, 3);
    EXPECT_EQ(z4, z5);
}

TEST(DataFaultModel, RetentionIsMonotoneInIdleTime)
{
    DataFaultRates rates;
    rates.retentionRatePerCycle = 1e-6;
    DataFaultModel m(rates, 1);
    double prev = 0.0;
    for (std::uint64_t t : {0ull, 100ull, 10000ull, 1000000ull,
                            100000000ull}) {
        double p = m.retentionFlipProbability(t);
        EXPECT_GE(p, prev);
        EXPECT_LE(p, 1.0);
        prev = p;
    }
    EXPECT_EQ(m.retentionFlipProbability(0), 0.0);
    // Asymptote: after ~1e8 cycles at 1e-6/cycle the bit is coin-flip
    // territory; the probability saturates toward 1.
    EXPECT_GT(m.retentionFlipProbability(5000000000ull), 0.99);

    BitVector row(512);
    EXPECT_EQ(m.decay(row, 0), 0u); // no idle time, no decay
}

TEST(DataFaultModel, GeometricSamplerMatchesBernoulliRate)
{
    DataFaultRates rates;
    rates.dataFaultRate = 0.02;
    DataFaultModel m(rates, 1234);
    std::uint64_t flips = 0;
    const std::uint64_t rows = 2000, bits = 512;
    BitVector row(bits);
    for (std::uint64_t i = 0; i < rows; ++i)
        flips += m.perturbTransient(row);
    double rate = static_cast<double>(flips) /
                  static_cast<double>(rows * bits);
    // ~20480 expected flips; 5 sigma is well under 15 % relative.
    EXPECT_NEAR(rate, 0.02, 0.003);
    EXPECT_EQ(m.transientFlips(), flips);
}

/** Small memory with every data-fault knob under test control. */
MemoryConfig
memConfig(double pdata, EccMode ecc, double retention = 0.0)
{
    MemoryConfig mc;
    mc.banks = 1;
    mc.subarraysPerBank = 1;
    mc.tilesPerSubarray = 2;
    mc.dbcsPerTile = 2;
    mc.reliability.dataFaultRate = pdata;
    mc.reliability.retentionRatePerCycle = retention;
    mc.reliability.dataFaultSeed = 77;
    mc.reliability.eccMode = ecc;
    return mc;
}

TEST(DataFaultMemory, SecdedMemoryReadsBackWhatWasWritten)
{
    // At 2e-4 per bit per access a 64-bit word almost never takes two
    // hits, so every read must decode to the written data.
    MemoryConfig mc = memConfig(2e-4, EccMode::Secded);
    DwmMainMemory mem(mc);
    Rng rng(5);
    const std::size_t lines = 100;
    std::vector<BitVector> written;
    std::vector<std::uint64_t> addrs;
    for (std::size_t i = 0; i < lines; ++i) {
        LineAddress loc{};
        loc.dbc = i / 50;        // 2 x 2 x 25 unique homes
        loc.tile = (i / 25) % 2;
        loc.row = i % 25;
        std::uint64_t addr = mem.addressMap().encode(loc);
        BitVector data = randomRow(rng, mc.device.wiresPerDbc);
        mem.writeLine(addr, data);
        written.push_back(data);
        addrs.push_back(addr);
    }
    for (std::size_t i = 0; i < lines; ++i)
        EXPECT_EQ(mem.readLine(addrs[i]), written[i]) << "line " << i;
    EXPECT_GT(mem.injectedDataFaults(), 0u);
    EXPECT_GT(mem.eccCorrections(), 0u);
    EXPECT_EQ(mem.eccDetectedUncorrectable(), 0u);
}

TEST(DataFaultMemory, UnprotectedMemorySilentlyCorrupts)
{
    MemoryConfig mc = memConfig(5e-3, EccMode::None);
    DwmMainMemory mem(mc);
    Rng rng(5);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < 50; ++i) {
        LineAddress loc{};
        loc.tile = i / 32;
        loc.row = i % 32;
        std::uint64_t addr = mem.addressMap().encode(loc);
        BitVector data = randomRow(rng, mc.device.wiresPerDbc);
        mem.writeLine(addr, data);
        if (mem.readLine(addr) != data)
            ++mismatches;
    }
    EXPECT_GT(mem.injectedDataFaults(), 0u);
    EXPECT_GT(mismatches, 0u); // nothing flags, nothing corrects
    EXPECT_EQ(mem.eccCorrections(), 0u);
}

TEST(DataFaultMemory, EccScrubRepairsRetentionDecay)
{
    // Aggressive decay so idle lines accumulate single-bit flips
    // between accesses; the scrub decodes + rewrites them before a
    // second flip would make words uncorrectable.
    // 400 busy writes advance the clock ~3200 cycles; at 2e-7 per bit
    // per cycle each idle row expects a fraction of a flip and no word
    // takes two, so the sweep corrects everything it finds.
    MemoryConfig mc = memConfig(0.0, EccMode::Secded, 2e-7);
    DwmMainMemory mem(mc);
    Rng rng(9);
    std::vector<std::uint64_t> addrs;
    std::vector<BitVector> written;
    for (std::size_t i = 0; i < 8; ++i) {
        LineAddress loc{};
        loc.row = i;
        std::uint64_t addr = mem.addressMap().encode(loc);
        BitVector data = randomRow(rng, mc.device.wiresPerDbc);
        mem.writeLine(addr, data);
        addrs.push_back(addr);
        written.push_back(data);
    }
    // Busy-work on another DBC advances the memory clock while rows 0-7
    // of DBC 0 sit idle.
    LineAddress busy{};
    busy.dbc = 1;
    std::uint64_t busyAddr = mem.addressMap().encode(busy);
    for (int i = 0; i < 400; ++i)
        mem.writeLine(busyAddr, written[0]);

    EccScrubReport rep = mem.scrubEcc();
    EXPECT_GT(rep.scannedRows, 0u);
    EXPECT_GT(rep.correctedRows, 0u);
    EXPECT_GT(mem.eccCorrections(), 0u);
    // The scrub rewrote the decayed rows; read-back matches.
    for (std::size_t i = 0; i < addrs.size(); ++i)
        EXPECT_EQ(mem.readLine(addrs[i]), written[i]) << "line " << i;
}

TEST(DataFaultMemory, GuardWireSurvivesDataFaultsAndEcc)
{
    // The guard wire shares the row with the data and check lanes,
    // one wire past them.  Transient, stuck-at and retention faults
    // and SECDED's corrections stay on the data and check lanes: with
    // no shift faults, every guard check must find its cluster
    // aligned.  A fault or a rewrite that reached the guard wire would
    // break the ramp and read as a misalignment.
    MemoryConfig mc = memConfig(1e-4, EccMode::Secded, 1e-6);
    mc.reliability.stuckAtFraction = 1e-3;
    mc.reliability.guardPolicy = GuardPolicy::PerAccess;
    DwmMainMemory mem(mc);
    Rng rng(13);
    std::vector<std::uint64_t> addrs;
    for (std::size_t i = 0; i < 64; ++i) {
        LineAddress loc{};
        loc.dbc = i % 2;
        loc.tile = (i / 2) % 2;
        loc.row = i / 4;
        addrs.push_back(mem.addressMap().encode(loc));
    }
    for (int round = 0; round < 40; ++round) {
        for (std::uint64_t addr : addrs) {
            mem.writeLine(addr, randomRow(rng, mc.device.wiresPerDbc));
            mem.readLine(addrs[rng.nextBelow(addrs.size())]);
        }
        mem.scrubEcc();
        for (std::uint64_t addr : addrs)
            ASSERT_FALSE(mem.checkLine(addr).misaligned)
                << "round " << round;
    }
    EXPECT_EQ(mem.detectedMisalignments(), 0u);
    EXPECT_EQ(mem.uncorrectableEvents(), 0u);
    EXPECT_GT(mem.guardChecks(), 0u);
    EXPECT_GT(mem.injectedDataFaults(), 0u);
    EXPECT_GT(mem.eccCorrections(), 0u);
}

TEST(ChannelDataFaultInjector, SameSeedSameClassifiedStream)
{
    ServiceFaultConfig cfg;
    cfg.dataFaultRate = 1e-4;
    cfg.retentionRatePerCycle = 1e-8;
    cfg.ecc = EccMode::Secded;
    ChannelDataFaultInjector a(cfg, 314, 512, 64);
    ChannelDataFaultInjector b(cfg, 314, 512, 64);
    for (int i = 0; i < 200; ++i) {
        auto sa = a.sample(12, i * 100);
        auto sb = b.sample(12, i * 100);
        EXPECT_EQ(sa.flips, sb.flips);
        EXPECT_EQ(sa.correctedWords, sb.correctedWords);
        EXPECT_EQ(sa.dueWords, sb.dueWords);
        EXPECT_EQ(sa.sdcWords, sb.sdcWords);
    }
    EXPECT_EQ(a.injected(), b.injected());
    EXPECT_GT(a.injected(), 0u);
}

TEST(ChannelDataFaultInjector, SecdedClassifiesFlipsEccOffGoesSilent)
{
    // With SECDED the dominant single-flip events classify as
    // corrected; with ECC off the identical stream is all-silent.
    ServiceFaultConfig on;
    on.dataFaultRate = 1e-5;
    on.ecc = EccMode::Secded;
    ServiceFaultConfig off = on;
    off.ecc = EccMode::None;
    ChannelDataFaultInjector secded(on, 7, 512, 64);
    ChannelDataFaultInjector none(off, 7, 512, 64);
    std::uint64_t onCorrected = 0, onSdc = 0;
    std::uint64_t offCorrected = 0, offSdc = 0;
    for (int i = 0; i < 5000; ++i) {
        auto s = secded.sample(10, 0);
        onCorrected += s.correctedWords;
        onSdc += s.sdcWords;
        auto n = none.sample(10, 0);
        offCorrected += n.correctedWords;
        offSdc += n.sdcWords;
    }
    EXPECT_EQ(secded.injected(), none.injected()); // same raw stream
    EXPECT_GT(onCorrected, 0u);
    EXPECT_EQ(onSdc, 0u); // no triple-flip word at this rate
    EXPECT_EQ(offCorrected, 0u);
    EXPECT_GT(offSdc, 0u); // every flipped word is silent without ECC
}

TEST(ChannelDataFaultInjector, RetentionChargesOnlyTheIdleAccess)
{
    ServiceFaultConfig cfg;
    cfg.retentionRatePerCycle = 1e-6;
    cfg.ecc = EccMode::Secded;
    ChannelDataFaultInjector inj(cfg, 1, 512, 64);
    // No transient rate and no idle time: nothing can flip.
    auto quiet = inj.sample(20, 0);
    EXPECT_EQ(quiet.flips, 0u);
    // A long-idle line decays with high probability.
    std::uint64_t flips = 0;
    for (int i = 0; i < 50; ++i)
        flips += inj.sample(1, 10000000).flips;
    EXPECT_GT(flips, 0u);
}

} // namespace
} // namespace coruscant
