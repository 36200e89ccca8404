/**
 * @file
 * Fault-aware serving: live injection under traffic, the per-request
 * outcome taxonomy, DBC health tracking (breaker/retirement/steering),
 * chaos ramps, and the thread-count invariance of all of it.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/fault_service.hpp"
#include "service/service_engine.hpp"
#include "util/logging.hpp"

namespace coruscant {
namespace {

ServiceConfig
faultConfig(GuardPolicy policy, double pshift)
{
    ServiceConfig cfg;
    cfg.channels = 2;
    cfg.threads = 1;
    cfg.banksPerChannel = 8;
    cfg.durationCycles = 30000;
    cfg.ratePerKcycle = 40;
    cfg.seed = 42;
    cfg.faults.policy = policy;
    cfg.faults.shiftFaultRate = pshift;
    return cfg;
}

std::uint64_t
outcome(const ServiceStats &s, RequestOutcome o)
{
    return s.outcomes[static_cast<std::size_t>(o)];
}

/** Every generated request lands in exactly one outcome bin. */
void
expectTaxonomyClosed(const ServiceStats &s)
{
    std::uint64_t total = 0;
    for (std::uint64_t n : s.outcomes)
        total += n;
    EXPECT_EQ(total, s.generated);
    EXPECT_EQ(outcome(s, RequestOutcome::Clean) +
                  outcome(s, RequestOutcome::Corrected) +
                  outcome(s, RequestOutcome::Due) +
                  outcome(s, RequestOutcome::Sdc),
              s.completed);
    EXPECT_EQ(outcome(s, RequestOutcome::Rejected), s.rejected);
    // Per-outcome latency histograms cover exactly the completions.
    std::uint64_t recorded = 0;
    for (const auto &h : s.outcomeLatency)
        recorded += h.count();
    EXPECT_EQ(recorded, s.completed);
    EXPECT_EQ(
        s.outcomeLatency[static_cast<std::size_t>(
                             RequestOutcome::Rejected)]
            .count(),
        0u);
}

// ----------------------------------------------------- configuration

TEST(ServiceFaultConfig, FlatRateAndRampSchedules)
{
    ServiceFaultConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    cfg.shiftFaultRate = 1e-3;
    EXPECT_TRUE(cfg.enabled());
    EXPECT_DOUBLE_EQ(cfg.rateAt(0), 1e-3);
    EXPECT_DOUBLE_EQ(cfg.rateAt(1u << 30), 1e-3);

    cfg.ramp = {{0, 1e-4}, {1000, 1e-3}, {2000, 1e-4}};
    EXPECT_DOUBLE_EQ(cfg.rateAt(0), 1e-4);
    EXPECT_DOUBLE_EQ(cfg.rateAt(999), 1e-4);
    EXPECT_DOUBLE_EQ(cfg.rateAt(1000), 1e-3);
    EXPECT_DOUBLE_EQ(cfg.rateAt(1999), 1e-3);
    EXPECT_DOUBLE_EQ(cfg.rateAt(5000), 1e-4);
}

TEST(ServiceFaultConfig, ChaosRampStormsAndRecovers)
{
    auto ramp = ServiceFaultConfig::chaosRamp(1e-3, 100000);
    ASSERT_GE(ramp.size(), 3u);
    ServiceFaultConfig cfg;
    cfg.ramp = ramp;
    EXPECT_TRUE(cfg.enabled());
    EXPECT_DOUBLE_EQ(cfg.rateAt(0), 1e-3);
    // Mid-run storm: strictly above base somewhere inside the run.
    EXPECT_GT(cfg.rateAt(50000), 1e-3);
    // Recovered by the final quarter.
    EXPECT_DOUBLE_EQ(cfg.rateAt(99999), 1e-3);
    EXPECT_THROW(ServiceFaultConfig::chaosRamp(0.0, 1000), FatalError);
}

TEST(GuardServiceCosts, MeasuredThroughRealPipeline)
{
    GuardServiceCosts c = GuardServiceCosts::measure();
    // A clean check costs guard TRs; a correction adds fix pulses on
    // top; reset and retirement (migration) touch every row, so they
    // are at least as heavy again.
    EXPECT_GT(c.checkCycles, 0u);
    EXPECT_GT(c.correctCycles, c.checkCycles);
    EXPECT_GT(c.resetCycles, c.correctCycles);
    EXPECT_GE(c.retireCycles, c.resetCycles);
    EXPECT_GT(c.checkEnergyPj, 0.0);
    EXPECT_GT(c.correctEnergyPj, c.checkEnergyPj);
    EXPECT_GT(c.retireEnergyPj, 0.0);
}

// ------------------------------------------------------ health tracker

TEST(DbcHealthTracker, BreakerOpensRetiresThenDies)
{
    ServiceFaultConfig cfg;
    cfg.breakerThreshold = 2;
    cfg.breakerCooldownCycles = 100;
    cfg.healthWindowCycles = 1000;
    cfg.tripsToRetire = 2;
    cfg.sparesPerChannel = 1;
    DbcHealthTracker t(cfg, 1, 2);

    EXPECT_TRUE(t.available(0, 0, 0));
    auto a1 = t.recordError(0, 0, 10, false);
    EXPECT_FALSE(a1.breakerOpened); // one error, threshold is two
    auto a2 = t.recordError(0, 0, 20, false);
    EXPECT_TRUE(a2.breakerOpened);
    EXPECT_FALSE(a2.retired);
    EXPECT_FALSE(t.available(0, 0, 50)); // breaker open
    EXPECT_TRUE(t.available(0, 0, 120)); // cooled down
    EXPECT_EQ(t.breakerTrips(), 1u);

    // Second trip retires onto the only spare.
    t.recordError(0, 0, 200, false);
    auto a3 = t.recordError(0, 0, 210, false);
    EXPECT_TRUE(a3.breakerOpened);
    EXPECT_TRUE(a3.retired);
    EXPECT_FALSE(a3.died);
    EXPECT_EQ(t.retiredGroups(), 1u);
    EXPECT_EQ(t.sparesLeft(), 0u);

    // The fresh group wears out again: no spare left, so it dies.
    t.recordError(0, 0, 1500, false);
    t.recordError(0, 0, 1510, false);
    t.recordError(0, 0, 1600, false);
    auto a4 = t.recordError(0, 0, 1610, false);
    EXPECT_TRUE(a4.died);
    EXPECT_EQ(t.deadGroups(), 1u);
    EXPECT_DOUBLE_EQ(t.capacityLossFraction(), 0.5);
    EXPECT_FALSE(t.available(0, 0, 1u << 20));
}

TEST(DbcHealthTracker, DueTripsImmediatelyAndWindowPrunes)
{
    ServiceFaultConfig cfg;
    cfg.breakerThreshold = 3;
    cfg.healthWindowCycles = 100;
    DbcHealthTracker t(cfg, 1, 1);
    EXPECT_TRUE(t.recordError(0, 0, 5, true).breakerOpened);
    // Corrected errors spread wider than the window never accumulate.
    for (std::uint64_t c = 20000; c < 21000; c += 200)
        EXPECT_FALSE(t.recordError(0, 0, c, false).breakerOpened);
    EXPECT_EQ(t.breakerTrips(), 1u);
}

TEST(DbcHealthTracker, CooldownSaturatesAtTheEndOfTheCycleRange)
{
    // A trip near the top of the cycle range stays open to its end:
    // the cooldown's end saturates instead of wrapping to a small
    // cycle that would reopen the group at once.
    ServiceFaultConfig cfg;
    cfg.breakerThreshold = 1;
    cfg.breakerCooldownCycles = 1000;
    DbcHealthTracker t(cfg, 1, 1);
    constexpr std::uint64_t top = ~0ull;
    EXPECT_TRUE(t.recordError(0, 0, top - 10, false).breakerOpened);
    EXPECT_FALSE(t.available(0, 0, top - 5));
}

TEST(DbcHealthTracker, SteeringPrefersHomeThenSiblingsThenOtherBanks)
{
    ServiceFaultConfig cfg;
    cfg.breakerThreshold = 1;
    cfg.breakerCooldownCycles = 1000;
    DbcHealthTracker t(cfg, 2, 2);
    std::uint32_t bank = 0, group = 0;
    EXPECT_TRUE(t.steer(bank, group, 0));
    EXPECT_EQ(bank, 0u);
    EXPECT_EQ(group, 0u); // healthy home is kept
    EXPECT_EQ(t.steeredRequests(), 0u);

    t.recordError(0, 0, 10, false); // opens (0,0)
    bank = 0;
    group = 0;
    EXPECT_TRUE(t.steer(bank, group, 20));
    EXPECT_EQ(bank, 0u);
    EXPECT_EQ(group, 1u); // same-bank sibling first
    EXPECT_EQ(t.steeredRequests(), 1u);

    t.recordError(0, 1, 30, false); // opens the sibling too
    bank = 0;
    group = 0;
    EXPECT_TRUE(t.steer(bank, group, 40));
    EXPECT_EQ(bank, 1u); // falls over to the other bank

    t.recordError(1, 0, 50, false);
    t.recordError(1, 1, 60, false);
    bank = 0;
    group = 0;
    EXPECT_FALSE(t.steer(bank, group, 70)); // nothing left
}

// ----------------------------------------------------- engine + faults

TEST(ServiceFaults, FaultFreeRunHasAllCleanTaxonomy)
{
    ServiceConfig cfg = faultConfig(GuardPolicy::PerAccess, 0.0);
    ASSERT_FALSE(cfg.faults.enabled());
    ServiceStats s = runService(cfg);
    expectTaxonomyClosed(s);
    EXPECT_EQ(outcome(s, RequestOutcome::Clean), s.completed);
    EXPECT_EQ(s.injectedFaults, 0u);
}

TEST(ServiceFaults, PerAccessGuardingLeavesZeroSdc)
{
    ServiceConfig cfg = faultConfig(GuardPolicy::PerAccess, 3e-3);
    ServiceStats s = runService(cfg);
    expectTaxonomyClosed(s);
    EXPECT_GT(s.injectedFaults, 0u);
    EXPECT_GT(outcome(s, RequestOutcome::Corrected), 0u);
    EXPECT_EQ(outcome(s, RequestOutcome::Sdc), 0u);
    EXPECT_EQ(outcome(s, RequestOutcome::Due), 0u);
    // Correction latency is folded into the corrected tail: the
    // corrected distribution cannot sit below the clean median.
    const auto &clean = s.outcomeLatency[static_cast<std::size_t>(
        RequestOutcome::Clean)];
    const auto &fixed = s.outcomeLatency[static_cast<std::size_t>(
        RequestOutcome::Corrected)];
    EXPECT_GT(fixed.count(), 0u);
    EXPECT_GT(fixed.max(), 0u);
    EXPECT_GE(clean.count(), fixed.count());
}

TEST(ServiceFaults, UnguardedServingSurfacesSilentCorruption)
{
    ServiceConfig cfg = faultConfig(GuardPolicy::None, 3e-3);
    ServiceStats s = runService(cfg);
    expectTaxonomyClosed(s);
    EXPECT_GT(s.injectedFaults, 0u);
    EXPECT_GT(outcome(s, RequestOutcome::Sdc), 0u);
    EXPECT_EQ(outcome(s, RequestOutcome::Corrected), 0u);
    EXPECT_EQ(s.guardRetries, 0u);
}

TEST(ServiceFaults, ScrubBoundsStickyExposure)
{
    ServiceConfig unguarded = faultConfig(GuardPolicy::None, 3e-3);
    ServiceConfig scrubbed =
        faultConfig(GuardPolicy::PeriodicScrub, 3e-3);
    scrubbed.faults.scrubIntervalCycles = 2048;
    ServiceStats u = runService(unguarded);
    ServiceStats s = runService(scrubbed);
    expectTaxonomyClosed(s);
    EXPECT_GT(s.maintenanceUnits, 0u);
    // Scrub clears accumulated misalignment between sweeps, so the
    // sticky-exposure SDC count drops strictly below unguarded.
    EXPECT_LT(outcome(s, RequestOutcome::Sdc),
              outcome(u, RequestOutcome::Sdc));
}

TEST(ServiceFaults, ScrubDueTimeSaturatesAtTheEndOfTheCycleRange)
{
    // The first sweep is due at 2^63 + 1; the next would be at
    // 2^64 + 2, past the last cycle.  The due time saturates there, so
    // exactly one sweep runs.  A wrapping sum put the second sweep at
    // cycle 2, and the channel swept forever.
    ServiceConfig cfg = faultConfig(GuardPolicy::PeriodicScrub, 1e-3);
    cfg.channels = 1;
    cfg.durationCycles = UINT64_MAX;
    cfg.ratePerKcycle = 1e-12;
    cfg.faults.scrubIntervalCycles = (std::uint64_t{1} << 63) + 1;
    ServiceStats s = runService(cfg);
    expectTaxonomyClosed(s);
    EXPECT_GT(s.generated, 0u);
    // One sweep dispatches one maintenance unit per bank; each
    // retirement adds its migration.
    EXPECT_EQ(s.maintenanceUnits, cfg.banksPerChannel + s.retiredGroups);
}

TEST(ServiceFaults, BreakerRetirementAndSteeringUnderPressure)
{
    ServiceConfig cfg = faultConfig(GuardPolicy::PerCpim, 2e-2);
    cfg.faults.breakerThreshold = 2;
    cfg.faults.breakerCooldownCycles = 2000;
    cfg.faults.tripsToRetire = 2;
    cfg.faults.sparesPerChannel = 1;
    ServiceStats s = runService(cfg);
    expectTaxonomyClosed(s);
    EXPECT_GT(s.breakerTrips, 0u);
    EXPECT_GT(s.steeredRequests, 0u);
    EXPECT_GT(s.retiredGroups, 0u);
    EXPECT_GT(s.maintenanceUnits, 0u); // migrations rode the bus
}

TEST(ServiceFaults, CapacityExhaustionYieldsTypedRejections)
{
    // One bank, one group, no spares: once the only group dies, every
    // later arrival is a typed capacity rejection, not a crash.
    ServiceConfig cfg = faultConfig(GuardPolicy::PerCpim, 5e-2);
    cfg.channels = 1;
    cfg.banksPerChannel = 1;
    cfg.dbcGroupsPerBank = 1;
    cfg.faults.breakerThreshold = 1;
    cfg.faults.breakerCooldownCycles = 500;
    cfg.faults.tripsToRetire = 1;
    cfg.faults.sparesPerChannel = 0;
    ServiceStats s = runService(cfg);
    expectTaxonomyClosed(s);
    EXPECT_GT(s.deadGroups, 0u);
    EXPECT_GT(s.capacityRejections, 0u);
    EXPECT_GT(outcome(s, RequestOutcome::Rejected), 0u);
    EXPECT_GT(s.capacityLossFraction, 0.0);
    EXPECT_LE(s.capacityLossFraction, 1.0);
}

TEST(ServiceFaults, ChaosRunIsThreadCountInvariant)
{
    ServiceConfig cfg = faultConfig(GuardPolicy::PerAccess, 0.0);
    cfg.channels = 4;
    cfg.faults.ramp =
        ServiceFaultConfig::chaosRamp(1e-3, cfg.durationCycles);
    cfg.collectMetrics = true;
    cfg.threads = 1;
    ServiceStats single = runService(cfg);
    EXPECT_GT(single.injectedFaults, 0u);
    for (std::uint32_t threads : {2u, 4u}) {
        cfg.threads = threads;
        ServiceStats sharded = runService(cfg);
        EXPECT_EQ(single.makespan, sharded.makespan);
        EXPECT_EQ(single.injectedFaults, sharded.injectedFaults);
        EXPECT_EQ(single.guardRetries, sharded.guardRetries);
        EXPECT_EQ(single.breakerTrips, sharded.breakerTrips);
        EXPECT_EQ(single.retiredGroups, sharded.retiredGroups);
        EXPECT_EQ(single.deadGroups, sharded.deadGroups);
        EXPECT_EQ(single.steeredRequests, sharded.steeredRequests);
        EXPECT_EQ(single.capacityRejections,
                  sharded.capacityRejections);
        EXPECT_EQ(single.maintenanceUnits, sharded.maintenanceUnits);
        EXPECT_DOUBLE_EQ(single.capacityLossFraction,
                         sharded.capacityLossFraction);
        for (std::size_t i = 0; i < kRequestOutcomes; ++i) {
            EXPECT_EQ(single.outcomes[i], sharded.outcomes[i]) << i;
            EXPECT_EQ(single.outcomeLatency[i].count(),
                      sharded.outcomeLatency[i].count())
                << i;
            EXPECT_EQ(single.outcomeLatency[i].p99(),
                      sharded.outcomeLatency[i].p99())
                << i;
        }
        EXPECT_EQ(single.metrics.toJson(), sharded.metrics.toJson());
    }
}

TEST(ServiceFaults, FaultRunsAreReproducible)
{
    ServiceConfig cfg = faultConfig(GuardPolicy::PerCpim, 3e-3);
    ServiceStats a = runService(cfg);
    ServiceStats b = runService(cfg);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.injectedFaults, b.injectedFaults);
    for (std::size_t i = 0; i < kRequestOutcomes; ++i)
        EXPECT_EQ(a.outcomes[i], b.outcomes[i]) << i;
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
}

TEST(ServiceFaults, OutcomeHistogramsMergeOrderIndependently)
{
    // The merge path the sharded engine relies on: per-outcome
    // histograms accumulated per channel then merged element-wise must
    // not care which channel merges first.
    std::vector<std::uint64_t> va = {3, 70, 70, 512, 9000};
    std::vector<std::uint64_t> vb = {1, 70, 400, 100000};
    LatencyHistogram a, b;
    for (auto v : va)
        a.record(v);
    for (auto v : vb)
        b.record(v);
    LatencyHistogram ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab.count(), ba.count());
    EXPECT_EQ(ab.min(), ba.min());
    EXPECT_EQ(ab.max(), ba.max());
    EXPECT_DOUBLE_EQ(ab.mean(), ba.mean());
    for (double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_EQ(ab.percentile(q), ba.percentile(q));
}

/** Data-fault serving config: transient flips at @p pdata under @p ecc. */
ServiceConfig
dataFaultConfig(double pdata, EccMode ecc, std::size_t nmr = 1)
{
    ServiceConfig cfg = faultConfig(GuardPolicy::PerAccess, 0.0);
    cfg.faults.dataFaultRate = pdata;
    cfg.faults.ecc = ecc;
    cfg.faults.pimNmr = nmr;
    return cfg;
}

TEST(ServiceFaults, SecdedServingHoldsSdcAtZero)
{
    ServiceConfig cfg = dataFaultConfig(1e-5, EccMode::Secded, 3);
    ASSERT_TRUE(cfg.faults.dataFaultsEnabled());
    ServiceStats s = runService(cfg);
    expectTaxonomyClosed(s);
    EXPECT_GT(s.dataFaultsInjected, 0u);
    EXPECT_GT(s.eccCorrections, 0u);
    EXPECT_EQ(outcome(s, RequestOutcome::Sdc), 0u);
    EXPECT_GT(outcome(s, RequestOutcome::Corrected), 0u);
}

TEST(ServiceFaults, UnprotectedDataFaultsSurfaceAsSilentCorruption)
{
    // Same fault pressure, no check lanes: the identical flip stream
    // lands as silent corruption and nothing corrects or flags.
    ServiceConfig cfg = dataFaultConfig(1e-5, EccMode::None);
    ServiceStats s = runService(cfg);
    expectTaxonomyClosed(s);
    EXPECT_GT(s.dataFaultsInjected, 0u);
    EXPECT_EQ(s.eccCorrections, 0u);
    EXPECT_EQ(s.eccDetectedUncorrectable, 0u);
    EXPECT_GT(outcome(s, RequestOutcome::Sdc), 0u);
}

TEST(ServiceFaults, EccDueEscalatesIntoHealthTracking)
{
    // Hot enough that some words take two flips, with the retry
    // ladder disabled so a first-sample DUE is terminal: flagged
    // (never silent) and fed to the same breaker machinery as
    // alignment DUEs.
    ServiceConfig cfg = dataFaultConfig(3e-4, EccMode::Secded, 3);
    cfg.faults.maxRetries = 0;
    cfg.faults.breakerThreshold = 2;
    cfg.faults.breakerCooldownCycles = 2000;
    ServiceStats s = runService(cfg);
    expectTaxonomyClosed(s);
    EXPECT_GT(s.eccDetectedUncorrectable, 0u);
    EXPECT_GT(outcome(s, RequestOutcome::Due), 0u);
    EXPECT_EQ(outcome(s, RequestOutcome::Sdc), 0u);
    EXPECT_GT(s.breakerTrips, 0u);
}

TEST(ServiceFaults, RetentionScrubServingStaysCleanUnderSecded)
{
    ServiceConfig cfg = dataFaultConfig(0.0, EccMode::Secded);
    cfg.faults.retentionRatePerCycle = 1e-8;
    cfg.faults.scrubIntervalCycles = 2048;
    ServiceStats s = runService(cfg);
    expectTaxonomyClosed(s);
    EXPECT_GT(s.dataFaultsInjected, 0u);
    EXPECT_GT(s.eccCorrections, 0u);
    EXPECT_EQ(outcome(s, RequestOutcome::Sdc), 0u);
    // The ECC sweep runs as maintenance work on the serving timeline.
    EXPECT_GT(s.maintenanceUnits, 0u);
}

TEST(ServiceFaults, EccCountersSurfaceInMetricsRegistry)
{
    ServiceConfig cfg = dataFaultConfig(1e-4, EccMode::Secded, 3);
    cfg.collectMetrics = true;
    ServiceStats s = runService(cfg);
    ASSERT_GT(s.dataFaultsInjected, 0u);
    std::uint64_t faults = 0, fixes = 0, dues = 0;
    for (std::uint32_t ch = 0; ch < cfg.channels; ++ch) {
        const obs::ComponentMetrics *ecc = s.metrics.find(
            "channel" + std::to_string(ch) + "/ecc");
        ASSERT_NE(ecc, nullptr) << "channel " << ch;
        faults += ecc->get(obs::Counter::DataFaultsInjected);
        fixes += ecc->get(obs::Counter::EccCorrections);
        dues += ecc->get(obs::Counter::EccDetectedUncorrectable);
    }
    // The registry view reconciles exactly with the run totals.
    EXPECT_EQ(faults, s.dataFaultsInjected);
    EXPECT_EQ(fixes, s.eccCorrections);
    EXPECT_EQ(dues, s.eccDetectedUncorrectable);
}

TEST(ServiceFaults, EccRepairsAreNotCountedAsMisalignCorrections)
{
    // No shift faults, so nothing is misaligned: SECDED and NMR
    // repairs must not reach the guard's correction count.
    ServiceConfig cfg = dataFaultConfig(1e-4, EccMode::Secded, 3);
    cfg.collectMetrics = true;
    ServiceStats s = runService(cfg);
    ASSERT_GT(s.eccCorrections, 0u);
    EXPECT_EQ(s.injectedFaults, 0u);
    EXPECT_EQ(s.metrics.total(obs::Counter::MisalignCorrections), 0u);
}

TEST(ServiceFaults, EccRunIsThreadCountInvariant)
{
    ServiceConfig cfg = dataFaultConfig(1e-4, EccMode::Secded, 3);
    cfg.channels = 4;
    cfg.faults.retentionRatePerCycle = 1e-9;
    cfg.collectMetrics = true;
    cfg.threads = 1;
    ServiceStats single = runService(cfg);
    EXPECT_GT(single.dataFaultsInjected, 0u);
    for (std::uint32_t threads : {2u, 4u}) {
        cfg.threads = threads;
        ServiceStats sharded = runService(cfg);
        EXPECT_EQ(single.makespan, sharded.makespan);
        EXPECT_EQ(single.dataFaultsInjected,
                  sharded.dataFaultsInjected);
        EXPECT_EQ(single.eccCorrections, sharded.eccCorrections);
        EXPECT_EQ(single.eccDetectedUncorrectable,
                  sharded.eccDetectedUncorrectable);
        for (std::size_t i = 0; i < kRequestOutcomes; ++i)
            EXPECT_EQ(single.outcomes[i], sharded.outcomes[i]) << i;
        EXPECT_EQ(single.metrics.toJson(), sharded.metrics.toJson());
    }
}

TEST(ServiceFaults, OutcomeNamesAreStable)
{
    EXPECT_STREQ(requestOutcomeName(RequestOutcome::Clean), "clean");
    EXPECT_STREQ(requestOutcomeName(RequestOutcome::Corrected),
                 "corrected");
    EXPECT_STREQ(requestOutcomeName(RequestOutcome::Due), "due");
    EXPECT_STREQ(requestOutcomeName(RequestOutcome::Sdc), "sdc");
    EXPECT_STREQ(requestOutcomeName(RequestOutcome::Rejected),
                 "rejected");
}

} // namespace
} // namespace coruscant
