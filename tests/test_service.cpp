/**
 * @file
 * Request-service subsystem: workload generation, TR-gang batching,
 * bounded-queue admission, and the sharded engine's bit-for-bit
 * thread-count invariance.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ios>
#include <string>
#include <vector>

#include "core/op_cost.hpp"
#include "service/batcher.hpp"
#include "service/request.hpp"
#include "service/service_engine.hpp"
#include "service/workload.hpp"
#include "util/logging.hpp"

namespace coruscant {
namespace {

// ---------------------------------------------------------------- mix

TEST(WorkloadMix, ParsesAndNormalizes)
{
    auto m = WorkloadMix::parse("read:1,bulk:3");
    EXPECT_DOUBLE_EQ(
        m.weight[static_cast<std::size_t>(RequestClass::Read)], 1.0);
    EXPECT_DOUBLE_EQ(
        m.weight[static_cast<std::size_t>(RequestClass::BulkBitwise)],
        3.0);
    EXPECT_DOUBLE_EQ(
        m.weight[static_cast<std::size_t>(RequestClass::MacTile)], 0.0);
    EXPECT_EQ(m.describe(), "read:0.25,bulk:0.75");
}

TEST(WorkloadMix, RejectsMalformedInput)
{
    EXPECT_THROW(WorkloadMix::parse("frobnicate:1"), FatalError);
    EXPECT_THROW(WorkloadMix::parse("read"), FatalError);
    EXPECT_THROW(WorkloadMix::parse("read:x"), FatalError);
    EXPECT_THROW(WorkloadMix::parse("read:-1"), FatalError);
    EXPECT_THROW(WorkloadMix::parse(""), FatalError);
    EXPECT_THROW(WorkloadMix::parse("read:0"), FatalError);
}

TEST(WorkloadMix, RejectsARepeatedClassByName)
{
    // A second weight for a class used to replace the first silently.
    try {
        WorkloadMix::parse("read:1,read:5,bulk:0");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("'read'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("twice"), std::string::npos) << msg;
    }
    EXPECT_THROW(WorkloadMix::parse("bulk:1,read:1,bulk:1"), FatalError);
    EXPECT_THROW(WorkloadMix::parse("mac:0,mac:0,add:1"), FatalError);
    // Every class once, in any order, keeps each weight exactly.
    auto m = WorkloadMix::parse(
        "mac:1e-3,reduce:0,add:3,,bulk:0.5,write:2,read:0.1");
    const double want[] = {0.1, 2.0, 0.5, 3.0, 0.0, 1e-3};
    const RequestClass order[] = {
        RequestClass::Read,       RequestClass::Write,
        RequestClass::BulkBitwise, RequestClass::MultiOpAdd,
        RequestClass::Reduce,     RequestClass::MacTile};
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(m.weight[static_cast<std::size_t>(order[i])], want[i])
            << requestClassName(order[i]);
}

// ---------------------------------------------------------- generator

TEST(WorkloadGenerator, DeterministicPerChannelStreams)
{
    WorkloadConfig cfg;
    cfg.ratePerKcycle = 20;
    cfg.durationCycles = 50000;
    WorkloadGenerator a(cfg, 42, 3), b(cfg, 42, 3), c(cfg, 42, 4);
    ServiceRequest ra, rb, rc;
    bool differs = false;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        EXPECT_EQ(ra.arrival, rb.arrival);
        EXPECT_EQ(ra.cls, rb.cls);
        EXPECT_EQ(ra.bank, rb.bank);
        EXPECT_EQ(ra.size, rb.size);
        if (c.next(rc) &&
            (rc.arrival != ra.arrival || rc.cls != ra.cls))
            differs = true;
    }
    EXPECT_FALSE(b.next(rb));
    EXPECT_TRUE(differs) << "channel streams must be independent";
}

TEST(WorkloadGenerator, PoissonHitsOfferedRate)
{
    WorkloadConfig cfg;
    cfg.ratePerKcycle = 50;
    cfg.durationCycles = 400000;
    WorkloadGenerator gen(cfg, 1, 0);
    ServiceRequest r;
    std::uint64_t n = 0, last = 0;
    while (gen.next(r)) {
        EXPECT_GE(r.arrival, last) << "arrivals must be ordered";
        EXPECT_LT(r.arrival, cfg.durationCycles);
        last = r.arrival;
        ++n;
    }
    double expected = cfg.ratePerKcycle * cfg.durationCycles / 1000.0;
    EXPECT_NEAR(static_cast<double>(n), expected, 0.05 * expected);
}

TEST(WorkloadGenerator, BurstyConservesLongRunRate)
{
    WorkloadConfig cfg;
    cfg.process = ArrivalProcess::Bursty;
    cfg.ratePerKcycle = 40;
    cfg.durationCycles = 500000;
    WorkloadGenerator gen(cfg, 9, 0);
    ServiceRequest r;
    std::uint64_t n = 0, last = 0;
    while (gen.next(r)) {
        EXPECT_GE(r.arrival, last);
        last = r.arrival;
        ++n;
    }
    double expected = cfg.ratePerKcycle * cfg.durationCycles / 1000.0;
    EXPECT_NEAR(static_cast<double>(n), expected, 0.15 * expected);
}

TEST(WorkloadGenerator, StreamEndsAtTheTopOfTheCycleRange)
{
    // At the longest duration the arrival clock reaches 2^64, which no
    // cycle count holds: the stream must end there.  Casting that
    // clock to a cycle wrapped it below the duration, and the stream
    // never ended.
    WorkloadConfig cfg;
    cfg.ratePerKcycle = 1e-12;
    cfg.durationCycles = UINT64_MAX;
    WorkloadGenerator gen(cfg, 1, 0);
    ServiceRequest r;
    bool ended = false;
    for (int i = 0; i < 1000000 && !ended; ++i)
        ended = !gen.next(r);
    EXPECT_TRUE(ended);
}

TEST(WorkloadGenerator, RejectsUnservableOpenLoopRates)
{
    // An open-loop rate above one arrival per cycle (or not finite)
    // would stall the arrival clock; a closed loop ignores the rate.
    WorkloadConfig cfg;
    for (ArrivalProcess p : {ArrivalProcess::Poisson, ArrivalProcess::Bursty}) {
        cfg.process = p;
        for (double rate : {0.0, -5.0, 1000.5, 1e300, HUGE_VAL, std::nan("")}) {
            cfg.ratePerKcycle = rate;
            EXPECT_THROW(WorkloadGenerator(cfg, 1, 0), FatalError) << rate;
        }
        cfg.ratePerKcycle = WorkloadConfig::kMaxRatePerKcycle;
        EXPECT_NO_THROW(WorkloadGenerator(cfg, 1, 0));
    }
    cfg.process = ArrivalProcess::ClosedLoop;
    cfg.ratePerKcycle = HUGE_VAL;
    EXPECT_NO_THROW(WorkloadGenerator(cfg, 1, 0));
}

TEST(WorkloadGenerator, RejectsAMixWhoseWeightsSumPastTheLargestDouble)
{
    // Each weight is finite, but the total is inf: every cumulative
    // share read 0 and the generator served only its last class.
    WorkloadConfig cfg;
    cfg.mix = WorkloadMix{};
    cfg.mix.weight[static_cast<std::size_t>(RequestClass::Read)] = 1e308;
    cfg.mix.weight[static_cast<std::size_t>(RequestClass::BulkBitwise)] =
        1e308;
    EXPECT_THROW(WorkloadGenerator(cfg, 1, 0), FatalError);
    EXPECT_THROW(WorkloadMix::parse("bulk:1e308,read:1e308"), FatalError);
    // A large total that stays finite is kept, weight for weight.
    auto m = WorkloadMix::parse("bulk:1e308,read:1e307");
    EXPECT_EQ(m.weight[static_cast<std::size_t>(RequestClass::BulkBitwise)],
              1e308);
    EXPECT_EQ(m.weight[static_cast<std::size_t>(RequestClass::Read)], 1e307);
    cfg.mix = m;
    EXPECT_NO_THROW(WorkloadGenerator(cfg, 1, 0));
}

TEST(WorkloadGenerator, SizesRespectClassDistributions)
{
    WorkloadConfig cfg;
    cfg.mix = WorkloadMix::uniform();
    cfg.ratePerKcycle = 50;
    cfg.durationCycles = 100000;
    cfg.maxAddOperands = 5;
    WorkloadGenerator gen(cfg, 3, 1);
    ServiceRequest r;
    while (gen.next(r)) {
        switch (r.cls) {
        case RequestClass::MultiOpAdd:
            EXPECT_GE(r.size, 2u);
            EXPECT_LE(r.size, 5u);
            break;
        case RequestClass::BulkBitwise:
        case RequestClass::Reduce:
            EXPECT_EQ(r.size, 1u);
            break;
        default:
            EXPECT_GE(r.size, 1u);
            EXPECT_LE(r.size, 4u);
        }
        EXPECT_LT(r.bank, cfg.banks);
        EXPECT_LT(r.dbcGroup, cfg.dbcGroups);
    }
}

// ------------------------------------------------------------ batcher

ServiceRequest
bulkAt(std::uint64_t arrival, std::uint32_t bank, std::uint32_t group)
{
    ServiceRequest r;
    r.cls = RequestClass::BulkBitwise;
    r.arrival = arrival;
    r.bank = bank;
    r.dbcGroup = group;
    return r;
}

TEST(GangBatcher, FullGangClosesImmediately)
{
    GangBatcher b(3, 1000);
    EXPECT_TRUE(b.add(bulkAt(10, 0, 0)).members.empty());
    EXPECT_TRUE(b.add(bulkAt(11, 0, 0)).members.empty());
    TrGang g = b.add(bulkAt(12, 0, 0));
    ASSERT_EQ(g.members.size(), 3u);
    EXPECT_EQ(g.readyAt, 12u);
    EXPECT_EQ(b.pending(), 0u);
    EXPECT_EQ(b.stats().fullCloses, 1u);
}

TEST(GangBatcher, WindowFlushRespectsDeadline)
{
    GangBatcher b(7, 100);
    b.add(bulkAt(50, 2, 1));
    b.add(bulkAt(80, 2, 1));
    EXPECT_EQ(b.nextDeadline(), 150u);
    EXPECT_TRUE(b.flushDue(149).empty());
    auto due = b.flushDue(150);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].members.size(), 2u);
    EXPECT_EQ(due[0].readyAt, 150u);
    EXPECT_EQ(b.stats().windowCloses, 1u);
}

TEST(GangBatcher, OnlySameAlignmentCoalesces)
{
    GangBatcher b(7, 100);
    b.add(bulkAt(0, 0, 0));
    b.add(bulkAt(1, 0, 1)); // same bank, other DBC group
    b.add(bulkAt(2, 1, 0)); // other bank
    EXPECT_EQ(b.pending(), 3u);
    auto all = b.flushDue(500);
    ASSERT_EQ(all.size(), 3u);
    for (const auto &g : all)
        EXPECT_EQ(g.members.size(), 1u);
}

TEST(GangBatcher, RejectsNonBulkRequests)
{
    GangBatcher b(7, 100);
    ServiceRequest r;
    r.cls = RequestClass::Read;
    EXPECT_THROW(b.add(r), FatalError);
}

// --------------------------------------------------------- cost table

void
expectCostOf(const RequestCost &got, std::uint32_t cmds, const OpCost &want)
{
    EXPECT_EQ(got.issueCmds, cmds);
    EXPECT_EQ(got.serviceCycles, want.cycles);
    EXPECT_EQ(got.energyPj, want.energyPj);
}

TEST(ServiceCostTable, EntriesEqualTheirCostModelMeasurements)
{
    for (std::size_t trd : {3u, 4u, 5u, 7u}) {
        SCOPED_TRACE(trd);
        const ServiceCostTable t = ServiceCostTable::build(trd);
        const CoruscantCostModel model(trd);
        ServiceRequest req;

        // A k-member gang is one (k+1)-operand bulk op; a bulk request
        // alone is a one-member gang.
        ASSERT_EQ(t.maxGangOperands(), trd - 1);
        for (std::size_t k = 1; k <= t.maxGangOperands(); ++k) {
            const OpCost want = model.bulkBitwise(k + 1);
            expectCostOf(t.gangCost(k), 1, want);
            EXPECT_EQ(t.gangPrims(k), want.prims) << k;
        }
        req.cls = RequestClass::BulkBitwise;
        expectCostOf(t.cost(req), 1, model.bulkBitwise(2));
        EXPECT_EQ(t.prims(req), model.bulkBitwise(2).prims);

        // An m-operand add is add(m, 8).
        ASSERT_EQ(t.maxAddOperands(), model.maxAddOperands());
        req.cls = RequestClass::MultiOpAdd;
        for (std::uint32_t m = 2; m <= t.maxAddOperands(); ++m) {
            const OpCost want = model.add(m, 8);
            req.size = m;
            expectCostOf(t.cost(req), 1, want);
            expectCostOf(t.addCost(m), 1, want);
            EXPECT_EQ(t.prims(req), want.prims) << m;
        }

        req.cls = RequestClass::Reduce;
        req.size = 1;
        expectCostOf(t.cost(req), 1, model.reduce());
        EXPECT_EQ(t.prims(req), model.reduce().prims);

        // A MAC lane is an 8-bit multiply plus its accumulate add, two
        // cpim commands.
        const OpCost mul = model.multiply(8);
        const OpCost acc = model.add(2, 8);
        OpCost lane;
        lane.cycles = mul.cycles + acc.cycles;
        lane.energyPj = mul.energyPj + acc.energyPj;
        lane.prims = {mul.prims.shifts + acc.prims.shifts,
                      mul.prims.trPulses + acc.prims.trPulses,
                      mul.prims.twPulses + acc.prims.twPulses,
                      mul.prims.reads + acc.prims.reads,
                      mul.prims.writes + acc.prims.writes};
        req.cls = RequestClass::MacTile;
        expectCostOf(t.cost(req), 2, lane);
        EXPECT_EQ(t.prims(req), lane.prims);

        // Line traffic and MAC tiles scale with their size.
        for (RequestClass cls : {RequestClass::Read, RequestClass::Write,
                                 RequestClass::MacTile}) {
            req.cls = cls;
            req.size = 1;
            const RequestCost one = t.cost(req);
            const obs::PrimCounts one_prims = t.prims(req);
            for (std::uint32_t n = 2; n <= 4; ++n) {
                req.size = n;
                const RequestCost got = t.cost(req);
                EXPECT_EQ(got.issueCmds, one.issueCmds * n);
                EXPECT_EQ(got.serviceCycles, one.serviceCycles * n);
                EXPECT_EQ(got.energyPj, one.energyPj * n);
                EXPECT_EQ(t.prims(req), one_prims.scaled(n));
            }
        }
    }
}

// ------------------------------------------------------------- engine

ServiceConfig
smallConfig()
{
    ServiceConfig cfg;
    cfg.channels = 4;
    cfg.threads = 1;
    cfg.banksPerChannel = 8;
    cfg.durationCycles = 20000;
    cfg.ratePerKcycle = 40;
    cfg.seed = 42;
    return cfg;
}

void
expectIdentical(const ServiceStats &a, const ServiceStats &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dispatchedUnits, b.dispatchedUnits);
    EXPECT_EQ(a.batch.gangs, b.batch.gangs);
    EXPECT_EQ(a.batch.gangedRequests, b.batch.gangedRequests);
    EXPECT_EQ(a.latency.count(), b.latency.count());
    EXPECT_EQ(a.latency.max(), b.latency.max());
    EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
    for (double q : {0.5, 0.95, 0.99, 0.999})
        EXPECT_EQ(a.latency.percentile(q), b.latency.percentile(q));
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
    EXPECT_DOUBLE_EQ(a.busUtilization, b.busUtilization);
    EXPECT_DOUBLE_EQ(a.bankUtilization, b.bankUtilization);
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
        EXPECT_EQ(a.perClass[c].generated, b.perClass[c].generated);
        EXPECT_EQ(a.perClass[c].rejected, b.perClass[c].rejected);
        EXPECT_EQ(a.perClass[c].completed, b.perClass[c].completed);
        EXPECT_EQ(a.perClass[c].maxQueueDepth,
                  b.perClass[c].maxQueueDepth);
        EXPECT_EQ(a.perClass[c].latency.p99(),
                  b.perClass[c].latency.p99());
    }
}

TEST(ServiceEngine, ThreadShardingIsBitIdentical)
{
    // The acceptance property: for a fixed seed the sharded run must
    // match the single-threaded run exactly, for every process type.
    for (auto process :
         {ArrivalProcess::Poisson, ArrivalProcess::Bursty,
          ArrivalProcess::ClosedLoop}) {
        ServiceConfig cfg = smallConfig();
        cfg.process = process;
        cfg.threads = 1;
        ServiceStats single = runService(cfg);
        for (std::uint32_t threads : {2u, 4u, 8u}) {
            cfg.threads = threads;
            ServiceStats sharded = runService(cfg);
            expectIdentical(single, sharded);
        }
    }
}

TEST(ServiceEngine, RunsAreReproducible)
{
    ServiceConfig cfg = smallConfig();
    expectIdentical(runService(cfg), runService(cfg));
}

TEST(ServiceEngine, CompletesAllAdmittedRequests)
{
    ServiceConfig cfg = smallConfig();
    ServiceStats s = runService(cfg);
    EXPECT_GT(s.generated, 0u);
    EXPECT_EQ(s.admitted, s.completed);
    EXPECT_EQ(s.generated, s.admitted + s.rejected);
    EXPECT_EQ(s.latency.count(), s.completed);
    EXPECT_GT(s.makespan, 0u);
    EXPECT_LE(s.busUtilization, 1.0);
    EXPECT_LE(s.bankUtilization, 1.0);
    std::uint64_t per_class_total = 0;
    for (const auto &pc : s.perClass)
        per_class_total += pc.completed;
    EXPECT_EQ(per_class_total, s.completed);
}

TEST(ServiceEngine, FaultFreeTaxonomyIsCleanOrRejected)
{
    // With the fault pipeline inactive, the outcome taxonomy still
    // closes: every completion is Clean, every drop is Rejected, and
    // the bins sum to the generated count.
    ServiceConfig cfg = smallConfig();
    cfg.queueCapacity = 4;
    cfg.ratePerKcycle = 400; // force backpressure rejections
    ServiceStats s = runService(cfg);
    EXPECT_EQ(s.outcomes[static_cast<std::size_t>(
                  RequestOutcome::Clean)],
              s.completed);
    EXPECT_EQ(s.outcomes[static_cast<std::size_t>(
                  RequestOutcome::Rejected)],
              s.rejected);
    EXPECT_GT(s.rejected, 0u);
    std::uint64_t total = 0;
    for (std::uint64_t n : s.outcomes)
        total += n;
    EXPECT_EQ(total, s.generated);
    EXPECT_EQ(s.outcomeLatency[static_cast<std::size_t>(
                                   RequestOutcome::Clean)]
                  .count(),
              s.completed);
}

TEST(ServiceEngine, UnboundedQueueNeverRejects)
{
    ServiceConfig cfg = smallConfig();
    cfg.queueCapacity = 0;
    cfg.ratePerKcycle = 200;
    ServiceStats s = runService(cfg);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.admitted, s.generated);
}

TEST(ServiceEngine, BackpressureShedsLoadUnderOverload)
{
    ServiceConfig cfg = smallConfig();
    cfg.queueCapacity = 4;
    cfg.ratePerKcycle = 400;
    ServiceStats s = runService(cfg);
    EXPECT_GT(s.rejected, 0u);
    for (const auto &pc : s.perClass)
        EXPECT_LE(pc.maxQueueDepth, cfg.queueCapacity);
}

TEST(ServiceEngine, ClosedLoopBoundsOutstanding)
{
    ServiceConfig cfg = smallConfig();
    cfg.process = ArrivalProcess::ClosedLoop;
    cfg.closedLoopWindow = 4;
    cfg.queueCapacity = 0; // the window is the only bound
    ServiceStats s = runService(cfg);
    EXPECT_GT(s.completed, 0u);
    EXPECT_EQ(s.rejected, 0u);
    for (const auto &pc : s.perClass)
        EXPECT_LE(pc.maxQueueDepth, cfg.closedLoopWindow);
}

TEST(ServiceEngine, GangsNeverExceedTrdOperands)
{
    ServiceConfig cfg = smallConfig();
    cfg.ratePerKcycle = 300;
    cfg.mix = WorkloadMix::parse("bulk:1");
    ServiceStats s = runService(cfg);
    EXPECT_GT(s.batch.gangs, 0u);
    // Members per gang <= TRD - 1 (plus the accumulator row = TRD).
    EXPECT_LE(s.batch.meanGangSize(),
              static_cast<double>(cfg.trd - 1));
    EXPECT_EQ(s.batch.gangedRequests,
              s.perClass[static_cast<std::size_t>(
                             RequestClass::BulkBitwise)]
                  .completed);
}

TEST(ServiceEngine, RunsAtEveryTrd)
{
    // The cost table builds at every TRD the PIM unit computes at,
    // TRD 4 (no super-carry, 3-row reduction) included, and the
    // engine refuses a TRD outside that range.
    for (std::size_t trd = DeviceParams::kMinPimTrd;
         trd <= DeviceParams::kMaxPimTrd; ++trd) {
        ServiceConfig cfg = smallConfig();
        cfg.trd = trd;
        ServiceStats s = runService(cfg);
        EXPECT_GT(s.completed, 0u) << trd;
        EXPECT_EQ(s.admitted, s.completed) << trd;
    }
    for (std::size_t trd : {2u, 32u}) {
        ServiceConfig cfg = smallConfig();
        cfg.trd = trd;
        EXPECT_THROW(runService(cfg), FatalError) << trd;
    }
}

TEST(ServiceEngine, BatchingSustainsHigherThroughputUnderLoad)
{
    // The tentpole claim at one load point: bulk-heavy overload,
    // batched vs unbatched, same seed.
    ServiceConfig cfg = smallConfig();
    cfg.channels = 2;
    cfg.durationCycles = 30000;
    cfg.ratePerKcycle = 500;
    cfg.mix = WorkloadMix::parse("bulk:0.9,read:0.05,write:0.05");
    cfg.batching = true;
    ServiceStats batched = runService(cfg);
    cfg.batching = false;
    ServiceStats unbatched = runService(cfg);
    EXPECT_GT(batched.throughputPerKcycle(),
              unbatched.throughputPerKcycle());
    EXPECT_LE(batched.latency.p99(), unbatched.latency.p99());
    EXPECT_GT(batched.batch.meanGangSize(), 2.0);
    EXPECT_EQ(unbatched.batch.gangs, 0u);
}

TEST(ServiceEngine, EmptyWorkloadIsWellFormed)
{
    ServiceConfig cfg = smallConfig();
    cfg.durationCycles = 0; // no arrival fits
    ServiceStats s = runService(cfg);
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(s.makespan, 0u);
    EXPECT_EQ(s.throughputPerKcycle(), 0.0);
    (void)s.report(); // must not crash on empty stats
}

// ------------------------------------------------------------- golden

/** FNV-1a 64 of @p text: pins a multi-line output in one constant. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One pinned serve configuration and its modeled outputs. */
struct ServeGolden
{
    const char *name;
    void (*configure)(ServiceConfig &);
    std::uint64_t reportDigest;  ///< fnv1a(report())
    std::uint64_t metricsDigest; ///< fnv1a(metrics.toJson())
    std::uint64_t makespan;
    double busUtilization; ///< compared bit-for-bit
    double bankUtilization;
    bool rejects = false; ///< the run must reject some requests
};

const ServeGolden kServeGoldens[] = {
    {"poisson", [](ServiceConfig &) {},
     0x166976da7ca14815ull, 0xc70893e0e515a01bull, 20356,
     0x1.c8eb7cb523db4p-5, 0x1.26ecacd956766p-3},
    {"bursty", [](ServiceConfig &c) { c.process = ArrivalProcess::Bursty; },
     0xa781a59e525122b5ull, 0x2460d13907f3bf49ull, 23046,
     0x1.ca9efeb729b92p-5, 0x1.40e8ed1ce0be5p-3},
    {"closed_loop",
     [](ServiceConfig &c) { c.process = ArrivalProcess::ClosedLoop; },
     0x6ede0c2c25fa21edull, 0xd22f108d36b8b0f8ull, 20239,
     0x1.0e1f259c38353p-4, 0x1.518b57e24e0c4p-3},
    {"chaos_per_cpim",
     [](ServiceConfig &c) {
         c.faults.ramp =
             ServiceFaultConfig::chaosRamp(1e-3, c.durationCycles);
         c.faults.policy = GuardPolicy::PerCpim;
         c.faults.tripsToRetire = 1; // reach the migration path
     },
     0x5295f2bf251a5591ull, 0xcaa8fea911fc492bull, 20358,
     0x1.ca00fabd49695p-5, 0x1.5a10b382ded4p-3},
    {"secded_nmr3",
     [](ServiceConfig &c) {
         c.faults.dataFaultRate = 1e-4;
         c.faults.retentionRatePerCycle = 1e-9;
         c.faults.ecc = EccMode::Secded;
         c.faults.pimNmr = 3;
     },
     0x40807f68441fc4cbull, 0x5458d278eb6442c1ull, 36419,
     0x1.185c9ae295e08p-5, 0x1.d0ce2adc108dbp-3},
    {"periodic_scrub",
     [](ServiceConfig &c) {
         c.faults.shiftFaultRate = 1e-3;
         c.faults.policy = GuardPolicy::PeriodicScrub;
     },
     0x31f163964ded5b64ull, 0xe0bdac449d4d351full, 20356,
     0x1.d5dcafe1de74ep-5, 0x1.29295df1d1b77p-3},
    {"chaos_per_access",
     [](ServiceConfig &c) {
         c.faults.ramp =
             ServiceFaultConfig::chaosRamp(1e-3, c.durationCycles);
     },
     0x9c9459066acb24f3ull, 0x4c05e293903a2ceeull, 20372,
     0x1.c8d01005b61fdp-5, 0x1.31d53227aeda3p-3},
    {"unguarded",
     [](ServiceConfig &c) {
         c.faults.shiftFaultRate = 1e-3;
         c.faults.policy = GuardPolicy::None;
     },
     0x77ef20a06c4308d2ull, 0x58f9b832889c6e5full, 20356,
     0x1.c8eb7cb523db4p-5, 0x1.26ecacd956766p-3},
    {"secded_port_path_pim",
     [](ServiceConfig &c) {
         c.faults.dataFaultRate = 1e-3;
         c.faults.ecc = EccMode::Secded;
         c.faults.pimNmr = 1; // PIM units climb the port-path DUE ladder
     },
     0xbd7cc3e5ec58e392ull, 0x4a41e331bf08f4feull, 38567,
     0x1.044dfb81999cbp-5, 0x1.a2aaedce3c62cp-3},
    {"closed_loop_rejects",
     [](ServiceConfig &c) {
         // A one-deep queue turns clients away; each rejected client
         // re-queues after the closed-loop reject wait.
         c.process = ArrivalProcess::ClosedLoop;
         c.queueCapacity = 1;
     },
     0xb48559d8d2779254ull, 0x1462540bb8b4c265ull, 20261,
     0x1.4e72af48f8748p-5, 0x1.c026b4024ad44p-4, true},
    {"closed_loop_scrub",
     [](ServiceConfig &c) {
         // Alignment and ECC scrub sweeps interleave with returning
         // clients, which pins their order at equal cycles.
         c.process = ArrivalProcess::ClosedLoop;
         c.faults.policy = GuardPolicy::PeriodicScrub;
         c.faults.shiftFaultRate = 1e-3;
         c.faults.dataFaultRate = 1e-4;
         c.faults.retentionRatePerCycle = 1e-7;
         c.faults.ecc = EccMode::Secded;
         c.faults.scrubIntervalCycles = 512;
     },
     0x55791b7db7c1234full, 0xa4de52081e804cbbull, 20377,
     0x1.18adf883e4e49p-4, 0x1.8cef83636d22ep-2},
};

TEST(ServiceEngine, GoldenServeOutputsArePinned)
{
    // Every modeled output of eleven representative configurations, as
    // the engine produced them when the goldens were captured: the
    // report text, the metrics document, and the channel timeline's
    // makespan and utilizations (exact doubles), at 1 and 4 threads.
    for (const ServeGolden &g : kServeGoldens) {
        ServiceConfig cfg = smallConfig();
        cfg.collectMetrics = true;
        g.configure(cfg);
        for (std::uint32_t threads : {1u, 4u}) {
            cfg.threads = threads;
            ServiceStats s = runService(cfg);
            std::string report = s.report();
            std::string metrics = s.metrics.toJson();
            SCOPED_TRACE(std::string(g.name) + " threads=" +
                         std::to_string(threads));
            EXPECT_EQ(fnv1a(report), g.reportDigest)
                << std::hex << "0x" << fnv1a(report) << "\n"
                << report;
            EXPECT_EQ(fnv1a(metrics), g.metricsDigest)
                << std::hex << "0x" << fnv1a(metrics) << "\n"
                << metrics;
            EXPECT_EQ(s.makespan, g.makespan);
            EXPECT_EQ(s.busUtilization, g.busUtilization)
                << std::hexfloat << s.busUtilization;
            EXPECT_EQ(s.bankUtilization, g.bankUtilization)
                << std::hexfloat << s.bankUtilization;
            if (g.rejects) {
                EXPECT_GT(s.rejected, 0u);
            }
        }
    }
}

TEST(ServiceEngine, MetricsComponentsPartitionTheEnergy)
{
    // Each picojoule is booked in exactly one component: a channel its
    // units' base cost, its guard component the shift verdicts and
    // maintenance, its ecc component the data verdicts.  So the
    // components sum to the engine total under every fault mix.
    std::size_t faulted = 0;
    for (const ServeGolden &g : kServeGoldens) {
        ServiceConfig cfg = smallConfig();
        cfg.collectMetrics = true;
        g.configure(cfg);
        if (!cfg.faults.enabled())
            continue;
        ++faulted;
        for (std::uint32_t threads : {1u, 4u}) {
            cfg.threads = threads;
            ServiceStats s = runService(cfg);
            double sum = 0.0;
            for (const auto &[path, m] : s.metrics.components())
                sum += m.energyPj();
            SCOPED_TRACE(std::string(g.name) + " threads=" +
                         std::to_string(threads));
            ASSERT_GT(s.energyPj, 0.0);
            EXPECT_LE(std::abs(sum - s.energyPj), 1e-12 * s.energyPj)
                << std::hexfloat << sum << " vs " << s.energyPj;
        }
    }
    EXPECT_EQ(faulted, 7u);
}

TEST(ServiceEngine, EccScrubEnergyIsBookedInTheEccComponent)
{
    // With no guard policy, the only maintenance is the ECC scrub:
    // each /guard component books nothing, and the scrub's energy is
    // in the /ecc components.
    ServiceConfig cfg = smallConfig();
    cfg.collectMetrics = true;
    cfg.faults.policy = GuardPolicy::None;
    cfg.faults.dataFaultRate = 1e-4;
    cfg.faults.retentionRatePerCycle = 1e-9;
    cfg.faults.ecc = EccMode::Secded;
    ServiceStats s = runService(cfg);
    ASSERT_GT(s.maintenanceUnits, 0u);
    std::size_t guards = 0;
    double ecc_pj = 0.0;
    for (const auto &[path, m] : s.metrics.components()) {
        if (path.ends_with("/guard")) {
            ++guards;
            EXPECT_EQ(m.energyPj(), 0.0) << path;
        } else if (path.ends_with("/ecc")) {
            ecc_pj += m.energyPj();
        }
    }
    EXPECT_EQ(guards, cfg.channels);
    EXPECT_GT(ecc_pj, 0.0);
}

TEST(ServiceEngine, RejectsBadConfigs)
{
    ServiceConfig cfg = smallConfig();
    cfg.channels = 0;
    EXPECT_THROW(runService(cfg), FatalError);
    cfg = smallConfig();
    cfg.ratePerKcycle = 0;
    EXPECT_THROW(runService(cfg), FatalError);
    // Every worker throws; the caller must join them all before the
    // first error reaches it.
    cfg.threads = 4;
    EXPECT_THROW(runService(cfg), FatalError);
    cfg = smallConfig();
    cfg.process = ArrivalProcess::ClosedLoop;
    cfg.closedLoopWindow = 0;
    EXPECT_THROW(runService(cfg), FatalError);
    cfg = smallConfig();
    cfg.faults.maxRetries = ServiceFaultConfig::kMaxRetries + 1;
    EXPECT_THROW(ServiceEngine{cfg}, FatalError);
    cfg = smallConfig();
    cfg.faults.retryBackoffCycles =
        ServiceFaultConfig::kMaxRetryBackoffCycles + 1;
    EXPECT_THROW(ServiceEngine{cfg}, FatalError);
    // An even NMR arity would tie the vote, data faults on or not.
    cfg = smallConfig();
    cfg.faults.pimNmr = 2;
    EXPECT_THROW(ServiceEngine{cfg}, FatalError);
    // A vote senses all N replicas in one TR window: N <= TRD.
    cfg = smallConfig();
    cfg.trd = 3;
    cfg.faults.pimNmr = 5;
    EXPECT_THROW(ServiceEngine{cfg}, FatalError);
    cfg.faults.pimNmr = 3;
    EXPECT_NO_THROW(ServiceEngine{cfg});
    cfg.trd = 5;
    cfg.faults.pimNmr = 7;
    EXPECT_THROW(ServiceEngine{cfg}, FatalError);
    // A zero breaker threshold or trip count would act as 1.
    cfg = smallConfig();
    cfg.faults.breakerThreshold = 0;
    EXPECT_THROW(ServiceEngine{cfg}, FatalError);
    cfg = smallConfig();
    cfg.faults.tripsToRetire = 0;
    EXPECT_THROW(ServiceEngine{cfg}, FatalError);
    // A window or cooldown past 2^32 cycles: arrival + window and
    // cycle + cooldown wrapped, so 2^64 - 1 acted as 0.
    cfg = smallConfig();
    cfg.batchWindowCycles = ServiceConfig::kMaxWaitCycles;
    cfg.faults.breakerCooldownCycles = ServiceConfig::kMaxWaitCycles;
    EXPECT_NO_THROW(ServiceEngine{cfg});
    for (std::uint64_t bad :
         {ServiceConfig::kMaxWaitCycles + 1, ~std::uint64_t{0}}) {
        cfg = smallConfig();
        cfg.batchWindowCycles = bad;
        EXPECT_THROW(ServiceEngine{cfg}, FatalError);
        cfg = smallConfig();
        cfg.faults.breakerCooldownCycles = bad;
        EXPECT_THROW(ServiceEngine{cfg}, FatalError);
    }
}

TEST(ServiceEngine, RetryLadderAtTheLimitIsNotTruncated)
{
    // The deepest, slowest ladder the config accepts: every retried
    // unit waits at least 2^32 cycles, which must reach the latency
    // tail in full rather than wrap in 32-bit service arithmetic.
    ServiceConfig cfg = smallConfig();
    cfg.channels = 2;
    cfg.faults.shiftFaultRate = 0.2;
    cfg.faults.policy = GuardPolicy::PerCpim;
    cfg.faults.maxRetries = ServiceFaultConfig::kMaxRetries;
    cfg.faults.retryBackoffCycles =
        ServiceFaultConfig::kMaxRetryBackoffCycles;
    ServiceStats s = runService(cfg);
    EXPECT_GT(s.guardRetries, 0u);
    EXPECT_GT(s.latency.p99(), 1ull << 32);
    EXPECT_GT(s.makespan, 1ull << 32);
}

} // namespace
} // namespace coruscant
