/**
 * @file
 * Observability layer: MetricsRegistry algebra, TraceSink recording,
 * and the wiring through the device, unit, memory, controller, and
 * service layers — including the thread-count invariance the sharded
 * engine guarantees.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/dwm_memory.hpp"
#include "controller/memory_controller.hpp"
#include "core/coruscant_unit.hpp"
#include "dwm/dbc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "reliability/fault_campaign.hpp"
#include "service/service_engine.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

using obs::ComponentMetrics;
using obs::Counter;
using obs::MetricsRegistry;
using obs::TraceSink;

// ---------------------------------------------------------------- core

TEST(Metrics, ComponentCountersAndEnergy)
{
    MetricsRegistry reg;
    ComponentMetrics &c = reg.component("a/b");
    c.add(Counter::Shifts, 3);
    c.add(Counter::TrPulses);
    c.addEnergy(1.5);
    EXPECT_EQ(c.get(Counter::Shifts), 3u);
    EXPECT_EQ(c.get(Counter::TrPulses), 1u);
    EXPECT_EQ(c.get(Counter::Writes), 0u);
    EXPECT_DOUBLE_EQ(c.energyPj(), 1.5);
    // component() is find-or-create with stable identity.
    EXPECT_EQ(&reg.component("a/b"), &c);
    EXPECT_EQ(reg.find("a/b"), &c);
    EXPECT_EQ(reg.find("missing"), nullptr);
    EXPECT_EQ(reg.total(Counter::Shifts), 3u);
}

/** Random registry whose paths overlap across instances. */
MetricsRegistry
randomRegistry(std::uint64_t seed)
{
    Rng rng(seed);
    MetricsRegistry reg;
    const char *paths[] = {"mem", "mem/dbc", "guard", "chan0",
                           "chan1"};
    for (const char *p : paths) {
        ComponentMetrics &c = reg.component(p);
        for (std::size_t k = 0; k < obs::kCounterKinds; ++k)
            c.add(static_cast<Counter>(k), rng.nextBelow(100));
        c.addEnergy(static_cast<double>(rng.nextBelow(1000)));
    }
    return reg;
}

TEST(Metrics, MergeIsAssociativeAndOrderInsensitive)
{
    MetricsRegistry a = randomRegistry(1), b = randomRegistry(2),
                    c = randomRegistry(3);

    MetricsRegistry left; // (a + b) + c
    left.merge(a);
    left.merge(b);
    left.merge(c);
    MetricsRegistry right; // a + (b + c)
    MetricsRegistry bc;
    bc.merge(b);
    bc.merge(c);
    right.merge(a);
    right.merge(bc);
    MetricsRegistry rev; // c + b + a
    rev.merge(c);
    rev.merge(b);
    rev.merge(a);

    EXPECT_EQ(left.toJson(), right.toJson());
    EXPECT_EQ(left.toJson(), rev.toJson());
    EXPECT_EQ(left.total(Counter::Shifts),
              a.total(Counter::Shifts) + b.total(Counter::Shifts) +
                  c.total(Counter::Shifts));
}

TEST(Metrics, MergePrefixedKeepsShardsApart)
{
    MetricsRegistry shard = randomRegistry(4), out;
    out.mergePrefixed(shard, "rate100/batched");
    EXPECT_EQ(out.find("mem"), nullptr);
    ASSERT_NE(out.find("rate100/batched/mem"), nullptr);
    EXPECT_EQ(out.total(Counter::Shifts),
              shard.total(Counter::Shifts));
}

TEST(Metrics, DeltaReportsOnlyNewActivity)
{
    MetricsRegistry reg;
    reg.component("x").add(Counter::Reads, 5);
    MetricsRegistry snap = reg.snapshot();
    reg.component("x").add(Counter::Reads, 2);
    reg.component("y").add(Counter::Writes, 1);
    MetricsRegistry d = reg.delta(snap);
    ASSERT_NE(d.find("x"), nullptr);
    EXPECT_EQ(d.find("x")->get(Counter::Reads), 2u);
    ASSERT_NE(d.find("y"), nullptr);
    EXPECT_EQ(d.find("y")->get(Counter::Writes), 1u);
}

TEST(Trace, DisabledSinkRecordsNothing)
{
    TraceSink t;
    t.span("op", "cat", 0, 10, 0, 0);
    t.instant("tick", "cat", 7, 0, 0);
    t.processName(0, "p");
    EXPECT_FALSE(t.on());
    EXPECT_EQ(t.events(), 0u);
}

TEST(Trace, EnabledSinkBuffersAndSerializes)
{
    TraceSink t;
    t.enable();
    t.processName(1, "channel 1");
    t.span("gang", "dispatch", 100, 40, 1, 3, "members", 5.0);
    ASSERT_EQ(t.events(), 2u);
    std::string json = t.toJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"gang\""), std::string::npos);
    EXPECT_NE(json.find("\"members\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 40"), std::string::npos);
}

TEST(Trace, AppendConcatenatesInCallOrder)
{
    TraceSink a, b, merged;
    a.enable();
    b.enable();
    a.span("first", "c", 0, 1, 0, 0);
    b.span("second", "c", 0, 1, 1, 0);
    merged.append(a);
    merged.append(b);
    EXPECT_TRUE(merged.on()); // enabled-ness propagates
    ASSERT_EQ(merged.events(), 2u);
    EXPECT_EQ(merged.buffered()[0].name, "first");
    EXPECT_EQ(merged.buffered()[1].name, "second");
}

// ------------------------------------------------------------- wiring

TEST(ObsWiring, DbcCountsDevicePrimitives)
{
    DeviceParams p = DeviceParams::withTrd(7);
    p.wiresPerDbc = 32;
    DomainBlockCluster dbc(p);
    ComponentMetrics m;
    dbc.attachMetrics(&m);
    dbc.writeRowAtPort(Port::Left, BitVector(32, true));
    dbc.shiftRight();
    dbc.shiftRight();
    dbc.readRowAtPort(Port::Left);
    dbc.transverseReadAll();
    EXPECT_EQ(m.get(Counter::Writes), 1u);
    EXPECT_EQ(m.get(Counter::Shifts), 2u);
    EXPECT_EQ(m.get(Counter::Reads), 1u);
    EXPECT_EQ(m.get(Counter::TrPulses), 1u);
}

TEST(ObsWiring, UnitMetricsMirrorTheLedgerExactly)
{
    // Every charge helper mirrors its energy, so an instrumented unit's
    // component energy equals the CostLedger total to the last bit.
    DeviceParams p = DeviceParams::withTrd(7);
    p.wiresPerDbc = 64;
    CoruscantUnit unit(p);
    ComponentMetrics m;
    unit.attachMetrics(&m);
    std::vector<BitVector> ops(3, BitVector(64, true));
    unit.add(ops, 8);
    unit.bulkBitwise(BulkOp::Xor, ops);
    BitVector a = BitVector::fromUint64(64, 0x1234);
    unit.multiply(a, a, 8);
    EXPECT_GT(m.get(Counter::TrPulses), 0u);
    EXPECT_GT(m.get(Counter::Writes), 0u);
    EXPECT_DOUBLE_EQ(m.energyPj(), unit.ledger().energyPj());
}

TEST(ObsWiring, UnitTraceEmitsNamedSpans)
{
    DeviceParams p = DeviceParams::withTrd(7);
    p.wiresPerDbc = 64;
    CoruscantUnit unit(p);
    TraceSink trace;
    trace.enable();
    unit.attachTrace(&trace, 2, 5);
    BitVector a = BitVector::fromUint64(64, 77);
    unit.multiply(a, a, 8);
    ASSERT_GT(trace.events(), 0u);
    bool saw_multiply = false;
    for (const auto &e : trace.buffered()) {
        EXPECT_EQ(e.pid, 2u);
        EXPECT_EQ(e.tid, 5u);
        if (e.name == "multiply") {
            saw_multiply = true;
            EXPECT_EQ(e.ts, 0u); // began at cycle zero of this unit
            EXPECT_EQ(e.ts + e.dur, unit.ledger().cycles());
        }
    }
    EXPECT_TRUE(saw_multiply);
}

TEST(ObsWiring, MemoryAttachObsSeparatesAbstractionLevels)
{
    MemoryConfig mcfg;
    mcfg.banks = 1;
    mcfg.subarraysPerBank = 1;
    mcfg.tilesPerSubarray = 1;
    mcfg.dbcsPerTile = 2;
    DwmMainMemory mem(mcfg);
    MetricsRegistry reg;
    mem.attachObs(reg);
    mem.writeLine(0, BitVector(512, true));
    BitVector back = mem.readLine(0);
    EXPECT_TRUE(back.get(0));
    const ComponentMetrics *m = reg.find("memory");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->get(Counter::Reads), 1u);
    EXPECT_EQ(m->get(Counter::Writes), 1u);
    // The functional-DBC view counts the same traffic at its own level.
    const ComponentMetrics *dbc = reg.find("memory/dbc");
    ASSERT_NE(dbc, nullptr);
    EXPECT_EQ(dbc->get(Counter::Reads), 1u);
    EXPECT_EQ(dbc->get(Counter::Writes), 1u);
}

TEST(ObsWiring, ControllerCountsRequestsAndEmitsSpans)
{
    MemoryConfig mcfg;
    mcfg.banks = 1;
    mcfg.subarraysPerBank = 1;
    mcfg.tilesPerSubarray = 1;
    mcfg.dbcsPerTile = 2;
    DwmMainMemory mem(mcfg);
    MemoryController ctrl(mem);
    MetricsRegistry reg;
    TraceSink trace;
    trace.enable();
    mem.attachObs(reg, &trace);
    ctrl.attachObs(&reg.component("controller"), &trace);

    LineAddress loc{};
    for (std::size_t i = 0; i < 2; ++i) {
        loc.row = i;
        mem.writeLine(mem.addressMap().encode(loc),
                      BitVector(512, true));
    }
    CpimInstruction inst;
    inst.op = CpimOp::Add;
    loc.row = 0;
    inst.src = mem.addressMap().encode(loc);
    loc.row = 3;
    inst.dst = mem.addressMap().encode(loc);
    inst.operands = 2;
    inst.blockSize = 8;
    ctrl.execute(inst);

    EXPECT_EQ(reg.component("controller").get(Counter::Requests), 1u);
    bool saw_add_span = false;
    for (const auto &e : trace.buffered())
        if (e.phase == 'X' && e.name == "add" && e.cat == "cpim")
            saw_add_span = true;
    EXPECT_TRUE(saw_add_span);
    // PIM activity landed in its own component.
    const ComponentMetrics *pim = reg.find("memory/pim");
    ASSERT_NE(pim, nullptr);
    EXPECT_GT(pim->get(Counter::TrPulses), 0u);
}

TEST(ObsWiring, CampaignExportsComponentActivity)
{
    ControllerCampaignConfig cfg;
    cfg.trials = 20;
    cfg.shiftFaultRate = 2e-3;
    cfg.policy = GuardPolicy::PerCpim;
    MetricsRegistry reg;
    TraceSink trace;
    trace.enable();
    cfg.metrics = &reg;
    cfg.trace = &trace;
    auto res = FaultCampaign::controllerCampaign(cfg);
    EXPECT_EQ(res.trials, 20u);
    ASSERT_NE(reg.find("controller"), nullptr);
    EXPECT_EQ(reg.find("controller")->get(Counter::Requests), 20u);
    ASSERT_NE(reg.find("memory"), nullptr);
    EXPECT_GT(reg.find("memory")->get(Counter::Writes), 0u);
    EXPECT_GT(trace.events(), 0u);
}

// ------------------------------------------------------ service layer

ServiceConfig
smallServeConfig()
{
    ServiceConfig cfg;
    cfg.channels = 4;
    cfg.banksPerChannel = 4;
    cfg.durationCycles = 20000;
    cfg.ratePerKcycle = 40.0;
    cfg.seed = 11;
    cfg.collectMetrics = true;
    cfg.collectTrace = true;
    return cfg;
}

TEST(ObsService, MetricsAndTraceAreThreadCountInvariant)
{
    ServiceConfig cfg = smallServeConfig();
    cfg.threads = 1;
    ServiceStats one = runService(cfg);
    cfg.threads = 4;
    ServiceStats four = runService(cfg);
    EXPECT_GT(one.completed, 0u);
    EXPECT_EQ(one.metrics.toJson(), four.metrics.toJson());
    EXPECT_EQ(one.trace.toJson(), four.trace.toJson());
}

TEST(ObsService, RequestCounterMatchesCompletions)
{
    ServiceConfig cfg = smallServeConfig();
    cfg.collectTrace = false;
    ServiceStats stats = runService(cfg);
    EXPECT_EQ(stats.metrics.total(Counter::Requests),
              stats.completed);
    // Energy attribution is per channel and sums to the engine total.
    EXPECT_NEAR(stats.metrics.totalEnergyPj(), stats.energyPj,
                1e-6 * stats.energyPj);
    // Per-channel components exist for every channel.
    for (std::uint32_t ch = 0; ch < cfg.channels; ++ch)
        EXPECT_NE(stats.metrics.find("channel" + std::to_string(ch)),
                  nullptr)
            << ch;
}

TEST(ObsService, DisabledCollectionKeepsRegistryEmpty)
{
    ServiceConfig cfg = smallServeConfig();
    cfg.collectMetrics = false;
    cfg.collectTrace = false;
    ServiceStats stats = runService(cfg);
    EXPECT_TRUE(stats.metrics.empty());
    EXPECT_EQ(stats.trace.events(), 0u);
}

} // namespace
} // namespace coruscant
