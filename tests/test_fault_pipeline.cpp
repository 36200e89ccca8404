/**
 * @file
 * End-to-end shift-fault tolerance: injection, guarded execution, the
 * retry ladder, DBC retirement, and the fault-campaign harness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "arch/dwm_memory.hpp"
#include "controller/memory_controller.hpp"
#include "reliability/fault_campaign.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace coruscant {
namespace {

MemoryConfig
smallConfig(GuardPolicy policy)
{
    MemoryConfig cfg;
    cfg.banks = 1;
    cfg.subarraysPerBank = 1;
    cfg.tilesPerSubarray = 1;
    cfg.dbcsPerTile = 2;
    cfg.pimDbcsPerSubarray = 1;
    cfg.device.wiresPerDbc = 64;
    cfg.reliability.guardPolicy = policy;
    return cfg;
}

/** Byte address of @p row in the first DBC of @p dbc. */
std::uint64_t
rowAddr(const DwmMainMemory &mem, std::size_t dbc, std::size_t row)
{
    LineAddress loc{};
    loc.dbc = dbc;
    loc.row = row;
    return mem.addressMap().encode(loc);
}

/** Stage @p count operand rows of random lanes; return the lane sums. */
std::vector<std::uint64_t>
stageOperands(DwmMainMemory &mem, std::uint64_t src, std::size_t count,
              std::size_t block, Rng &rng)
{
    std::size_t wires = mem.config().device.wiresPerDbc;
    std::size_t lanes = wires / block;
    std::uint64_t mask = (1ULL << block) - 1;
    std::vector<std::uint64_t> golden(lanes, 0);
    LineAddress loc = mem.addressMap().decode(src);
    for (std::size_t i = 0; i < count; ++i) {
        BitVector row(wires);
        for (std::size_t l = 0; l < lanes; ++l) {
            std::uint64_t v = rng.next() & mask;
            row.insertUint64(l * block, block, v);
            golden[l] = (golden[l] + v) & mask;
        }
        LineAddress op = loc;
        op.row = loc.row + i;
        mem.writeLine(mem.addressMap().encode(op), row);
    }
    return golden;
}

TEST(FaultPipeline, GuardedAccessCorrectsInjectedMisalignment)
{
    DwmMainMemory mem(smallConfig(GuardPolicy::PerAccess));
    BitVector data(64);
    for (std::size_t i = 0; i < 64; ++i)
        data.set(i, i % 3 == 0);
    mem.writeLine(0, data);
    mem.injectShiftFaultAt(0, true);
    // The guarded read detects the misalignment after the alignment
    // burst and corrects it before the port touches the row.
    EXPECT_EQ(mem.readLine(0), data);
    EXPECT_GE(mem.detectedMisalignments(), 1u);
    EXPECT_GE(mem.correctedMisalignments(), 1u);
    EXPECT_EQ(mem.uncorrectableEvents(), 0u);
}

TEST(FaultPipeline, UnguardedAccessReadsWrongRowSilently)
{
    DwmMainMemory mem(smallConfig(GuardPolicy::None));
    BitVector row0(64), row1(64);
    row0.set(0, true);
    row1.set(1, true);
    mem.writeLine(rowAddr(mem, 0, 0), row0);
    mem.writeLine(rowAddr(mem, 0, 1), row1);
    mem.injectShiftFaultAt(0, true);
    // No guard: the misalignment goes unnoticed and the read returns
    // the neighbouring row — the silent corruption of the taxonomy.
    EXPECT_NE(mem.readLine(0), row0);
    EXPECT_EQ(mem.guardChecks(), 0u);
}

TEST(FaultPipeline, CheckLineReportsAndChargesGuardWork)
{
    DwmMainMemory mem(smallConfig(GuardPolicy::PerCpim));
    mem.writeLine(0, BitVector(64));
    mem.injectShiftFaultAt(0, false);
    MemoryEvents rep = mem.checkLine(0);
    EXPECT_EQ(rep.guardChecks, 1u);
    EXPECT_EQ(rep.misaligned, 1u);
    EXPECT_GE(rep.correctedMisalignments, 1u);
    EXPECT_EQ(rep.uncorrectable, 0u);
    const auto &by = mem.ledger();
    ASSERT_NE(by.entry(Cost::Guard).count, 0u);
    ASSERT_NE(by.entry(Cost::GuardFix).count, 0u);
    EXPECT_GT(by.entry(Cost::Guard).cycles, 0u);
    EXPECT_GT(by.entry(Cost::GuardFix).cycles, 0u);
}

TEST(FaultPipeline, GuardedCpimCorrectsPreExistingMisalignment)
{
    DwmMainMemory mem(smallConfig(GuardPolicy::PerCpim));
    MemoryController ctrl(mem);
    Rng rng(9);
    auto golden = stageOperands(mem, 0, 3, 8, rng);
    std::uint64_t dst =
        ctrl.operandAddress(0, 4); // past the operand rows
    mem.injectShiftFaultAt(0, true);

    CpimInstruction inst;
    inst.op = CpimOp::Add;
    inst.src = 0;
    inst.dst = dst;
    inst.operands = 3;
    inst.blockSize = 8;
    ExecReport rep = ctrl.executeGuarded(inst);
    EXPECT_NE(rep.outcome, ExecOutcome::Uncorrectable);
    EXPECT_GE(mem.correctedMisalignments(), 1u);
    BitVector got = mem.readLine(dst);
    for (std::size_t l = 0; l < golden.size(); ++l)
        EXPECT_EQ(got.sliceUint64(l * 8, 8), golden[l]) << "lane " << l;
    EXPECT_EQ(ctrl.executedInstructions(), 1u);
}

TEST(FaultPipeline, DecodeOnceFollowsASourceDbcRetiredByThePreCheck)
{
    // The controller decodes src and dst once per cpim, but the
    // pre-check retires the source DBC before any operand is read: the
    // reads must resolve the logical DBC to its spare, not the cluster
    // the decode first named.
    MemoryConfig cfg = smallConfig(GuardPolicy::PerCpim);
    cfg.reliability.eccMode = EccMode::Secded;
    cfg.reliability.retireThreshold = 1;
    DwmMainMemory mem(cfg);
    MemoryController ctrl(mem);
    Rng rng(21);
    auto golden = stageOperands(mem, 0, 3, 8, rng);
    const std::uint64_t dst = rowAddr(mem, 1, 0); // another DBC
    mem.injectShiftFaultAt(0, true);

    CpimInstruction inst;
    inst.op = CpimOp::Add;
    inst.src = 0;
    inst.dst = dst;
    inst.operands = 3;
    inst.blockSize = 8;
    ExecReport rep = ctrl.executeGuarded(inst);
    EXPECT_EQ(rep.outcome, ExecOutcome::Corrected);
    EXPECT_EQ(mem.retiredDbcs(), 1u);
    // The spare and the destination DBC; the retired cluster is gone
    // and nothing re-materialized it.
    EXPECT_EQ(mem.touchedDbcs(), 2u);
    for (std::size_t l = 0; l < golden.size(); ++l)
        EXPECT_EQ(rep.result.sliceUint64(l * 8, 8), golden[l])
            << "lane " << l;
    EXPECT_EQ(mem.readLine(dst), rep.result);
    EXPECT_EQ(mem.eccDetectedUncorrectable(), 0u);
}

TEST(FaultPipeline, OperandRowPastTheDbcKeepsItsDiagnostic)
{
    DwmMainMemory mem(smallConfig(GuardPolicy::PerCpim));
    MemoryController ctrl(mem);
    const std::size_t rows = mem.config().device.domainsPerWire;
    const std::uint64_t src = rowAddr(mem, 0, rows - 2);
    std::ostringstream want;
    want << "operand row 2 of src=0x" << std::hex << src << std::dec
         << " (DBC row " << rows << ") runs past the end of the DBC ("
         << rows << " rows)";

    CpimInstruction inst;
    inst.op = CpimOp::Add;
    inst.src = src;
    inst.dst = rowAddr(mem, 1, 0);
    inst.operands = 3;
    inst.blockSize = 8;
    for (int form = 0; form < 2; ++form) {
        try {
            if (form == 0)
                (void)ctrl.executeGuarded(inst);
            else
                (void)ctrl.operandAddress(src, 2);
            FAIL() << "expected FatalError, form " << form;
        } catch (const FatalError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find(want.str()), std::string::npos)
                << "form " << form << ": " << msg;
        }
    }
    // The last row in the DBC is still an operand.
    EXPECT_EQ(ctrl.operandAddress(src, 1), rowAddr(mem, 0, rows - 1));
}

TEST(FaultPipeline, IsaViolationDiagnosticsNameTheInstruction)
{
    DwmMainMemory mem(smallConfig(GuardPolicy::None));
    MemoryController ctrl(mem);
    CpimInstruction inst;
    inst.op = CpimOp::Add;
    inst.src = 0;
    inst.dst = 64;
    inst.operands = 6; // > TRD-2: ISA violation
    inst.blockSize = 8;
    try {
        ctrl.execute(inst);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("cpim add"), std::string::npos) << msg;
        EXPECT_NE(msg.find("src=0x"), std::string::npos) << msg;
        EXPECT_NE(msg.find("operands=6"), std::string::npos) << msg;
    }
}

TEST(FaultPipeline, WornDbcIsRetiredAndRemapped)
{
    MemoryConfig cfg = smallConfig(GuardPolicy::PerAccess);
    cfg.reliability.retireThreshold = 2;
    cfg.reliability.spareDbcs = 4;
    DwmMainMemory mem(cfg);
    BitVector data(64);
    data.set(7, true);
    mem.writeLine(0, data);
    for (int i = 0; i < 3; ++i) {
        mem.injectShiftFaultAt(0, true);
        EXPECT_EQ(mem.readLine(0), data) << "round " << i;
    }
    EXPECT_GE(mem.retiredDbcs(), 1u);
    ASSERT_NE(mem.ledger().entry(Cost::Retire).count, 0u);
    // The logical address transparently follows the remap.
    EXPECT_EQ(mem.readLine(0), data);
    mem.writeLine(0, BitVector(64));
    EXPECT_EQ(mem.readLine(0), BitVector(64));
}

TEST(FaultPipeline, SpareExhaustionIsCountedNotFatal)
{
    MemoryConfig cfg = smallConfig(GuardPolicy::PerAccess);
    cfg.reliability.retireThreshold = 1;
    cfg.reliability.spareDbcs = 1;
    DwmMainMemory mem(cfg);
    BitVector a(64), b(64);
    a.set(1, true);
    b.set(2, true);
    std::uint64_t other = rowAddr(mem, 1, 0);
    mem.writeLine(0, a);
    mem.writeLine(other, b);
    for (int i = 0; i < 2; ++i) {
        mem.injectShiftFaultAt(0, true);
        EXPECT_EQ(mem.readLine(0), a);
        mem.injectShiftFaultAt(other, true);
        EXPECT_EQ(mem.readLine(other), b);
    }
    EXPECT_EQ(mem.retiredDbcs(), 1u);
    EXPECT_GE(mem.retirementFailures(), 1u);
}

TEST(FaultPipeline, SpareExhaustionIsATypedControllerOutcome)
{
    // Retirement wants a spare on every correction (threshold 1) but
    // the pool is empty: the guarded cpim must come back with the
    // typed capacity error, not a bare Uncorrectable or a silent
    // Corrected, so serving layers can shed load instead of retrying.
    MemoryConfig cfg = smallConfig(GuardPolicy::PerCpim);
    cfg.reliability.retireThreshold = 1;
    cfg.reliability.spareDbcs = 0;
    DwmMainMemory mem(cfg);
    MemoryController ctrl(mem);
    Rng rng(11);
    auto golden = stageOperands(mem, 0, 3, 8, rng);
    std::uint64_t dst = ctrl.operandAddress(0, 4);
    mem.injectShiftFaultAt(0, true);

    CpimInstruction inst;
    inst.op = CpimOp::Add;
    inst.src = 0;
    inst.dst = dst;
    inst.operands = 3;
    inst.blockSize = 8;
    ExecReport rep = ctrl.executeGuarded(inst);
    EXPECT_EQ(rep.outcome, ExecOutcome::SparesExhausted);
    EXPECT_EQ(ctrl.spareExhaustedInstructions(), 1u);
    EXPECT_GE(mem.retirementFailures(), 1u);
    // The correction itself still succeeded; the data is intact.
    BitVector got = mem.readLine(dst);
    for (std::size_t l = 0; l < golden.size(); ++l)
        EXPECT_EQ(got.sliceUint64(l * 8, 8), golden[l]) << "lane " << l;
}

TEST(FaultPipeline, RetryBackoffIsChargedExponentially)
{
    MemoryConfig cfg = smallConfig(GuardPolicy::PerCpim);
    cfg.reliability.shiftFaultRate = 0.05;
    cfg.reliability.shiftFaultSeed = 3;
    cfg.reliability.retryBackoffCycles = 64;
    cfg.reliability.maxRetries = 3;
    DwmMainMemory mem(cfg);
    MemoryController ctrl(mem);
    Rng rng(4);
    stageOperands(mem, 0, 3, 8, rng);
    CpimInstruction inst;
    inst.op = CpimOp::Add;
    inst.src = 0;
    inst.dst = ctrl.operandAddress(0, 4);
    inst.operands = 3;
    inst.blockSize = 8;
    // Ladder depth of each of the first executions, and the backoff
    // they charged: rung k waits 64 << k, so an instruction that
    // retried r times waited 64 * (2^r - 1) cycles.
    std::vector<unsigned> retries;
    std::uint64_t expected_wait = 0;
    for (int i = 0; i < 12; ++i) {
        retries.push_back(ctrl.executeGuarded(inst).retries);
        expected_wait += 64 * ((1ull << retries.back()) - 1);
    }
    EXPECT_EQ(retries, (std::vector<unsigned>{0, 0, 0, 0, 1, 0, 0, 2, 0, 1,
                                              2, 0}));
    const auto &by = mem.ledger();
    ASSERT_NE(by.entry(Cost::RetryBackoff).count, 0u);
    EXPECT_EQ(expected_wait, 512u);
    EXPECT_EQ(by.entry(Cost::RetryBackoff).cycles, expected_wait);
}

TEST(FaultPipeline, ZeroBackoffPreservesPreBackoffLedger)
{
    // retryBackoffCycles = 0 (the default) must leave no trace in the
    // ledger, keeping golden cost tests valid.
    MemoryConfig cfg = smallConfig(GuardPolicy::PerCpim);
    cfg.reliability.shiftFaultRate = 0.05;
    cfg.reliability.shiftFaultSeed = 3;
    cfg.reliability.maxRetries = 3;
    DwmMainMemory mem(cfg);
    MemoryController ctrl(mem);
    Rng rng(4);
    stageOperands(mem, 0, 3, 8, rng);
    CpimInstruction inst;
    inst.op = CpimOp::Add;
    inst.src = 0;
    inst.dst = ctrl.operandAddress(0, 4);
    inst.operands = 3;
    inst.blockSize = 8;
    for (int i = 0; i < 50; ++i)
        (void)ctrl.executeGuarded(inst);
    EXPECT_EQ(mem.ledger().entry(Cost::RetryBackoff).count, 0u);
}

TEST(FaultPipeline, RetryLadderBeyondItsLimitsDoesNotBuild)
{
    // Rung k charges `backoff << k`: a 17th rung or a first wait above
    // 2^32 leaves the range that keeps the shift and the sum defined.
    MemoryConfig cfg = smallConfig(GuardPolicy::PerCpim);
    cfg.reliability.maxRetries = ReliabilityConfig::kMaxRetries + 1;
    EXPECT_THROW(DwmMainMemory{cfg}, FatalError);
    cfg = smallConfig(GuardPolicy::PerCpim);
    cfg.reliability.retryBackoffCycles =
        ReliabilityConfig::kMaxRetryBackoffCycles + 1;
    EXPECT_THROW(DwmMainMemory{cfg}, FatalError);
}

TEST(FaultPipeline, PimNmrOutsideOneThreeFiveSevenDoesNotBuild)
{
    // Checked at construction, not when the first PIM op votes.
    for (std::size_t n : {0u, 2u, 4u, 9u}) {
        MemoryConfig cfg = smallConfig(GuardPolicy::PerCpim);
        cfg.reliability.pimNmr = n;
        EXPECT_THROW(DwmMainMemory{cfg}, FatalError) << n;
    }
    MemoryConfig cfg = smallConfig(GuardPolicy::PerCpim);
    cfg.reliability.pimNmr = 5;
    EXPECT_NO_THROW(DwmMainMemory{cfg});
    // A vote senses all N replicas in one TR window: N <= TRD.
    cfg.device.trd = 3;
    EXPECT_THROW(DwmMainMemory{cfg}, FatalError);
    cfg.reliability.pimNmr = 3;
    EXPECT_NO_THROW(DwmMainMemory{cfg});
}

TEST(FaultPipeline, RetryLadderAtItsLimitsRunsAGuardedCampaign)
{
    // The deepest, slowest ladder the config accepts, under a heavy
    // fault rate that climbs several rungs: every charge must stay
    // defined (CI runs this under UBSan) and a whole multiple of the
    // first wait.
    MemoryConfig cfg = smallConfig(GuardPolicy::PerCpim);
    cfg.reliability.shiftFaultRate = 0.5;
    cfg.reliability.shiftFaultSeed = 3;
    cfg.reliability.maxRetries = ReliabilityConfig::kMaxRetries;
    cfg.reliability.retryBackoffCycles =
        ReliabilityConfig::kMaxRetryBackoffCycles;
    DwmMainMemory mem(cfg);
    MemoryController ctrl(mem);
    Rng rng(4);
    stageOperands(mem, 0, 3, 8, rng);
    CpimInstruction inst;
    inst.op = CpimOp::Add;
    inst.src = 0;
    inst.dst = ctrl.operandAddress(0, 4);
    inst.operands = 3;
    inst.blockSize = 8;
    unsigned deepest = 0;
    for (int i = 0; i < 50; ++i)
        deepest = std::max(deepest, ctrl.executeGuarded(inst).retries);
    EXPECT_GT(deepest, 4u);
    EXPECT_LE(deepest, ReliabilityConfig::kMaxRetries);
    std::uint64_t charged =
        mem.ledger().entry(Cost::RetryBackoff).cycles;
    EXPECT_GE(charged, (1ull << 32) * ((1ull << deepest) - 1));
    EXPECT_EQ(charged % (1ull << 32), 0u);
}

TEST(FaultPipeline, ScrubSweepRealignsEveryTouchedDbc)
{
    DwmMainMemory mem(smallConfig(GuardPolicy::PeriodicScrub));
    BitVector data(64);
    data.set(3, true);
    std::uint64_t other = rowAddr(mem, 1, 0);
    mem.writeLine(0, data);
    mem.writeLine(other, data);
    mem.injectShiftFaultAt(0, true);
    mem.injectShiftFaultAt(other, false);
    ScrubReport sweep = mem.scrubAll();
    EXPECT_EQ(sweep.scanned, 2u);
    EXPECT_EQ(sweep.corrected, 2u);
    EXPECT_EQ(sweep.uncorrectable, 0u);
    EXPECT_EQ(mem.scrubAll().corrected, 0u); // second sweep is clean
}

TEST(FaultPipeline, CampaignIsBitIdenticalForFixedSeed)
{
    ControllerCampaignConfig cfg;
    cfg.trials = 200;
    cfg.shiftFaultRate = 2e-3;
    cfg.seed = 5;
    auto a = FaultCampaign::controllerCampaign(cfg);
    auto b = FaultCampaign::controllerCampaign(cfg);
    EXPECT_EQ(a.clean, b.clean);
    EXPECT_EQ(a.corrected, b.corrected);
    EXPECT_EQ(a.due, b.due);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.injectedFaults, b.injectedFaults);
    EXPECT_EQ(a.guardChecks, b.guardChecks);
    EXPECT_EQ(a.correctivePulses, b.correctivePulses);
    EXPECT_EQ(a.retiredDbcs, b.retiredDbcs);
    EXPECT_EQ(a.residualAfterScrub, b.residualAfterScrub);
}

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

/** One pinned controller-campaign configuration and its outputs. */
struct CampaignGolden
{
    const char *name;
    void (*configure)(ControllerCampaignConfig &);
    const char *fields;          ///< fields(result)
    std::uint64_t metricsDigest; ///< fnv1a(metrics.toJson())
};

/**
 * Every field of @p r in declaration order: trials, clean, corrected,
 * due, sdc, injectedFaults, guardChecks, correctivePulses, retiredDbcs,
 * residualAfterScrub, dataFaultsInjected, eccCorrections, eccDue.
 */
std::string
fields(const ControllerCampaignResult &r)
{
    std::ostringstream os;
    os << r.trials << " " << r.clean << " " << r.corrected << " "
       << r.due << " " << r.sdc << " " << r.injectedFaults << " "
       << r.guardChecks << " " << r.correctivePulses << " "
       << r.retiredDbcs << " " << r.residualAfterScrub << " "
       << r.dataFaultsInjected << " " << r.eccCorrections << " "
       << r.eccDue;
    return os.str();
}

const CampaignGolden kCampaignGoldens[] = {
    {"none",
     [](ControllerCampaignConfig &c) { c.policy = GuardPolicy::None; },
     "1000 939 0 0 61 108 0 0 0 0 0 0 0", 0xe04d8a8e93b0a664ull},
    {"per_access", [](ControllerCampaignConfig &) {},
     "1000 898 102 0 0 108 12016 128 0 0 0 0 0", 0x7502e20dd44bd628ull},
    {"per_access_retire",
     [](ControllerCampaignConfig &c) { c.retireThreshold = 4; },
     "1000 896 103 1 0 110 12038 124 25 0 0 0 0", 0xa729be1e3029af9bull},
    {"per_cpim",
     [](ControllerCampaignConfig &c) { c.policy = GuardPolicy::PerCpim; },
     "1000 869 25 15 91 112 4124 151 0 0 0 0 0", 0xb3f0b75b8f73e3f6ull},
    {"scrub",
     [](ControllerCampaignConfig &c) {
         c.policy = GuardPolicy::PeriodicScrub;
     },
     "1000 904 21 12 63 108 749 103 0 0 0 0 0", 0x45daabe5110b02e7ull},
    {"per_cpim_secded_nmr3",
     [](ControllerCampaignConfig &c) {
         c.policy = GuardPolicy::PerCpim;
         c.dataFaultRate = 1e-4;
         c.retentionRatePerCycle = 1e-9;
         c.ecc = EccMode::Secded;
         c.pimNmr = 3;
     },
     "1000 646 207 20 127 189 4270 222 0 0 201 313 0",
     0x277e5d001375be7bull},
    {"per_cpim_secded_due_retire",
     [](ControllerCampaignConfig &c) {
         c.policy = GuardPolicy::PerCpim;
         c.dataFaultRate = 1e-3;
         c.retentionRatePerCycle = 1e-8;
         c.ecc = EccMode::Secded;
         c.retireThreshold = 2;
     },
     "1000 291 426 225 58 112 4228 128 64 0 946 1202 110",
     0x034d686d4080d061ull},
};

TEST(FaultPipeline, GoldenCampaignOutputsArePinned)
{
    // Every field of the campaign result and the whole metrics
    // document of seven configurations, as the campaign produced them
    // when the goldens were captured: each guard policy at a fault
    // rate that reaches its retry, retirement and scrub paths, the
    // SECDED + NMR-3 + retention data-fault pipeline, and SECDED
    // alone at a data-fault rate whose DUEs climb the controller's
    // ladder and retire DBCs until the spare pool runs out.
    for (const CampaignGolden &g : kCampaignGoldens) {
        SCOPED_TRACE(g.name);
        ControllerCampaignConfig cfg;
        cfg.trials = 1000;
        cfg.shiftFaultRate = 5e-3;
        g.configure(cfg);
        obs::MetricsRegistry reg;
        cfg.metrics = &reg;
        ControllerCampaignResult r = FaultCampaign::controllerCampaign(cfg);
        EXPECT_EQ(fields(r), g.fields);
        std::string metrics = reg.toJson();
        EXPECT_EQ(fnv1a(metrics), g.metricsDigest)
            << std::hex << "0x" << fnv1a(metrics) << "\n"
            << metrics;
    }
}

// ------------------------------------------------ one event record

/** Every field of MemoryEvents, for field-wise sums and comparisons. */
constexpr std::uint64_t MemoryEvents::*kEventFields[] = {
    &MemoryEvents::guardChecks,    &MemoryEvents::misaligned,
    &MemoryEvents::correctedMisalignments,
    &MemoryEvents::uncorrectable,  &MemoryEvents::retired,
    &MemoryEvents::retireFailures, &MemoryEvents::eccCorrections,
    &MemoryEvents::eccDue};

/** Random writes and reads over every row of @p mem's DBCs. */
void
churn(DwmMainMemory &mem, Rng &rng, int accesses)
{
    const MemoryConfig &mc = mem.config();
    for (int i = 0; i < accesses; ++i) {
        LineAddress loc{};
        loc.dbc = rng.nextBelow(mc.dbcsPerTile);
        loc.row = rng.nextBelow(mc.device.domainsPerWire);
        if (rng.nextBool()) {
            BitVector row(mc.device.wiresPerDbc);
            row.setWords([&](std::size_t) { return rng.next(); });
            mem.writeLine(loc, row);
        } else {
            (void)mem.readLine(loc);
        }
    }
}

TEST(MemoryEvents, ComponentsPartitionTheLedgerAndGettersReadTheRecord)
{
    // Every reliability path at once: per-access checks, shift faults,
    // SECDED with transient and retention faults (so ECC scrubs run),
    // and a retire threshold that both consumes and exhausts spares.
    MemoryConfig cfg = smallConfig(GuardPolicy::PerAccess);
    cfg.reliability.shiftFaultRate = 5e-3;
    cfg.reliability.eccMode = EccMode::Secded;
    cfg.reliability.dataFaultRate = 2e-3;
    cfg.reliability.retentionRatePerCycle = 1e-7;
    cfg.reliability.retireThreshold = 2;
    cfg.reliability.spareDbcs = 1;
    DwmMainMemory mem(cfg);
    obs::MetricsRegistry reg;
    mem.attachObs(reg);
    Rng rng(3);
    churn(mem, rng, 4000);
    mem.scrubAll();

    const MemoryEvents &ev = mem.events();
    for (const auto &f : kEventFields)
        EXPECT_GT(ev.*f, 0u) << "field " << &f - kEventFields;
    EXPECT_EQ(mem.guardChecks(), ev.guardChecks);
    EXPECT_EQ(mem.detectedMisalignments(), ev.misaligned);
    EXPECT_EQ(mem.correctedMisalignments(), ev.correctedMisalignments);
    EXPECT_EQ(mem.uncorrectableEvents(), ev.uncorrectable);
    EXPECT_EQ(mem.retiredDbcs(), ev.retired);
    EXPECT_EQ(mem.retirementFailures(), ev.retireFailures);
    EXPECT_EQ(mem.eccCorrections(), ev.eccCorrections);
    EXPECT_EQ(mem.eccDetectedUncorrectable(), ev.eccDue);

    // Each picojoule the ledger holds is in exactly one of the
    // memory's own components ("memory/dbc" and "memory/pim" observe
    // primitives, not the ledger).
    double parts = 0.0;
    for (const char *path : {"memory", "guard", "ecc"}) {
        const obs::ComponentMetrics *m = reg.find(path);
        ASSERT_NE(m, nullptr) << path;
        EXPECT_GT(m->energyPj(), 0.0) << path;
        parts += m->energyPj();
    }
    double total = mem.ledger().energyPj();
    EXPECT_LE(std::abs(parts - total), 1e-12 * total)
        << std::hexfloat << parts << " vs " << total;
}

TEST(MemoryEvents, CheckLineReturnsExactlyItsCheck)
{
    // Under per-cpim nothing but checkLine touches the guard record, so
    // the checks' returned deltas sum to the record's growth, field by
    // field, retirements and refused retirements included.
    MemoryConfig cfg = smallConfig(GuardPolicy::PerCpim);
    cfg.reliability.shiftFaultRate = 2e-2;
    cfg.reliability.retireThreshold = 2;
    cfg.reliability.spareDbcs = 1;
    DwmMainMemory mem(cfg);
    Rng rng(5);
    churn(mem, rng, 16);
    const MemoryEvents before = mem.events();
    MemoryEvents sum;
    for (int round = 0; round < 200; ++round) {
        churn(mem, rng, 4);
        LineAddress loc{};
        loc.dbc = rng.nextBelow(cfg.dbcsPerTile);
        MemoryEvents one = mem.checkLine(loc);
        EXPECT_EQ(one.guardChecks, 1u) << "round " << round;
        for (const auto &f : kEventFields)
            sum.*f += one.*f;
    }
    MemoryEvents grown = mem.events().since(before);
    for (const auto &f : kEventFields)
        EXPECT_EQ(sum.*f, grown.*f) << "field " << &f - kEventFields;
    EXPECT_GT(sum.correctedMisalignments, 0u);
    EXPECT_GT(sum.retired, 0u);
    EXPECT_GT(sum.retireFailures, 0u);
    EXPECT_EQ(mem.checkLine(0).guardChecks, 1u);

    DwmMainMemory unguarded(smallConfig(GuardPolicy::None));
    EXPECT_EQ(unguarded.checkLine(0).guardChecks, 0u);
}

TEST(FaultPipeline, GuardedCampaignMeetsCoverageBar)
{
    // The acceptance experiment: at p_shift = 1e-3 the per-access
    // guarded pipeline corrects at least 99 % of injected
    // misalignments end to end; unguarded, faults surface as SDC.
    ControllerCampaignConfig guarded;
    guarded.trials = 1000;
    guarded.shiftFaultRate = 1e-3;
    guarded.policy = GuardPolicy::PerAccess;
    auto g = FaultCampaign::controllerCampaign(guarded);
    EXPECT_GT(g.injectedFaults, 0u);
    EXPECT_GE(g.coverage(), 0.99);
    EXPECT_EQ(g.sdc, 0u);
    EXPECT_EQ(g.residualAfterScrub, 0u);

    ControllerCampaignConfig unguarded = guarded;
    unguarded.policy = GuardPolicy::None;
    auto u = FaultCampaign::controllerCampaign(unguarded);
    EXPECT_GT(u.sdc, 0u);
    EXPECT_EQ(u.corrected, 0u);
}

} // namespace
} // namespace coruscant
