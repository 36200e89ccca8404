/**
 * @file
 * google-benchmark microbenchmarks: host-side simulation throughput of
 * the core device and PIM operations (how fast the *simulator* runs,
 * complementing the modeled device cycles printed by the table
 * benches).
 *
 * --metrics-json FILE / --trace FILE (stripped before google-benchmark
 * sees the argument list) additionally run ONE instrumented pass of
 * each benchmarked operation and export its modeled primitive counts
 * ("micro_ops/<bench>" components) and span tree.  The timed loops
 * themselves stay uninstrumented, so these flags do not perturb the
 * reported throughput.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "apps/bitmap/bitmap_index.hpp"
#include "arch/dwm_memory.hpp"
#include "baselines/dram_pim.hpp"
#include "controller/memory_controller.hpp"
#include "core/coruscant_unit.hpp"
#include "obs/output_files.hpp"
#include "service/batcher.hpp"
#include "service/fault_service.hpp"
#include "util/rng.hpp"

using namespace coruscant;

namespace {

DeviceParams
params(std::size_t trd, std::size_t wires = 512)
{
    DeviceParams p = DeviceParams::withTrd(trd);
    p.wiresPerDbc = wires;
    return p;
}

BitVector
randomRow(Rng &rng, std::size_t width)
{
    BitVector row(width);
    for (std::size_t w = 0; w < width; ++w)
        row.set(w, rng.nextBool());
    return row;
}

void
BM_TransverseReadAll(benchmark::State &state)
{
    DomainBlockCluster dbc(params(7));
    Rng rng(1);
    for (std::size_t r = 0; r < 32; ++r)
        dbc.pokeRow(r, randomRow(rng, 512));
    for (auto _ : state)
        benchmark::DoNotOptimize(dbc.transverseReadAll());
}
BENCHMARK(BM_TransverseReadAll);

/** The word-major window count alone, at TRD 7 (3 planes) and 32 (6). */
void
BM_TransverseReadPlanes(benchmark::State &state)
{
    DomainBlockCluster dbc(params(static_cast<std::size_t>(state.range(0))));
    Rng rng(9);
    for (std::size_t r = 0; r < dbc.rows(); ++r)
        dbc.pokeRow(r, randomRow(rng, 512));
    for (auto _ : state)
        benchmark::DoNotOptimize(dbc.transverseReadPlanes());
}
BENCHMARK(BM_TransverseReadPlanes)->Arg(7)->Arg(32);

/**
 * The window count of one Fig. 12 step: a subarray-wide cluster (16
 * PIM DBCs, 8192 wires) at TRD 7, counted into planes the caller
 * keeps, as CoruscantUnit's TRs are.  Items are wires.
 */
void
BM_TransverseReadPlanesWide(benchmark::State &state)
{
    constexpr std::size_t wires = 8192;
    DomainBlockCluster dbc(
        params(static_cast<std::size_t>(state.range(0)), wires));
    Rng rng(9);
    for (std::size_t r = 0; r < dbc.rows(); ++r)
        dbc.pokeRow(r, randomRow(rng, wires));
    CountPlanes planes(wires, {});
    for (auto _ : state) {
        dbc.transverseReadPlanes(planes);
        benchmark::DoNotOptimize(planes.planeWords(0).data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(wires));
}
BENCHMARK(BM_TransverseReadPlanesWide)->Arg(7);

void
BM_BulkAnd7(benchmark::State &state)
{
    CoruscantUnit unit(params(7));
    Rng rng(2);
    std::vector<BitVector> ops;
    for (int i = 0; i < 7; ++i)
        ops.push_back(randomRow(rng, 512));
    for (auto _ : state)
        benchmark::DoNotOptimize(unit.bulkBitwise(BulkOp::And, ops));
}
BENCHMARK(BM_BulkAnd7);

void
BM_FiveOperandAdd(benchmark::State &state)
{
    CoruscantUnit unit(params(7));
    Rng rng(3);
    std::vector<BitVector> ops;
    for (int i = 0; i < 5; ++i)
        ops.push_back(randomRow(rng, 512));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            unit.add(ops, static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_FiveOperandAdd)->Arg(8)->Arg(32)->Arg(512);

/**
 * The add of FaultCampaign::controllerCampaign's PIM unit: five rows
 * of one 64-wire word at TRD 7, 8-bit lanes.  With so few words the
 * carry chain's fixed cost per bit position dominates.
 */
void
BM_FiveOperandAdd64Wires(benchmark::State &state)
{
    CoruscantUnit unit(params(7, 64));
    Rng rng(3);
    std::vector<BitVector> ops;
    for (int i = 0; i < 5; ++i)
        ops.push_back(randomRow(rng, 64));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            unit.add(ops, static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_FiveOperandAdd64Wires)->Arg(8);

void
BM_Multiply8Bit(benchmark::State &state)
{
    CoruscantUnit unit(params(static_cast<std::size_t>(state.range(0))));
    Rng rng(4);
    BitVector a = randomRow(rng, 512);
    BitVector b = randomRow(rng, 512);
    for (auto _ : state)
        benchmark::DoNotOptimize(unit.multiply(a, b, 8));
}
BENCHMARK(BM_Multiply8Bit)->Arg(3)->Arg(5)->Arg(7);

void
BM_MaxOfRowsTw(benchmark::State &state)
{
    CoruscantUnit unit(params(7));
    Rng rng(5);
    std::vector<BitVector> cands;
    for (int i = 0; i < 7; ++i)
        cands.push_back(randomRow(rng, 512));
    bool use_tw = state.range(0) != 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(unit.maxOfRows(cands, 8, 0, use_tw));
}
BENCHMARK(BM_MaxOfRowsTw)->Arg(1)->Arg(0);

/**
 * Line addresses for the line-access benchmarks.  /hot cycles over 16
 * rows of each of 4 DBCs, which stay resident in cache, so it times the
 * line path itself.  /cold walks 1 MiB of consecutive lines, a new DBC
 * for each access (16 384 of them), and so mostly times cache misses.
 */
std::vector<std::uint64_t>
lineWalk(const DwmMainMemory &mem, bool hot)
{
    std::vector<std::uint64_t> addrs;
    if (!hot) {
        for (std::uint64_t a = 0; a < (1 << 20); a += 64)
            addrs.push_back(a);
        return addrs;
    }
    for (std::size_t row = 0; row < 16; ++row) {
        for (std::size_t dbc = 0; dbc < 4; ++dbc) {
            LineAddress loc{};
            loc.dbc = dbc;
            loc.row = row;
            addrs.push_back(mem.addressMap().encode(loc));
        }
    }
    return addrs;
}

void
BM_MemoryReadLine(benchmark::State &state, bool hot)
{
    DwmMainMemory mem;
    Rng rng(6);
    for (int i = 0; i < 64; ++i)
        mem.writeLine((rng.next() % mem.config().capacityBytes())
                          & ~63ull,
                      randomRow(rng, 512));
    const std::vector<std::uint64_t> addrs = lineWalk(mem, hot);
    std::size_t a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.readLine(addrs[a]));
        a = a + 1 == addrs.size() ? 0 : a + 1;
    }
}
BENCHMARK_CAPTURE(BM_MemoryReadLine, hot, true);
BENCHMARK_CAPTURE(BM_MemoryReadLine, cold, false);

/**
 * Memory for BM_MemoryWriteLine: plain (arg 0), or (arg 1) with SECDED
 * check lanes and the per-access alignment guard, so every write
 * encodes check bits and preserves the guard wire.
 */
MemoryConfig
writeLineConfig(bool protected_line)
{
    MemoryConfig cfg;
    if (protected_line) {
        cfg.reliability.eccMode = EccMode::Secded;
        cfg.reliability.guardPolicy = GuardPolicy::PerAccess;
    }
    return cfg;
}

void
BM_MemoryWriteLine(benchmark::State &state, bool hot)
{
    DwmMainMemory mem(writeLineConfig(state.range(0) != 0));
    Rng rng(8);
    std::vector<BitVector> lines;
    for (int i = 0; i < 16; ++i)
        lines.push_back(randomRow(rng, 512));
    const std::vector<std::uint64_t> addrs = lineWalk(mem, hot);
    std::size_t a = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        mem.writeLine(addrs[a], lines[i]);
        a = a + 1 == addrs.size() ? 0 : a + 1;
        i = (i + 1) % lines.size();
    }
}
BENCHMARK_CAPTURE(BM_MemoryWriteLine, hot, true)->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_MemoryWriteLine, cold, false)->Arg(0)->Arg(1);

void
BM_SecdedCorrectLine(benchmark::State &state)
{
    // The stored (72, 64) row plus the guard wire, one flipped bit in
    // each of the eight words: every word takes the correction path.
    LineSecded ecc(512, 64);
    Rng rng(9);
    BitVector row = randomRow(rng, 512 + ecc.checkLanes() + 1);
    ecc.encode(row);
    for (std::size_t w = 0; w < ecc.words(); ++w) {
        std::size_t bit = w * 64 + rng.nextBelow(64);
        row.set(bit, !row.get(bit));
    }
    for (auto _ : state) {
        BitVector r = row;
        benchmark::DoNotOptimize(ecc.correct(r));
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_SecdedCorrectLine);

/**
 * One guarded cpim packed add in FaultCampaign::controllerCampaign's
 * memory: 16 DBCs of 64 wires, per-cpim guard, SECDED, NMR-3, shift
 * faults at 1e-3 per pulse and transient data faults at 1e-4 per bit.
 * Each iteration re-executes the same five-operand, 8-bit-lane add:
 * four guard checks, three replicas of five operand reads, the vote
 * and the result write.
 */
void
BM_ExecuteGuardedAdd(benchmark::State &state)
{
    MemoryConfig cfg;
    cfg.banks = 2;
    cfg.subarraysPerBank = 2;
    cfg.tilesPerSubarray = 2;
    cfg.dbcsPerTile = 2;
    cfg.pimDbcsPerSubarray = 1;
    cfg.device.wiresPerDbc = 64;
    ReliabilityConfig &rel = cfg.reliability;
    rel.guardPolicy = GuardPolicy::PerCpim;
    rel.eccMode = EccMode::Secded;
    rel.pimNmr = 3;
    rel.shiftFaultRate = 1e-3;
    rel.shiftFaultSeed = 12;
    rel.dataFaultRate = 1e-4;
    rel.dataFaultSeed = 13;
    DwmMainMemory mem(cfg);
    MemoryController ctrl(mem);
    Rng rng(14);
    constexpr std::size_t operands = 5;
    for (std::size_t i = 0; i < operands; ++i)
        mem.writeLine(ctrl.operandAddress(0, i), randomRow(rng, 64));
    CpimInstruction inst;
    inst.op = CpimOp::Add;
    inst.src = 0;
    inst.dst = ctrl.operandAddress(0, operands);
    inst.operands = operands;
    inst.blockSize = 8;
    for (auto _ : state)
        benchmark::DoNotOptimize(ctrl.executeGuarded(inst));
}
BENCHMARK(BM_ExecuteGuardedAdd);

void
BM_NmrVote(benchmark::State &state)
{
    CoruscantUnit unit(params(7));
    Rng rng(7);
    std::vector<BitVector> reps(
        static_cast<std::size_t>(state.range(0)));
    for (auto &r : reps)
        r = randomRow(rng, 512);
    for (auto _ : state)
        benchmark::DoNotOptimize(unit.nmrVote(reps));
}
BENCHMARK(BM_NmrVote)->Arg(3)->Arg(5)->Arg(7);

/**
 * Population count of a random row: a 512-wire DBC row, an 8192-bit
 * subarray step and a 65 536-bit DRAM row, the widths the Fig. 12
 * query counts.  Items are bits.
 */
void
BM_Popcount(benchmark::State &state)
{
    const auto bits = static_cast<std::size_t>(state.range(0));
    Rng rng(10);
    const BitVector row = randomRow(rng, bits);
    for (auto _ : state)
        benchmark::DoNotOptimize(row.popcount());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(bits));
}
BENCHMARK(BM_Popcount)->Arg(512)->Arg(8192)->Arg(65536);

/**
 * Fig. 12's CORUSCANT query at w = 4 over 64 Ki users: 128 chunks of
 * 512 bits, simulated as 8 subarray-wide steps, each staged from the
 * bitmaps and ANDed by one transverse read.  Items are 512-bit
 * chunks.
 */
void
BM_BitmapChunkQuery(benchmark::State &state)
{
    constexpr std::size_t users = 1 << 16;
    const BitmapDatabase db = BitmapDatabase::synthesize(users, 4);
    const BitmapQueryEngine eng(db);
    for (auto _ : state)
        benchmark::DoNotOptimize(eng.runCoruscant(4));
    state.SetItemsProcessed(state.iterations() * (users / 512));
}
BENCHMARK(BM_BitmapChunkQuery);

/**
 * Fig. 12's CPU query over 1 Mi users at w: the male bitmap and w
 * weekly bitmaps ANDed and counted in one pass (goldenCount).  Items
 * are bits read.
 */
void
BM_BitmapGoldenCount(benchmark::State &state)
{
    constexpr std::size_t users = 1 << 20;
    const auto weeks = static_cast<std::size_t>(state.range(0));
    const BitmapDatabase db = BitmapDatabase::synthesize(users, weeks);
    const BitmapQueryEngine eng(db);
    for (auto _ : state)
        benchmark::DoNotOptimize(eng.goldenCount(weeks));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(users * (weeks + 1)));
}
BENCHMARK(BM_BitmapGoldenCount)->Arg(4);

/**
 * Fig. 12's ELP2IM chunk step: one five-operand AND over 65 536-bit
 * DRAM rows, folded into one accumulator.  Items are bits.
 */
void
BM_Elp2imBulkMulti(benchmark::State &state)
{
    constexpr std::size_t bits = 65536;
    Elp2ImUnit unit(bits);
    Rng rng(12);
    std::vector<BitVector> ops;
    for (int i = 0; i < 5; ++i)
        ops.push_back(randomRow(rng, bits));
    for (auto _ : state) {
        unit.resetCosts();
        benchmark::DoNotOptimize(unit.bulkMulti(BulkOp::And, ops));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(bits));
}
BENCHMARK(BM_Elp2imBulkMulti);

/**
 * Fig. 12's input: the male bitmap and four weekly activity bitmaps of
 * 1 Mi users, drawn a word at a time.  Items are bits.
 */
void
BM_BitmapSynthesize(benchmark::State &state)
{
    constexpr std::size_t users = 1 << 20;
    constexpr std::size_t weeks = 4;
    for (auto _ : state)
        benchmark::DoNotOptimize(BitmapDatabase::synthesize(users, weeks));
    state.SetItemsProcessed(state.iterations() * users * (weeks + 1));
}
BENCHMARK(BM_BitmapSynthesize);

/**
 * serve's TR-gang batching at its default load, alone: Poisson bulk
 * arrivals (4 per kcycle, half of the default 8-per-kcycle mix) over
 * 8 hot groups, a 256-cycle window and TRD-7 gangs of up to 6 members,
 * driven the way the engine's event loop drives it.  The batcher lives
 * across iterations, so this times its warmed-up path.  Items are
 * requests.
 */
void
BM_GangBatcher(benchmark::State &state)
{
    constexpr std::size_t requests = 4096;
    constexpr std::uint64_t window = 256;
    Rng rng(11);
    std::vector<ServiceRequest> stream(requests);
    std::uint64_t clock = 0;
    for (std::size_t i = 0; i < requests; ++i) {
        clock += static_cast<std::uint64_t>(-250.0 *
                                            std::log(1.0 - rng.nextDouble()));
        stream[i].id = i;
        stream[i].cls = RequestClass::BulkBitwise;
        stream[i].arrival = clock;
        stream[i].bank = static_cast<std::uint32_t>(rng.nextBelow(8));
    }
    GangBatcher batcher(6, window);
    std::uint64_t base = 0;
    for (auto _ : state) {
        for (ServiceRequest r : stream) {
            r.arrival += base;
            while (batcher.pending() > 0 &&
                   batcher.nextDeadline() <= r.arrival)
                for (const TrGang &g :
                     batcher.flushDue(batcher.nextDeadline()))
                    benchmark::DoNotOptimize(g.members.data());
            benchmark::DoNotOptimize(batcher.add(r).members.data());
        }
        for (const TrGang &g : batcher.flushDue(~0ull))
            benchmark::DoNotOptimize(g.members.data());
        base += clock + window;
    }
    state.SetItemsProcessed(state.iterations() * requests);
}
BENCHMARK(BM_GangBatcher);

/**
 * serve's per-unit data-fault draw at the serve_faults load: 512-bit
 * lines of 64-bit SECDED words, transient faults at 1e-6 per bit,
 * retention at 1e-12 per bit and cycle.  Each call makes 1-6 line
 * accesses after an idle span uniform in [0, 2^20) cycles, so it
 * almost always flips nothing.  Items are calls.
 */
void
BM_ChannelDataFaultSample(benchmark::State &state)
{
    constexpr std::size_t calls = 4096;
    ServiceFaultConfig cfg;
    cfg.dataFaultRate = 1e-6;
    cfg.retentionRatePerCycle = 1e-12;
    cfg.ecc = EccMode::Secded;
    ChannelDataFaultInjector injector(cfg, 15, 512, 64);
    Rng rng(16);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> units(calls);
    for (auto &[accesses, idle] : units) {
        accesses = 1 + rng.nextBelow(6);
        idle = rng.nextBelow(std::uint64_t{1} << 20);
    }
    for (auto _ : state)
        for (const auto &[accesses, idle] : units)
            benchmark::DoNotOptimize(injector.sample(accesses, idle));
    state.SetItemsProcessed(state.iterations() * calls);
}
BENCHMARK(BM_ChannelDataFaultSample);

/**
 * One shift pulse's fault draw at serve_faults' base rate, 1e-4 per
 * pulse, with the rate set again before every 64 pulses the way
 * ChannelFaultInjector sets it per unit.  Items are pulses.
 */
void
BM_ShiftFaultSample(benchmark::State &state)
{
    constexpr int pulses = 64;
    const double rate = 1e-4;
    ShiftFaultModel model(rate, 17);
    for (auto _ : state) {
        model.setProbability(rate);
        for (int i = 0; i < pulses; ++i)
            benchmark::DoNotOptimize(model.sample());
    }
    state.SetItemsProcessed(state.iterations() * pulses);
}
BENCHMARK(BM_ShiftFaultSample);

/**
 * One instrumented execution of every benchmarked operation: modeled
 * primitive counts per "micro_ops/<bench>" component, plus spans when
 * tracing.  Deterministic (fixed seeds, single pass).  The bitmap
 * query is left out: its engine builds its units inside the call.
 */
int
emitObservability(const obs::OutputFiles &out)
{
    obs::MetricsRegistry reg;
    obs::TraceSink trace;
    if (out.trace) {
        trace.enable();
        trace.processName(0, "micro_ops");
    }
    std::uint32_t tid = 0;
    auto unitFor = [&](const char *name, std::size_t trd) {
        CoruscantUnit unit(params(trd));
        unit.attachMetrics(
            &reg.component(std::string("micro_ops/") + name));
        unit.attachTrace(&trace, 0, tid++);
        return unit;
    };

    {
        DomainBlockCluster dbc(params(7));
        dbc.attachMetrics(
            &reg.component("micro_ops/transverse_read_all"));
        Rng rng(1);
        for (std::size_t r = 0; r < 32; ++r)
            dbc.pokeRow(r, randomRow(rng, 512));
        dbc.transverseReadAll();
    }
    {
        DomainBlockCluster dbc(params(32));
        dbc.attachMetrics(
            &reg.component("micro_ops/transverse_read_planes"));
        Rng rng(9);
        for (std::size_t r = 0; r < 32; ++r)
            dbc.pokeRow(r, randomRow(rng, 512));
        dbc.transverseReadPlanes();
    }
    {
        CoruscantUnit unit = unitFor("bulk_and7", 7);
        Rng rng(2);
        std::vector<BitVector> ops;
        for (int i = 0; i < 7; ++i)
            ops.push_back(randomRow(rng, 512));
        unit.bulkBitwise(BulkOp::And, ops);
    }
    {
        CoruscantUnit unit = unitFor("five_operand_add", 7);
        Rng rng(3);
        std::vector<BitVector> ops;
        for (int i = 0; i < 5; ++i)
            ops.push_back(randomRow(rng, 512));
        unit.add(ops, 8);
    }
    {
        CoruscantUnit unit = unitFor("multiply_8bit", 7);
        Rng rng(4);
        BitVector a = randomRow(rng, 512);
        BitVector b = randomRow(rng, 512);
        unit.multiply(a, b, 8);
    }
    {
        CoruscantUnit unit = unitFor("max_of_rows_tw", 7);
        Rng rng(5);
        std::vector<BitVector> cands;
        for (int i = 0; i < 7; ++i)
            cands.push_back(randomRow(rng, 512));
        unit.maxOfRows(cands, 8, 0, true);
    }
    {
        obs::MetricsRegistry mem_reg;
        DwmMainMemory mem;
        mem.attachObs(mem_reg, out.trace ? &trace : nullptr, tid++);
        Rng rng(6);
        mem.writeLine(0, randomRow(rng, 512));
        mem.readLine(0);
        reg.mergePrefixed(mem_reg, "micro_ops/memory_read_line");
    }
    {
        obs::MetricsRegistry mem_reg;
        DwmMainMemory mem(writeLineConfig(true));
        mem.attachObs(mem_reg, out.trace ? &trace : nullptr, tid++);
        Rng rng(8);
        mem.writeLine(0, randomRow(rng, 512));
        reg.mergePrefixed(mem_reg, "micro_ops/memory_write_line");
    }
    {
        CoruscantUnit unit = unitFor("nmr_vote3", 7);
        Rng rng(7);
        std::vector<BitVector> reps(3);
        for (auto &r : reps)
            r = randomRow(rng, 512);
        unit.nmrVote(reps);
    }

    return out.write(reg, trace) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Route our options to their table; the rest go to google-benchmark.
    obs::OutputFiles out;
    Options ours = out.options();
    std::vector<std::string> our_args;
    std::vector<char *> rest = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        bool mine = std::any_of(ours.begin(), ours.end(),
                                [&](const Option &o) {
                                    return argv[i] == "--" + o.name;
                                });
        if (!mine) {
            rest.push_back(argv[i]);
            continue;
        }
        our_args.push_back(argv[i]);
        if (i + 1 < argc)
            our_args.push_back(argv[++i]);
    }
    parseOrExit(our_args, ours);
    int rest_argc = static_cast<int>(rest.size());
    benchmark::Initialize(&rest_argc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return out.metricsJson || out.trace ? emitObservability(out) : 0;
}
