#include "arch/dwm_memory.hpp"

#include <algorithm>
#include <vector>

#include "arch/timing.hpp"
#include "util/logging.hpp"

namespace coruscant {

DwmMainMemory::DwmMainMemory(const MemoryConfig &config)
    : cfg(config),
      ladder(config.reliability.maxRetries,
             config.reliability.retryBackoffCycles),
      amap(config), dbcParams(config.device)
{
    cfg.device.validate();
    const ReliabilityConfig &rel = cfg.reliability;
    checkPimNmr(rel.pimNmr, cfg.device.trd);
    if (rel.eccEnabled()) {
        // Check-bit lanes are extra nanowires of the same DBC: they
        // shift with the data under the shared controller signal and
        // come back in the same port access as the line they protect.
        // Construction rejects a word width that is zero, wider than
        // the code's masks, or leaves part of the line unprotected.
        ecc.emplace(cfg.device.wiresPerDbc, rel.eccWordBits);
        eccLanes = ecc->checkLanes();
        dbcParams.wiresPerDbc += eccLanes;
    }
    if (rel.guarded()) {
        // One extra nanowire per DBC carries the alignment-guard ramp
        // pattern; the data and check lanes stay fully usable.
        dbcParams.wiresPerDbc += 1;
        guard.emplace(dbcParams, dbcParams.wiresPerDbc - 1);
    }
    if (rel.shiftFaultRate > 0.0) {
        shiftInjector = std::make_unique<ShiftFaultModel>(
            rel.shiftFaultRate, rel.shiftFaultSeed,
            rel.overShiftFraction);
    }
    if (rel.dataFaultsEnabled())
        dataInjector =
            std::make_unique<DataFaultModel>(rel, rel.dataFaultSeed);
}

void
DwmMainMemory::attachObs(obs::MetricsRegistry &reg, obs::TraceSink *trace,
                         std::uint32_t pid)
{
    memMetrics = &reg.component("memory");
    dbcMetrics = &reg.component("memory/dbc");
    pimMetrics = &reg.component("memory/pim");
    guardMetrics = &reg.component("guard");
    eccMetrics = &reg.component("ecc");
    traceSink = trace;
    tracePid = pid;
    for (auto &[id, state] : dbcs)
        state->dbc.attachMetrics(dbcMetrics);
    for (auto &[id, unit] : pimUnits) {
        unit->attachMetrics(pimMetrics);
        unit->attachTrace(trace, pid, static_cast<std::uint32_t>(id));
    }
}

DwmMainMemory::MemDbc &
DwmMainMemory::materialize(std::uint64_t physical_id,
                           std::uint64_t logical_id)
{
    auto it = dbcs.emplace(physical_id,
                           std::make_unique<MemDbc>(dbcParams))
                  .first;
    MemDbc &state = *it->second;
    state.logicalId = logical_id;
    state.physicalId = physical_id;
    if (cfg.reliability.retentionRatePerCycle > 0.0) {
        // The retention clock starts when the cluster first holds data.
        state.rowRefreshCycle.assign(cfg.device.domainsPerWire,
                                     costs.cycles());
    }
    if (guard)
        guard->install(state.dbc);
    if (shiftInjector)
        state.dbc.attachShiftFaults(shiftInjector.get());
    if (dbcMetrics)
        state.dbc.attachMetrics(dbcMetrics);
    return state;
}

DwmMainMemory::MemDbc &
DwmMainMemory::dbcFor(const LineAddress &loc)
{
    std::uint64_t logical = amap.dbcId(loc);
    std::uint64_t physical = logical;
    // Resolved on every access: a guard check or an ECC DUE may retire
    // the cluster mid-instruction.  Only a retirement fills the remap.
    if (!remap.empty()) {
        auto rm = remap.find(logical);
        if (rm != remap.end())
            physical = rm->second;
    }
    auto it = dbcs.find(physical);
    if (it != dbcs.end())
        return *it->second;
    return materialize(physical, logical);
}

unsigned
DwmMainMemory::alignForAccess(DomainBlockCluster &dbc, std::size_t row)
{
    std::size_t shifts = dbc.alignRowToPort(row, dbc.nearestPort(row));
    shiftSteps += shifts;
    return static_cast<unsigned>(shifts);
}

DwmMainMemory::MemDbc &
DwmMainMemory::guardMaintain(MemDbc &state)
{
    if (!guard)
        return state;
    GuardCorrection r = guard->correct(state.dbc);
    ++ev.guardChecks;
    double guard_pj = static_cast<double>(r.guardTrs)
                      * cfg.device.trEnergyPj(cfg.device.trd);
    costs.charge(Cost::Guard, r.guardTrs * cfg.device.trCycles, guard_pj);
    if (guardMetrics) {
        guardMetrics->add(obs::Counter::TrPulses, r.guardTrs);
        guardMetrics->addEnergy(guard_pj);
    }
    std::size_t fix_shifts = r.correctiveShifts;
    if (fix_shifts > 0) {
        double fix_pj = static_cast<double>(fix_shifts)
                        * static_cast<double>(dbcParams.wiresPerDbc)
                        * cfg.device.shiftEnergyPj;
        costs.charge(Cost::GuardFix, fix_shifts * cfg.device.shiftCycles,
                     fix_pj);
        if (guardMetrics) {
            guardMetrics->add(obs::Counter::Shifts, fix_shifts);
            guardMetrics->addEnergy(fix_pj);
        }
    }
    if (r.initial != AlignmentStatus::Aligned)
        ++ev.misaligned;
    // correct() sets `corrected` exactly when it ends aligned after at
    // least one pulse, so the pulse count grows exactly then.
    if (r.corrected) {
        ev.correctedMisalignments += r.correctiveShifts;
        state.corrected += r.correctiveShifts;
        if (guardMetrics)
            guardMetrics->add(obs::Counter::MisalignCorrections);
    }
    if (!r.aligned)
        ++ev.uncorrectable;
    if (!r.aligned || r.patternDamaged) {
        // Rewrite the guard track at the believed alignment.  For a
        // damaged pattern (the edge guard bit an over-shift at maximum
        // excursion pushed off the wire) this is plain repair of a
        // cluster the ladder proved aligned.  For an uncorrectable
        // cluster it is a structure reset: the event is flagged (data
        // must be treated as lost, like a remapped bad sector), and
        // bookkeeping, pattern, and future accesses are consistent
        // again from here on instead of false-alarming forever.
        guard->install(state.dbc);
        std::size_t rows = cfg.device.domainsPerWire;
        double reset_pj = static_cast<double>(rows)
                          * (cfg.device.shiftEnergyPj
                             + cfg.device.writeEnergyPj);
        costs.charge(Cost::GuardReset,
                     rows * (cfg.device.shiftCycles
                             + cfg.device.writeCycles),
                     reset_pj);
        if (guardMetrics)
            guardMetrics->addEnergy(reset_pj);
    }
    const ReliabilityConfig &rel = cfg.reliability;
    bool wear_out = rel.retireThreshold > 0 &&
                    state.corrected >= rel.retireThreshold;
    if (wear_out || (!r.aligned && rel.retireThreshold > 0)) {
        // Spare pool exhausted: the worn cluster stays in service,
        // and retire() counts the refusal so callers can degrade
        // (reject/steer) instead of retrying a hopeless retirement.
        if (MemDbc *fresh = retire(state))
            return *fresh;
    }
    return state;
}

DwmMainMemory::MemDbc *
DwmMainMemory::retire(MemDbc &state)
{
    if (ev.retired >= cfg.reliability.spareDbcs) {
        ++ev.retireFailures;
        return nullptr;
    }
    std::uint64_t logical = state.logicalId;
    std::uint64_t old_physical = state.physicalId;
    std::uint64_t spare_id = cfg.totalDbcs() + ev.retired;
    ++ev.retired;
    MemDbc &fresh = materialize(spare_id, logical);
    // Best-effort migration: if the old cluster is still misaligned
    // the copied rows are off by the residual misalignment — the
    // retirement saved the cluster, not necessarily its contents.
    std::size_t rows = cfg.device.domainsPerWire;
    for (std::size_t r = 0; r < rows; ++r)
        fresh.dbc.pokeRow(r, state.dbc.peekRow(r));
    double retire_pj = static_cast<double>(rows)
                       * static_cast<double>(dbcParams.wiresPerDbc)
                       * (cfg.device.readEnergyPj
                          + cfg.device.writeEnergyPj);
    costs.charge(Cost::Retire,
                 rows * (cfg.device.readCycles + cfg.device.writeCycles),
                 retire_pj);
    if (guardMetrics)
        guardMetrics->addEnergy(retire_pj);
    remap[logical] = spare_id;
    dbcs.erase(old_physical); // invalidates `state`
    return &fresh;
}

void
DwmMainMemory::tickAccess()
{
    ++accesses;
    const ReliabilityConfig &rel = cfg.reliability;
    bool scrub_tick = accesses % rel.scrubInterval == 0;
    if (rel.guardPolicy == GuardPolicy::PeriodicScrub && scrub_tick)
        scrubAll();
    // Retention decay accumulates silently between touches; with ECC
    // on, the same cadence sweeps stored lines so single-bit decay is
    // rewritten before a second flip turns the word into a DUE.
    if (scrub_tick && ecc && rel.retentionRatePerCycle > 0.0)
        scrubEcc();
}

MemoryEvents
DwmMainMemory::checkLine(const LineAddress &loc)
{
    if (!guard)
        return {};
    MemoryEvents before = ev;
    guardMaintain(dbcFor(loc));
    return ev.since(before);
}

MemoryEvents
DwmMainMemory::checkLine(std::uint64_t byte_addr)
{
    return checkLine(amap.decode(byte_addr));
}

template <class Visit>
std::size_t
DwmMainMemory::sweep(const char *name, const char *category,
                     Visit &&visit)
{
    std::uint64_t start = costs.cycles();
    // unordered_map order is not deterministic; sweep sorted so runs
    // with a fixed seed are bit-identical.
    std::vector<std::uint64_t> ids;
    ids.reserve(dbcs.size());
    for (const auto &[id, _] : dbcs)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    std::size_t scanned = 0;
    for (std::uint64_t id : ids) {
        auto it = dbcs.find(id);
        if (it != dbcs.end()) // else retired earlier in this sweep
            scanned += visit(*it->second);
    }
    if (traceSink) {
        traceSink->span(name, category, start, costs.cycles() - start,
                        tracePid, 0, "scanned",
                        static_cast<double>(scanned));
    }
    return scanned;
}

ScrubReport
DwmMainMemory::scrubAll()
{
    ScrubReport report;
    if (!guard)
        return report;
    report.scanned = sweep("guard_scrub", "guard", [&](MemDbc &state) {
        MemoryEvents before = ev;
        guardMaintain(state);
        MemoryEvents one = ev.since(before);
        if (one.correctedMisalignments > 0)
            ++report.corrected;
        report.uncorrectable += one.uncorrectable;
        return 1;
    });
    return report;
}

EccScrubReport
DwmMainMemory::scrubEcc()
{
    EccScrubReport report;
    if (!ecc)
        return report;
    const double payload_wires = static_cast<double>(payloadWires());
    std::size_t rows = cfg.device.domainsPerWire;
    report.scannedRows = sweep("ecc_scrub", "ecc", [&](MemDbc &state) {
        std::size_t rewritten = 0;
        bool worn = false;
        for (std::size_t r = 0; r < rows; ++r) {
            if (dataInjector)
                applyRetention(state, r);
            // The sweep reads via the maintenance path (backdoor):
            // it sees stored bits, so it cleans persistent faults
            // (retention) — transient read disturbance and stuck-at
            // sensing belong to demand reads, not to scrubbing.
            BitVector stored = state.dbc.peekRow(r);
            LineSecded::Result res = ecc->correct(stored);
            worn = tallyEcc(state, res);
            if (res.correctedWords > 0) {
                state.dbc.pokeRow(r, stored);
                if (!state.rowRefreshCycle.empty())
                    state.rowRefreshCycle[r] = costs.cycles();
                ++report.correctedRows;
                ++rewritten;
            }
            if (res.uncorrectableWords > 0)
                ++report.uncorrectableRows;
        }
        // Sweep cost: every row is sensed, corrected rows rewritten.
        double sweep_pj =
            static_cast<double>(rows) * payload_wires *
                cfg.device.readEnergyPj +
            static_cast<double>(rewritten) * payload_wires *
                cfg.device.writeEnergyPj;
        costs.charge(Cost::EccScrub,
                     rows * cfg.device.readCycles +
                         rewritten * cfg.device.writeCycles,
                     sweep_pj);
        if (eccMetrics)
            eccMetrics->addEnergy(sweep_pj);
        if (worn)
            retire(state); // best effort; spares may be exhausted
        return rows;
    });
    return report;
}

DwmMainMemory::MemDbc &
DwmMainMemory::alignChecked(const LineAddress &loc, unsigned &shifts)
{
    MemDbc *state = &dbcFor(loc);
    shifts = alignForAccess(state->dbc, loc.row);
    if (cfg.reliability.guardPolicy == GuardPolicy::PerAccess) {
        // Verify alignment after the access shifts and before the port
        // touches the row: an over-/under-shift during the alignment
        // burst is caught here, so the access never lands on a
        // neighbouring row.  The check never moves the window, but it
        // may retire the cluster (the replacement starts at offset
        // zero); then realign and re-check, bounded in case the
        // realignment shifts fault too.
        for (int round = 0; round < 3; ++round) {
            state = &guardMaintain(*state);
            if (state->dbc.rowAtPort(Port::Left) == loc.row ||
                state->dbc.rowAtPort(Port::Right) == loc.row)
                break;
            shifts += alignForAccess(state->dbc, loc.row);
        }
    }
    // The rounds above are best-effort; the access below must not
    // land on an arbitrary port row, so guarantee the alignment even
    // if the last check was skipped or the cluster was just retired.
    if (state->dbc.rowAtPort(Port::Left) != loc.row &&
        state->dbc.rowAtPort(Port::Right) != loc.row)
        shifts += alignForAccess(state->dbc, loc.row);
    return *state;
}

// Out of line on purpose: inlined into BM_MemoryReadLine's loop, this
// wrapper made each read about 7 % slower (EXPERIMENTS.md "Decode once
// per cpim").
BitVector
DwmMainMemory::readLine(std::uint64_t byte_addr)
{
    return readLine(amap.decode(byte_addr));
}

BitVector
DwmMainMemory::readLine(const LineAddress &loc)
{
    tickAccess();
    unsigned shifts = 0;
    MemDbc &state = alignChecked(loc, shifts);
    if (dataInjector)
        applyRetention(state, loc.row);
    DomainBlockCluster &dbc = state.dbc;
    chargeAccess(Cost::Read, DdrTiming::dwm().readCycles(shifts),
                 cfg.device.readEnergyPj, shifts, obs::Counter::Reads);
    // After alignment the row sits under one of the ports.
    Port port = dbc.rowAtPort(Port::Left) == loc.row ? Port::Left
                                                     : Port::Right;
    BitVector row = dbc.readRowAtPort(port);
    if (dataInjector) {
        // Faults reach the data and check lanes as the port senses
        // them; the guard wire's ramp bit is the alignment story, not
        // the data story.
        std::size_t payload = payloadWires();
        noteDataFaults(
            "data_fault",
            dataInjector->applyStuckAt(
                row, state.physicalId,
                static_cast<std::uint32_t>(loc.row), payload) +
                dataInjector->perturbTransient(row, payload));
    }
    if (ecc)
        eccDecode(state, row);
    // The line is the stored row's data wires: the one copy, cut.
    row.truncate(cfg.device.wiresPerDbc);
    return row;
}

void
DwmMainMemory::applyRetention(MemDbc &state, std::size_t row)
{
    if (cfg.reliability.retentionRatePerCycle <= 0.0)
        return;
    std::uint64_t now = costs.cycles();
    std::uint64_t &stamp = state.rowRefreshCycle[row];
    std::uint64_t elapsed = now > stamp ? now - stamp : 0;
    stamp = now;
    if (elapsed == 0)
        return;
    // Decay mutates the stored bits (unlike a read disturbance): the
    // flip persists until a write or an ECC scrub rewrites the row.
    BitVector stored = state.dbc.peekRow(row);
    std::uint64_t flips =
        dataInjector->decay(stored, elapsed, payloadWires());
    if (flips == 0)
        return;
    state.dbc.pokeRow(row, stored);
    noteDataFaults("retention_decay", flips);
}

void
DwmMainMemory::noteDataFaults(const char *name, std::uint64_t faults)
{
    if (faults == 0)
        return;
    if (memMetrics)
        memMetrics->add(obs::Counter::DataFaultsInjected, faults);
    if (traceSink)
        traceSink->instant(name, "ecc", costs.cycles(), tracePid, 0);
}

void
DwmMainMemory::chargeAccess(Cost category, std::uint64_t cycles,
                            double port_pj, unsigned shifts,
                            obs::Counter kind)
{
    double data_pj = static_cast<double>(cfg.device.wiresPerDbc)
                         * port_pj +
                     static_cast<double>(shifts)
                         * static_cast<double>(cfg.device.wiresPerDbc)
                         * cfg.device.shiftEnergyPj;
    costs.charge(category, cycles, data_pj);
    if (eccLanes > 0) {
        // Check lanes ride the same shift pulses and the same port
        // access as the data; extra wires, not extra cycles.
        double ecc_pj =
            static_cast<double>(eccLanes) *
            (port_pj +
             static_cast<double>(shifts) * cfg.device.shiftEnergyPj);
        costs.charge(Cost::Ecc, 0, ecc_pj);
        if (eccMetrics)
            eccMetrics->addEnergy(ecc_pj);
    }
    if (memMetrics) {
        memMetrics->add(kind);
        memMetrics->add(obs::Counter::Shifts, shifts);
        memMetrics->addEnergy(data_pj);
    }
}

bool
DwmMainMemory::tallyEcc(MemDbc &state, const LineSecded::Result &res)
{
    ev.eccCorrections += res.correctedWords;
    ev.eccDue += res.uncorrectableWords;
    state.eccDue += res.uncorrectableWords;
    if (eccMetrics) {
        eccMetrics->add(obs::Counter::EccCorrections, res.correctedWords);
        eccMetrics->add(obs::Counter::EccDetectedUncorrectable,
                        res.uncorrectableWords);
    }
    const ReliabilityConfig &rel = cfg.reliability;
    return rel.retireThreshold > 0 && state.eccDue >= rel.retireThreshold;
}

void
DwmMainMemory::eccDecode(MemDbc &state, BitVector &row)
{
    LineSecded::Result res = ecc->correct(row);
    bool worn = tallyEcc(state, res);
    if (traceSink && res.correctedWords > 0)
        traceSink->instant("ecc_correct", "ecc", costs.cycles(), tracePid,
                           0);
    if (res.uncorrectableWords > 0) {
        if (traceSink)
            traceSink->instant("ecc_due", "ecc", costs.cycles(),
                               tracePid, 0);
        // Repeated DUEs mark a weak cluster: escalate into the same
        // retirement path the alignment guard uses (best effort).
        if (worn)
            retire(state);
    }
}

void
DwmMainMemory::writeLine(std::uint64_t byte_addr, const BitVector &data)
{
    writeLine(amap.decode(byte_addr), data);
}

void
DwmMainMemory::writeLine(const LineAddress &loc, const BitVector &data)
{
    fatalIf(data.size() != cfg.device.wiresPerDbc,
            "line width mismatch");
    tickAccess();
    unsigned shifts = 0;
    MemDbc &state = alignChecked(loc, shifts);
    DomainBlockCluster &dbc = state.dbc;
    chargeAccess(Cost::Write, DdrTiming::dwm().writeCycles(shifts),
                 cfg.device.writeEnergyPj, shifts, obs::Counter::Writes);
    Port port = dbc.rowAtPort(Port::Left) == loc.row ? Port::Left
                                                     : Port::Right;
    // The stored row: the data wires, then the check lanes and the
    // guard wire, zero until filled in below.
    BitVector row(dbcParams.wiresPerDbc);
    row.setWords([&](std::size_t i) {
        return i < data.numWords() ? data.word(i) : 0;
    });
    if (ecc) {
        // The encoder sees the incoming (correct) data; disturbances
        // below hit the stored codeword, which is what a read decodes.
        ecc->encode(row);
    }
    if (dataInjector) {
        noteDataFaults("data_fault",
                       dataInjector->perturbTransient(row, payloadWires()));
        if (cfg.reliability.retentionRatePerCycle > 0.0)
            state.rowRefreshCycle[loc.row] = costs.cycles();
    }
    if (guard) {
        // Preserve the guard wire's ramp bit for this row.
        row.set(dbcParams.wiresPerDbc - 1, guard->patternBit(loc.row));
    }
    dbc.writeRowAtPort(port, row);
}

void
DwmMainMemory::injectShiftFaultAt(std::uint64_t byte_addr,
                                  bool toward_left)
{
    LineAddress loc = amap.decode(byte_addr);
    dbcFor(loc).dbc.injectShiftFault(toward_left);
}

CoruscantUnit &
DwmMainMemory::pimUnit(std::size_t bank, std::size_t subarray,
                       std::size_t pim_index)
{
    fatalIf(bank >= cfg.banks, "bank out of range");
    fatalIf(subarray >= cfg.subarraysPerBank, "subarray out of range");
    fatalIf(pim_index >= cfg.pimDbcsPerSubarray,
            "PIM DBC index out of range");
    std::uint64_t id =
        (bank * cfg.subarraysPerBank + subarray) * cfg.pimDbcsPerSubarray
        + pim_index;
    auto it = pimUnits.find(id);
    if (it == pimUnits.end()) {
        it = pimUnits
                 .emplace(id,
                          std::make_unique<CoruscantUnit>(cfg.device))
                 .first;
        if (pimMetrics) {
            it->second->attachMetrics(pimMetrics);
            it->second->attachTrace(traceSink, tracePid,
                                    static_cast<std::uint32_t>(id));
        }
    }
    return *it->second;
}

} // namespace coruscant
