#include "service/fault_service.hpp"

#include <algorithm>
#include <cmath>

#include "arch/dwm_memory.hpp"
#include "util/bit_vector.hpp"
#include "util/cycles.hpp"
#include "util/logging.hpp"

namespace coruscant {

const char *
requestOutcomeName(RequestOutcome o)
{
    switch (o) {
    case RequestOutcome::Clean:
        return "clean";
    case RequestOutcome::Corrected:
        return "corrected";
    case RequestOutcome::Due:
        return "due";
    case RequestOutcome::Sdc:
        return "sdc";
    case RequestOutcome::Rejected:
        return "rejected";
    }
    return "?";
}

void
ServiceFaultConfig::checkBreakerCounts() const
{
    fatalIf(breakerThreshold < 1, "breaker threshold must be >= 1");
    fatalIf(tripsToRetire < 1, "trips to retire must be >= 1");
}

double
ServiceFaultConfig::rateAt(std::uint64_t cycle) const
{
    double rate = shiftFaultRate;
    for (const FaultRampStep &step : ramp) {
        if (step.startCycle > cycle)
            break;
        rate = step.rate;
    }
    return rate;
}

std::vector<FaultRampStep>
ServiceFaultConfig::chaosRamp(double base, std::uint64_t duration)
{
    fatalIf(base <= 0.0, "chaos ramp needs a positive base fault rate");
    return {{0, base},
            {duration / 4, 4.0 * base},
            {duration / 2, 10.0 * base},
            {3 * (duration / 4), base}};
}

GuardServiceCosts
GuardServiceCosts::measure()
{
    // A minimal guarded memory: PerCpim keeps implicit per-access
    // checks out of the way so each checkLine charge below isolates
    // exactly one guard event; retireThreshold 1 makes the corrected
    // check below also migrate the cluster, exposing the retire charge.
    MemoryConfig mc;
    mc.banks = 1;
    mc.subarraysPerBank = 1;
    mc.tilesPerSubarray = 1;
    mc.dbcsPerTile = 2;
    mc.pimDbcsPerSubarray = 1;
    mc.reliability.guardPolicy = GuardPolicy::PerCpim;
    mc.reliability.retireThreshold = 1;
    mc.reliability.spareDbcs = 1;

    DwmMainMemory mem(mc);
    const CostLedger &costs = mem.ledger();
    mem.writeLine(0, BitVector(mc.device.wiresPerDbc));

    GuardServiceCosts out;

    mem.resetCosts();
    MemoryEvents clean = mem.checkLine(0);
    panicIf(clean.guardChecks != 1 || clean.misaligned > 0,
            "guard cost measurement: clean check misbehaved");
    out.checkCycles =
        static_cast<std::uint32_t>(costs.entry(Cost::Guard).cycles);
    out.checkEnergyPj = costs.entry(Cost::Guard).energyPj;

    mem.injectShiftFaultAt(0, true);
    mem.resetCosts();
    MemoryEvents fixed = mem.checkLine(0);
    panicIf(fixed.correctedMisalignments == 0,
            "guard cost measurement: injected misalignment not corrected");
    out.correctCycles =
        static_cast<std::uint32_t>(costs.entry(Cost::Guard).cycles +
                                   costs.entry(Cost::GuardFix).cycles);
    out.correctEnergyPj = costs.entry(Cost::Guard).energyPj +
                          costs.entry(Cost::GuardFix).energyPj;
    out.retireCycles =
        static_cast<std::uint32_t>(costs.entry(Cost::Retire).cycles);
    out.retireEnergyPj = costs.entry(Cost::Retire).energyPj;
    panicIf(out.retireCycles == 0,
            "guard cost measurement: retirement did not trigger");

    // Guard-track reset after an uncorrectable check: the structure
    // rewrite DwmMainMemory charges as "guard_reset" (rows x
    // (shift + write)); deterministic, so computed from the same
    // device parameters rather than provoking an uncorrectable state.
    std::size_t rows = mc.device.domainsPerWire;
    out.resetCycles = static_cast<std::uint32_t>(
        rows * (mc.device.shiftCycles + mc.device.writeCycles));
    out.resetEnergyPj =
        static_cast<double>(rows) *
        (mc.device.shiftEnergyPj + mc.device.writeEnergyPj);

    // ECC charges through a SECDED-enabled memory: the "ecc" category
    // is the check-lane energy riding one port access, "ecc_scrub" one
    // full sweep of the single materialized DBC (= one group's share).
    MemoryConfig emc = mc;
    emc.reliability = ReliabilityConfig{};
    emc.reliability.eccMode = EccMode::Secded;
    DwmMainMemory emem(emc);
    const CostLedger &ecosts = emem.ledger();
    BitVector line(emc.device.wiresPerDbc);
    emem.writeLine(0, line);
    emem.resetCosts();
    emem.readLine(0);
    out.eccReadEnergyPj = ecosts.entry(Cost::Ecc).energyPj;
    emem.resetCosts();
    emem.writeLine(0, line);
    out.eccWriteEnergyPj = ecosts.entry(Cost::Ecc).energyPj;
    emem.resetCosts();
    emem.scrubEcc();
    out.eccScrubGroupCycles =
        static_cast<std::uint32_t>(ecosts.entry(Cost::EccScrub).cycles);
    out.eccScrubGroupEnergyPj = ecosts.entry(Cost::EccScrub).energyPj;
    panicIf(out.eccReadEnergyPj <= 0.0 || out.eccScrubGroupCycles == 0,
            "ECC cost measurement: SECDED charges did not register");
    return out;
}

ChannelDataFaultInjector::ChannelDataFaultInjector(
    const ServiceFaultConfig &cfg, std::uint64_t channel_seed,
    std::size_t line_bits, std::size_t word_bits)
    : cfg_(cfg), lineBits_(line_bits), wordBits_(word_bits),
      accessRate_(cfg.dataFaultRate + 0.5 * cfg.stuckAtFraction),
      rng_(channel_seed)
{
    fatalIf(line_bits == 0 || word_bits == 0,
            "data fault injector needs positive line/word widths");
}

ChannelDataFaultInjector::Sample
ChannelDataFaultInjector::sample(std::uint64_t line_accesses,
                                 std::uint64_t idle_cycles)
{
    Sample s;
    // Key = flat bit position / word width, so two flips only share a
    // codeword when they land in the same word of the same access.
    words_.clear();
    auto draw = [&](std::uint64_t bits, const BernoulliRate &rate) {
        std::uint64_t flips =
            forEachBernoulli(rng_, bits, rate, [&](std::uint64_t pos) {
                const std::uint64_t word = pos / wordBits_;
                auto it = std::find_if(
                    words_.begin(), words_.end(),
                    [&](const WordFlips &w) { return w.word == word; });
                if (it == words_.end())
                    words_.push_back({word, 1});
                else
                    ++it->flips;
            });
        s.flips += flips;
        injected_ += flips;
    };
    // Retention flips materialize in the stored line and are decoded
    // by the first access, so they share access 0's codeword keyspace.
    if (cfg_.retentionRatePerCycle > 0.0 && idle_cycles > 0)
        draw(lineBits_,
             BernoulliRate::fromExposure(cfg_.retentionRatePerCycle *
                                         static_cast<double>(idle_cycles)));
    draw(line_accesses * lineBits_, accessRate_);
    const bool secded = cfg_.ecc == EccMode::Secded;
    for (const WordFlips &w : words_) {
        if (!secded)
            ++s.sdcWords;
        else if (w.flips == 1)
            ++s.correctedWords;
        else if (w.flips == 2)
            ++s.dueWords;
        else
            ++s.sdcWords;
    }
    return s;
}

ChannelFaultInjector::ChannelFaultInjector(const ServiceFaultConfig &cfg,
                                           std::uint64_t channel_seed)
    : cfg_(cfg),
      model_(cfg.rateAt(0) > 0.0 ? cfg.rateAt(0) : cfg.shiftFaultRate,
             channel_seed, cfg.overShiftFraction)
{}

ChannelFaultInjector::Sample
ChannelFaultInjector::sample(std::uint64_t shifts, std::uint64_t cycle)
{
    Sample s;
    model_.setProbability(cfg_.rateAt(cycle));
    for (std::uint64_t i = 0; i < shifts; ++i) {
        switch (model_.sample()) {
        case ShiftOutcome::Normal:
            break;
        case ShiftOutcome::OverShift:
            ++s.faults;
            ++s.net;
            break;
        case ShiftOutcome::UnderShift:
            ++s.faults;
            --s.net;
            break;
        }
    }
    return s;
}

DbcHealthTracker::DbcHealthTracker(const ServiceFaultConfig &cfg,
                                   std::uint32_t banks,
                                   std::uint32_t groups)
    : cfg_(cfg), banks_(banks), groupsPerBank_(groups),
      groups_(static_cast<std::size_t>(banks) * groups),
      sparesLeft_(cfg.sparesPerChannel)
{
    fatalIf(banks == 0 || groups == 0,
            "health tracker needs at least one (bank, group)");
}

bool
DbcHealthTracker::available(std::uint32_t bank, std::uint32_t group,
                            std::uint64_t cycle) const
{
    const GroupState &g = groups_[slot(bank, group)];
    if (g.dead)
        return false;
    return !(cycle >= g.openedAt && cycle < g.openUntil);
}

bool
DbcHealthTracker::steer(std::uint32_t &bank, std::uint32_t &group,
                        std::uint64_t cycle)
{
    if (available(bank, group, cycle))
        return true;
    // Deterministic scan: sibling groups of the home bank preserve
    // bank-level parallelism; then fall back to any live group.
    for (std::uint32_t g = 0; g < groupsPerBank_; ++g) {
        if (g != group && available(bank, g, cycle)) {
            group = g;
            ++steered_;
            return true;
        }
    }
    for (std::uint32_t b = 0; b < banks_; ++b) {
        if (b == bank)
            continue;
        for (std::uint32_t g = 0; g < groupsPerBank_; ++g) {
            if (available(b, g, cycle)) {
                bank = b;
                group = g;
                ++steered_;
                return true;
            }
        }
    }
    return false;
}

DbcHealthTracker::ErrorAction
DbcHealthTracker::recordError(std::uint32_t bank, std::uint32_t group,
                              std::uint64_t cycle, bool due)
{
    ErrorAction action;
    GroupState &g = groups_[slot(bank, group)];
    if (g.dead)
        return action;
    std::uint64_t horizon =
        cycle >= cfg_.healthWindowCycles
            ? cycle - cfg_.healthWindowCycles
            : 0;
    g.errorCycles.erase(
        std::remove_if(g.errorCycles.begin(), g.errorCycles.end(),
                       [&](std::uint64_t c) { return c < horizon; }),
        g.errorCycles.end());
    g.errorCycles.push_back(cycle);
    bool trip =
        due || g.errorCycles.size() >= cfg_.breakerThreshold;
    if (!trip)
        return action;

    g.errorCycles.clear();
    g.trips += 1;
    g.openedAt = cycle;
    g.openUntil = satAddCycles(cycle, cfg_.breakerCooldownCycles);
    ++breakerTrips_;
    action.breakerOpened = true;
    if (g.trips < cfg_.tripsToRetire)
        return action;

    if (sparesLeft_ > 0) {
        // Retired to a spare: the group comes back fresh once the
        // engine's migration hold (holdUntil) elapses.
        --sparesLeft_;
        ++retired_;
        g.trips = 0;
        g.misalign = 0;
        action.retired = true;
    } else {
        g.dead = true;
        ++dead_;
        action.died = true;
    }
    return action;
}

void
DbcHealthTracker::holdUntil(std::uint32_t bank, std::uint32_t group,
                            std::uint64_t cycle)
{
    GroupState &g = groups_[slot(bank, group)];
    g.openUntil = std::max(g.openUntil, cycle);
}

int &
DbcHealthTracker::misalign(std::uint32_t bank, std::uint32_t group)
{
    return groups_[slot(bank, group)].misalign;
}

std::uint64_t
DbcHealthTracker::touch(std::uint32_t bank, std::uint32_t group,
                        std::uint64_t cycle)
{
    std::uint64_t &last = groups_[slot(bank, group)].lastTouch;
    std::uint64_t idle = cycle - std::min(cycle, last);
    last = cycle;
    return idle;
}

} // namespace coruscant
