#include "reliability/fault_campaign.hpp"

#include <array>
#include <utility>

#include "arch/dwm_memory.hpp"
#include "controller/memory_controller.hpp"
#include "core/coruscant_unit.hpp"
#include "reliability/error_model.hpp"
#include "util/rng.hpp"

namespace coruscant {

namespace {

DeviceParams
paramsFor(std::size_t trd, std::size_t wires)
{
    DeviceParams p = DeviceParams::withTrd(trd);
    p.wiresPerDbc = wires;
    return p;
}

} // namespace

CampaignResult
FaultCampaign::addCampaign(std::size_t trd, std::size_t bits,
                           double p_fault, std::uint64_t trials,
                           std::uint64_t seed)
{
    CampaignResult res;
    res.trials = trials;
    res.analyticalRate =
        TrErrorModel(trd, p_fault).addError(bits);
    CoruscantUnit unit(paramsFor(trd, bits), p_fault, seed);
    Rng rng(seed * 7919 + 13);
    std::uint64_t mask = bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
    for (std::uint64_t t = 0; t < trials; ++t) {
        std::uint64_t a = rng.next() & mask;
        std::uint64_t b = rng.next() & mask;
        auto sum = unit.add({BitVector::fromUint64(bits, a),
                             BitVector::fromUint64(bits, b)},
                            bits, bits);
        if (sum.toUint64() != ((a + b) & mask))
            ++res.errors;
    }
    res.injectedFaults = unit.injectedFaults();
    return res;
}

CampaignResult
FaultCampaign::bulkCampaign(BulkOp op, std::size_t trd,
                            std::size_t operands, double p_fault,
                            std::uint64_t trials, std::uint64_t seed)
{
    CampaignResult res;
    constexpr std::size_t wires = 64; // one operand row is one word
    res.trials = trials * wires;      // per-bit rate
    TrErrorModel model(trd, p_fault);
    res.analyticalRate = (op == BulkOp::Xor || op == BulkOp::Xnor)
                             ? model.perBitXor()
                             : model.perBitOrAndSuperCarry();
    CoruscantUnit unit(paramsFor(trd, wires), p_fault, seed);
    CoruscantUnit golden(paramsFor(trd, wires));
    Rng rng(seed * 104729 + 7);
    for (std::uint64_t t = 0; t < trials; ++t) {
        std::vector<BitVector> ops;
        for (std::size_t i = 0; i < operands; ++i) {
            BitVector row(wires);
            row.setWords([&](std::size_t) {
                return rng.nextBoolWord(wires, 0.5);
            });
            ops.push_back(std::move(row));
        }
        auto noisy = unit.bulkBitwise(op, ops);
        auto clean = golden.bulkBitwise(op, ops);
        res.errors += (noisy ^ clean).popcount();
    }
    res.injectedFaults = unit.injectedFaults();
    return res;
}

CampaignResult
FaultCampaign::multiplyCampaign(std::size_t trd, std::size_t bits,
                                double p_fault, std::uint64_t trials,
                                std::uint64_t seed)
{
    CampaignResult res;
    res.trials = trials;
    res.analyticalRate =
        TrErrorModel(trd, p_fault).multiplyError(bits);
    const std::size_t lane = 2 * bits;
    CoruscantUnit unit(paramsFor(trd, lane), p_fault, seed);
    Rng rng(seed * 31337 + 3);
    std::uint64_t mask = (1ULL << bits) - 1;
    for (std::uint64_t t = 0; t < trials; ++t) {
        std::uint64_t a = rng.next() & mask;
        std::uint64_t b = rng.next() & mask;
        auto prod = unit.multiply(BitVector::fromUint64(lane, a),
                                  BitVector::fromUint64(lane, b), bits);
        if (prod.toUint64() != a * b)
            ++res.errors;
    }
    res.injectedFaults = unit.injectedFaults();
    return res;
}

ControllerCampaignResult
FaultCampaign::controllerCampaign(const ControllerCampaignConfig &ccfg)
{
    // A deliberately small memory: the campaign revisits the same few
    // DBCs so wear accumulates and retirement is reachable.
    MemoryConfig mcfg;
    mcfg.banks = 2;
    mcfg.subarraysPerBank = 2;
    mcfg.tilesPerSubarray = 2;
    mcfg.dbcsPerTile = 2;
    mcfg.pimDbcsPerSubarray = 1;
    constexpr std::size_t wires = 64; // one operand row is one word
    mcfg.device.wiresPerDbc = wires;
    ReliabilityConfig &rel = mcfg.reliability;
    static_cast<FaultKnobs &>(rel) = ccfg;
    rel.shiftFaultSeed = ccfg.seed;
    rel.guardPolicy = ccfg.policy;
    rel.retireThreshold = ccfg.retireThreshold;
    rel.dataFaultSeed = ccfg.seed ^ 0xda7af17u;
    rel.eccMode = ccfg.ecc;

    DwmMainMemory mem(mcfg);
    MemoryController ctrl(mem);
    if (ccfg.metrics != nullptr) {
        mem.attachObs(*ccfg.metrics, ccfg.trace);
        ctrl.attachObs(&ccfg.metrics->component("controller"),
                       ccfg.trace);
    } else if (ccfg.trace != nullptr) {
        ctrl.attachObs(nullptr, ccfg.trace);
    }
    Rng rng(ccfg.seed * 6364136223846793005ULL + 1442695040888963407ULL);

    // Rows are staged and checked a word at a time: each word packs
    // whole lanes, lane l of a row at bits [l * block, (l + 1) * block).
    constexpr std::size_t block = ControllerCampaignConfig::blockSize;
    static_assert(block > 0 && 64 % block == 0,
                  "a packed lane must not straddle a word");
    constexpr std::size_t lanes_per_word = 64 / block;
    constexpr std::uint64_t lane_mask = ~0ULL >> (64 - block);
    // The top bit of every lane: lane-wise sums keep their carries out
    // of it, so no lane carries into the next.
    constexpr std::uint64_t lane_tops = (~0ULL / lane_mask)
                                        << (block - 1);
    const std::size_t rows = mcfg.device.domainsPerWire;

    ControllerCampaignResult res;
    res.trials = ccfg.trials;
    std::array<std::uint64_t, wires / 64> golden{};
    for (std::uint64_t t = 0; t < ccfg.trials; ++t) {
        // Operands occupy consecutive rows of one random DBC; the
        // destination row sits just past them so ladder re-reads never
        // see a partially overwritten operand.
        MemoryEvents before = mem.events();
        LineAddress loc;
        loc.bank = rng.next() % mcfg.banks;
        loc.subarray = rng.next() % mcfg.subarraysPerBank;
        loc.tile = rng.next() % mcfg.tilesPerSubarray;
        loc.dbc = rng.next() % mcfg.dbcsPerTile;
        loc.row = rng.next() % (rows - ccfg.operands);

        golden.fill(0);
        for (std::size_t i = 0; i < ccfg.operands; ++i) {
            BitVector row(wires);
            row.setWords([&](std::size_t w) {
                std::uint64_t word = 0;
                for (std::size_t l = 0; l < lanes_per_word; ++l)
                    word |= (rng.next() & lane_mask) << (l * block);
                golden[w] = ((golden[w] & ~lane_tops) +
                             (word & ~lane_tops)) ^
                            ((golden[w] ^ word) & lane_tops);
                return word;
            });
            LineAddress op_loc = loc;
            op_loc.row = loc.row + i;
            mem.writeLine(op_loc, row);
        }
        LineAddress dst_loc = loc;
        dst_loc.row = loc.row + ccfg.operands;

        CpimInstruction inst;
        inst.op = CpimOp::Add;
        inst.src = mem.addressMap().encode(loc);
        inst.dst = mem.addressMap().encode(dst_loc);
        inst.operands = static_cast<std::uint8_t>(ccfg.operands);
        inst.blockSize = static_cast<std::uint16_t>(block);
        ExecReport rep = ctrl.executeGuarded(inst);

        BitVector got = mem.readLine(dst_loc);
        bool match = true;
        for (std::size_t w = 0; w < golden.size() && match; ++w)
            match = got.word(w) == golden[w];

        // DUE/SDC taxonomy over the whole trial (staging writes,
        // execution, readback): a flagged trial is a DUE whether or
        // not the result happens to be right; an unflagged wrong
        // result is the silent corruption the guard exists to prevent.
        MemoryEvents seen = mem.events().since(before);
        bool flagged = rep.outcome == ExecOutcome::Uncorrectable ||
                       rep.outcome == ExecOutcome::SparesExhausted ||
                       seen.flagged();
        bool fixed = rep.outcome == ExecOutcome::Corrected || seen.fixed();
        if (flagged)
            ++res.due;
        else if (!match)
            ++res.sdc;
        else if (fixed)
            ++res.corrected;
        else
            ++res.clean;
    }

    ScrubReport sweep = mem.scrubAll();
    res.residualAfterScrub = sweep.uncorrectable;
    res.injectedFaults = mem.injectedShiftFaults();
    res.guardChecks = mem.guardChecks();
    res.correctivePulses = mem.correctedMisalignments();
    res.retiredDbcs = mem.retiredDbcs();
    res.dataFaultsInjected = mem.injectedDataFaults();
    res.eccCorrections = mem.eccCorrections();
    res.eccDue = mem.eccDetectedUncorrectable();
    return res;
}

} // namespace coruscant
