#include "apps/cnn/throughput_model.hpp"

#include <cmath>

#include "baselines/cpu_system.hpp"
#include "baselines/dwm_pim_baselines.hpp"
#include "core/op_cost.hpp"
#include "util/logging.hpp"

namespace coruscant {

const char *
cnnSchemeName(CnnScheme s)
{
    switch (s) {
      case CnnScheme::Coruscant3: return "CORUSCANT-3";
      case CnnScheme::Coruscant5: return "CORUSCANT-5";
      case CnnScheme::Coruscant7: return "CORUSCANT-7";
      case CnnScheme::Spim: return "SPIM";
      case CnnScheme::Ambit: return "Ambit";
      case CnnScheme::Elp2Im: return "ELP2IM";
      case CnnScheme::Isaac: return "ISAAC";
    }
    return "?";
}

const char *
cnnModeName(CnnMode m)
{
    switch (m) {
      case CnnMode::FullPrecision: return "full-precision";
      case CnnMode::TernaryWeight: return "ternary (DrAcc)";
      case CnnMode::BinaryWeight: return "binary (NID)";
    }
    return "?";
}

namespace {

// ---------------------------------------------------------------------
// CORUSCANT's multiply, reduction and addition cycles are measured by
// CoruscantCostModel at the scheme's TRD, not calibrated.
// Dispatch/marshaling constants (documented calibration):
//  - dwmDispatchOverhead: per-item command/queueing cost in the DWM
//    PIM high-throughput mode; fitted from the paper's CORUSCANT-3 vs
//    CORUSCANT-7 full-precision ratio (71.1 vs 90.5 FPS on AlexNet
//    implies ~86 cycles of per-item overhead around the 105- vs
//    64-cycle multiplies).
//  - spimDispatchOverhead: SPIM moves operands into its dedicated
//    skyrmion computing units and back; fitted from the paper's SPIM
//    vs CORUSCANT-7 ratio (32.1 vs 90.5 FPS).
//  - dwmMarshalPerOperand / dramMarshalPerOperand: cycles to stage one
//    partial-sum operand row in the quantized modes; fitted from the
//    CORUSCANT-3 vs CORUSCANT-7 ternary ratio and the ELP2IM ternary
//    cell respectively.
//  - bwnReductionFactor: NID's popcount tree is shallower than the
//    DrAcc accumulation (binary instead of ternary partial sums).
// ---------------------------------------------------------------------
constexpr double dwmDispatchOverhead = 86.0;
constexpr double spimDispatchOverhead = 225.0;
constexpr double dwmMarshalPerOperand = 4.3;
constexpr double dramMarshalPerOperand = 26.3;
constexpr double bwnReductionFactor = 0.35;

// Anchor cells: one published Table IV value per (network, mode).
struct Anchor
{
    const char *network;
    CnnMode mode;
    CnnScheme scheme;
    double fps;
};

constexpr Anchor anchors[] = {
    {"alexnet", CnnMode::FullPrecision, CnnScheme::Coruscant7, 90.5},
    {"lenet5", CnnMode::FullPrecision, CnnScheme::Coruscant7, 163.0},
    {"alexnet", CnnMode::TernaryWeight, CnnScheme::Coruscant3, 358.0},
    {"lenet5", CnnMode::TernaryWeight, CnnScheme::Coruscant3, 22172.0},
    {"alexnet", CnnMode::BinaryWeight, CnnScheme::Elp2Im, 253.0},
    {"lenet5", CnnMode::BinaryWeight, CnnScheme::Elp2Im, 9959.0},
};

std::size_t
schemeTrd(CnnScheme s)
{
    switch (s) {
      case CnnScheme::Coruscant3: return 3;
      case CnnScheme::Coruscant5: return 5;
      case CnnScheme::Coruscant7: return 7;
      default: return 0;
    }
}

/** 8-bit multiply latency per scheme (measured / published). */
double
multiplyCycles(CnnScheme s)
{
    if (std::size_t trd = schemeTrd(s))
        return static_cast<double>(
            CoruscantCostModel(trd).multiply(8).cycles);
    switch (s) {
      case CnnScheme::Spim: {
        // Bit-serial multiply plus the amortized accumulation share
        // (latency-optimized five-operand adds consume four values).
        auto spim = DwmPimBaseline::spim();
        return static_cast<double>(spim.multiplyCost(8).cycles) +
               static_cast<double>(
                   spim.addCost(5, 8, ComposeMode::LatencyOptimized)
                       .cycles) /
                   4.0;
      }
      default:
        panic("multiply not modeled for ", cnnSchemeName(s));
    }
}

/**
 * Cost of reducing m partial-sum operands to one value (quantized
 * modes), excluding marshaling.
 */
double
reductionCycles(CnnScheme s, double m)
{
    if (m <= 1)
        return 0;
    if (std::size_t trd = schemeTrd(s)) {
        // Reductions until the adder's arity remains, then one add.
        const DeviceParams dev = DeviceParams::withTrd(trd);
        const CoruscantCostModel cost(trd);
        auto arity = static_cast<double>(dev.maxAddOperands());
        auto consumed =
            static_cast<double>(dev.csaInputs() - dev.csaOutputs());
        return std::ceil(std::max(0.0, m - arity) / consumed) *
                   static_cast<double>(cost.reduce().cycles) +
               static_cast<double>(
                   cost.add(dev.maxAddOperands(), 8).cycles);
    }
    switch (s) {
      case CnnScheme::Elp2Im:
        // Paper Sec. IV: one CLA addition step = 40 cycles; the
        // pairwise tree needs ceil(log2 m) steps.
        return std::ceil(std::log2(m)) * 40.0;
      case CnnScheme::Ambit:
        // Same tree with Ambit's AAP-based step (4 AAP vs 2 AP ops:
        // 3.43x the ELP2IM step).
        return std::ceil(std::log2(m)) * 137.0;
      default:
        panic("reduction not modeled for ", cnnSchemeName(s));
    }
}

double
dispatchOverhead(CnnScheme s)
{
    switch (s) {
      case CnnScheme::Spim:
        return spimDispatchOverhead;
      default:
        return dwmDispatchOverhead;
    }
}

double
marshalPerOperand(CnnScheme s)
{
    return (s == CnnScheme::Ambit || s == CnnScheme::Elp2Im)
               ? dramMarshalPerOperand
               : dwmMarshalPerOperand;
}

/** Operands per output value for a layer (partial products + bias). */
double
operandsPerOutput(const CnnLayer &l)
{
    switch (l.type) {
      case CnnLayer::Type::Conv:
        return static_cast<double>(l.kernel * l.kernel * l.inC) +
               static_cast<double>(l.inC - 1);
      case CnnLayer::Type::FullyConnected:
        return static_cast<double>(l.inFeatures);
      case CnnLayer::Type::Pool:
        return static_cast<double>(l.kernel * l.kernel);
    }
    return 0;
}

} // namespace

bool
CnnThroughputModel::supported(CnnScheme s, CnnMode m)
{
    switch (m) {
      case CnnMode::FullPrecision:
        return s == CnnScheme::Coruscant3 || s == CnnScheme::Coruscant5
               || s == CnnScheme::Coruscant7 || s == CnnScheme::Spim
               || s == CnnScheme::Isaac;
      case CnnMode::TernaryWeight:
        return s == CnnScheme::Coruscant3 || s == CnnScheme::Coruscant5
               || s == CnnScheme::Coruscant7 || s == CnnScheme::Ambit
               || s == CnnScheme::Elp2Im;
      case CnnMode::BinaryWeight:
        return s == CnnScheme::Ambit || s == CnnScheme::Elp2Im;
    }
    return false;
}

double
CnnThroughputModel::work(const CnnNetwork &net, CnnScheme scheme,
                         CnnMode mode) const
{
    fatalIf(!supported(scheme, mode), cnnSchemeName(scheme),
            " is not part of the ", cnnModeName(mode), " comparison");
    double total = 0;
    switch (mode) {
      case CnnMode::FullPrecision: {
        double per_mac =
            multiplyCycles(scheme) + dispatchOverhead(scheme);
        total = static_cast<double>(net.totalMacs()) * per_mac;
        break;
      }
      case CnnMode::TernaryWeight:
      case CnnMode::BinaryWeight: {
        double factor =
            mode == CnnMode::BinaryWeight ? bwnReductionFactor : 1.0;
        for (const auto &l : net.layers) {
            if (l.type == CnnLayer::Type::Pool)
                continue;
            double m = operandsPerOutput(l);
            double per_output =
                factor * reductionCycles(scheme, m) +
                marshalPerOperand(scheme) * m +
                dispatchOverhead(scheme);
            total += static_cast<double>(l.outputs()) * per_output;
        }
        break;
      }
    }
    return total;
}

double
CnnThroughputModel::anchorScale(const CnnNetwork &net,
                                CnnMode mode) const
{
    for (const auto &a : anchors) {
        if (net.name == a.network && mode == a.mode)
            return a.fps * work(net, a.scheme, a.mode);
    }
    fatal("no throughput anchor for network ", net.name);
}

double
CnnThroughputModel::fps(const CnnNetwork &net, CnnScheme scheme,
                        CnnMode mode) const
{
    if (scheme == CnnScheme::Isaac) {
        // Published crossbar throughput (paper cites ISAAC directly).
        if (net.name == "alexnet")
            return IsaacModel::alexnetFps;
        if (net.name == "lenet5")
            return IsaacModel::lenet5Fps;
        return IsaacModel::estimateFps(
            static_cast<double>(net.totalMacs()));
    }
    return anchorScale(net, mode) / work(net, scheme, mode);
}

double
CnnThroughputModel::fpsWithNmr(const CnnNetwork &net, CnnScheme scheme,
                               CnnMode mode, std::size_t n) const
{
    std::size_t trd = schemeTrd(scheme);
    fatalIf(trd == 0, "N-modular redundancy is a CORUSCANT capability");
    DeviceParams::checkVote(n, trd);
    // Every operation repeats N times; each repetition group adds a
    // vote (3 cycles) plus the re-staging of the N replica rows.
    double base_op = mode == CnnMode::FullPrecision
                         ? multiplyCycles(scheme)
                         : reductionCycles(scheme, 25.0);
    double vote = 3.0 + 2.0 * static_cast<double>(n);
    double factor = static_cast<double>(n) *
                    (1.0 + vote / (base_op + dispatchOverhead(scheme)));
    return fps(net, scheme, mode) / factor;
}

std::vector<CnnCell>
CnnThroughputModel::table(const CnnNetwork &net, CnnMode mode) const
{
    std::vector<CnnCell> cells;
    for (CnnScheme s :
         {CnnScheme::Spim, CnnScheme::Isaac, CnnScheme::Ambit,
          CnnScheme::Elp2Im, CnnScheme::Coruscant3,
          CnnScheme::Coruscant5, CnnScheme::Coruscant7}) {
        if (s == CnnScheme::Isaac && mode != CnnMode::FullPrecision)
            continue;
        if (!supported(s, mode) && s != CnnScheme::Isaac)
            continue;
        cells.push_back({s, mode, fps(net, s, mode)});
    }
    return cells;
}

} // namespace coruscant
