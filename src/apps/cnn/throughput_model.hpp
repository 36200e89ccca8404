/**
 * @file
 * CNN inference throughput model (paper Table IV and Table VI).
 *
 * The model computes, per network and inference mode, a work figure
 *
 *     W(scheme) = sum over layers of
 *                   (work items) x (per-item op cost + marshaling)
 *
 * and converts it to FPS by anchoring ONE cell of each
 * (network, mode) group on the paper's published value; every other
 * cell in the group is then emergent from the schemes' operation
 * costs:
 *
 *   - full precision: per-MAC cost = the scheme's 8-bit multiply
 *     latency (+ amortized accumulation) + a per-item dispatch
 *     overhead;
 *   - ternary weights (DrAcc): per-output cost = the reduction of the
 *     m = K^2*Ic (+Ic-1) partial sums — CSA 7->3/3->2 steps for
 *     CORUSCANT, 40-cycle CLA steps for ELP2IM (paper Sec. IV), their
 *     TRA-scaled equivalent for Ambit — plus per-operand marshaling;
 *   - binary weights (NID): like ternary with the shallower popcount
 *     reduction.
 *
 * Anchor cells and the dispatch/marshaling constants are documented
 * in throughput_model.cpp; EXPERIMENTS.md reports paper-vs-measured
 * for every cell.
 */

#ifndef CORUSCANT_APPS_CNN_THROUGHPUT_MODEL_HPP
#define CORUSCANT_APPS_CNN_THROUGHPUT_MODEL_HPP

#include <span>
#include <string>
#include <vector>

#include "apps/cnn/network.hpp"

namespace coruscant {

/** Inference modes of paper Table IV. */
enum class CnnMode
{
    FullPrecision, ///< 8-bit integer MACs
    TernaryWeight, ///< DrAcc-style (w in {-1,0,1})
    BinaryWeight,  ///< NID-style (w in {0,1})
};

/** Schemes compared in Table IV. */
enum class CnnScheme
{
    Coruscant3,
    Coruscant5,
    Coruscant7,
    Spim,
    Ambit,
    Elp2Im,
    Isaac,
};

const char *cnnSchemeName(CnnScheme s);
const char *cnnModeName(CnnMode m);

/** Command-line spelling of each CnnMode, in declaration order. */
inline std::span<const char *const>
enumTokens(CnnMode)
{
    static constexpr const char *kTokens[] = {"fp", "twn", "bwn"};
    return kTokens;
}

/** Table IV cell. */
struct CnnCell
{
    CnnScheme scheme;
    CnnMode mode;
    double fps = 0.0;
};

/** Throughput model for both CNNs across schemes and modes. */
class CnnThroughputModel
{
  public:
    CnnThroughputModel() = default;

    /** Whether a scheme participates in a mode (Table IV structure). */
    static bool supported(CnnScheme s, CnnMode m);

    /** Frames per second for one cell. */
    double fps(const CnnNetwork &net, CnnScheme scheme,
               CnnMode mode) const;

    /**
     * FPS under N-modular redundancy (paper Table VI): the operation
     * stream is replicated N times plus voting steps.
     * @param n 3, 5, or 7; requires a CORUSCANT scheme with TRD >= n
     */
    double fpsWithNmr(const CnnNetwork &net, CnnScheme scheme,
                      CnnMode mode, std::size_t n) const;

    /** All supported cells for a network/mode. */
    std::vector<CnnCell> table(const CnnNetwork &net, CnnMode mode) const;

    /** Work figure (cycles per effective lane); exposed for tests. */
    double work(const CnnNetwork &net, CnnScheme scheme,
                CnnMode mode) const;

  private:
    double anchorScale(const CnnNetwork &net, CnnMode mode) const;
};

} // namespace coruscant

#endif // CORUSCANT_APPS_CNN_THROUGHPUT_MODEL_HPP
