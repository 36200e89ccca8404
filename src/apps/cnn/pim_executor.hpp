/**
 * @file
 * Functional quantized CNN inference through the CORUSCANT PIM ops.
 *
 * The throughput model answers "how fast"; this executor answers "does
 * it compute the right thing": convolution, pooling, fully-connected,
 * and ReLU layers run end-to-end through CoruscantUnit multiply /
 * add / max / relu operations on 8-bit quantized data, checked against
 * plain integer references in the tests.
 *
 * Mapping (paper Sec. IV): convolutions are lowered to dot products
 * (im2col); products are computed 8-bit x 8-bit in 16-bit lanes and
 * accumulated into 32-bit lanes with multi-operand additions; pooling
 * uses the TR max function with transverse-write rotation; ReLU is the
 * predicated row refresh.
 */

#ifndef CORUSCANT_APPS_CNN_PIM_EXECUTOR_HPP
#define CORUSCANT_APPS_CNN_PIM_EXECUTOR_HPP

#include <cstdint>
#include <vector>

#include "core/coruscant_unit.hpp"

namespace coruscant {

/** Simple dense tensor of int values with an explicit shape. */
struct IntTensor
{
    std::size_t h = 0, w = 0, c = 0; ///< HWC layout (h=1,w=1 for fc)
    std::vector<std::int32_t> data;

    IntTensor() = default;
    IntTensor(std::size_t h, std::size_t w, std::size_t c)
        : h(h), w(w), c(c), data(h * w * c, 0)
    {}

    std::int32_t &
    at(std::size_t i, std::size_t j, std::size_t k)
    {
        return data[(i * w + j) * c + k];
    }

    std::int32_t
    at(std::size_t i, std::size_t j, std::size_t k) const
    {
        return data[(i * w + j) * c + k];
    }

    std::size_t size() const { return data.size(); }
};

/** Runs quantized layers through a CoruscantUnit. */
class PimCnnExecutor
{
  public:
    explicit PimCnnExecutor(const DeviceParams &params =
                                DeviceParams::coruscantDefault());

    /**
     * Dot product of two int8 vectors via PIM multiply + accumulate.
     * Values must fit in [-128, 127]; the result is exact int32.
     */
    std::int32_t dotProduct(const std::vector<std::int8_t> &a,
                            const std::vector<std::int8_t> &b);

    /**
     * Valid-padding stride-1 convolution of an int8 HWC input with
     * int8 kernels [oc][k][k][ic], plus int32 bias per output channel.
     */
    IntTensor conv2d(const IntTensor &input,
                     const std::vector<IntTensor> &kernels,
                     const std::vector<std::int32_t> &bias);

    /** kxk max pooling with stride k (each channel independently). */
    IntTensor maxPool(const IntTensor &input, std::size_t k);

    /** Fully connected: out[o] = sum_i w[o][i]*x[i] + b[o]. */
    std::vector<std::int32_t>
    fullyConnected(const std::vector<std::int8_t> &x,
                   const std::vector<std::vector<std::int8_t>> &w,
                   const std::vector<std::int32_t> &bias);

    /** ReLU over int32 values via the predicated row refresh. */
    void reluInPlace(IntTensor &t);

    /** Requantize int32 accumulators to int8 by a power-of-two shift. */
    static std::int8_t requantize(std::int32_t v, unsigned shift);

    /** Cost accounting across all executed layers. */
    const CostLedger &ledger() const { return unit.ledger(); }

  private:
    /** Sum a list of uint32 magnitudes via PIM multi-operand adds. */
    std::uint64_t pimSumU32(const std::vector<std::uint64_t> &values);

    CoruscantUnit unit;
};

} // namespace coruscant

#endif // CORUSCANT_APPS_CNN_PIM_EXECUTOR_HPP
