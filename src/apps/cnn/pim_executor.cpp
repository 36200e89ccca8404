#include "apps/cnn/pim_executor.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace coruscant {

PimCnnExecutor::PimCnnExecutor(const DeviceParams &params)
    : unit(params)
{}

std::uint64_t
PimCnnExecutor::pimSumU32(const std::vector<std::uint64_t> &values)
{
    if (values.empty())
        return 0;
    std::vector<std::uint64_t> pending = values;
    std::size_t arity = unit.params().maxAddOperands();
    while (pending.size() > 1) {
        std::vector<std::uint64_t> next;
        for (std::size_t i = 0; i < pending.size(); i += arity) {
            std::size_t m =
                std::min(arity, pending.size() - i);
            if (m == 1) {
                next.push_back(pending[i]);
                continue;
            }
            std::vector<BitVector> rows;
            for (std::size_t j = 0; j < m; ++j) {
                BitVector row(unit.width());
                row.insertUint64(0, 32, pending[i + j] & 0xFFFFFFFF);
                rows.push_back(std::move(row));
            }
            auto sum = unit.add(rows, 32, 32);
            next.push_back(sum.sliceUint64(0, 32));
        }
        pending = std::move(next);
    }
    return pending[0] & 0xFFFFFFFF;
}

std::int32_t
PimCnnExecutor::dotProduct(const std::vector<std::int8_t> &a,
                           const std::vector<std::int8_t> &b)
{
    fatalIf(a.size() != b.size(), "dot product length mismatch");
    const std::size_t lane_w = 16;
    const std::size_t lanes = unit.width() / lane_w;

    // Batched magnitude products: up to `lanes` pairs per PIM multiply.
    std::vector<std::uint64_t> addends;
    addends.reserve(a.size());
    for (std::size_t base = 0; base < a.size(); base += lanes) {
        std::size_t m = std::min(lanes, a.size() - base);
        BitVector ar(unit.width()), br(unit.width());
        std::vector<bool> negative(m);
        for (std::size_t j = 0; j < m; ++j) {
            std::int32_t av = a[base + j];
            std::int32_t bv = b[base + j];
            negative[j] = (av < 0) != (bv < 0);
            ar.insertUint64(j * lane_w, lane_w,
                            static_cast<std::uint64_t>(std::abs(av)));
            br.insertUint64(j * lane_w, lane_w,
                            static_cast<std::uint64_t>(std::abs(bv)));
        }
        auto prod = unit.multiply(ar, br, 8, MulStrategy::OptimizedCsa);
        for (std::size_t j = 0; j < m; ++j) {
            std::uint64_t mag = prod.sliceUint64(j * lane_w, lane_w);
            // Two's complement in the 32-bit accumulator domain.
            addends.push_back(negative[j]
                                  ? ((~mag + 1) & 0xFFFFFFFF)
                                  : mag);
        }
    }
    std::uint64_t total = pimSumU32(addends);
    return static_cast<std::int32_t>(
        static_cast<std::uint32_t>(total));
}

IntTensor
PimCnnExecutor::conv2d(const IntTensor &input,
                       const std::vector<IntTensor> &kernels,
                       const std::vector<std::int32_t> &bias)
{
    fatalIf(kernels.empty(), "conv needs at least one kernel");
    std::size_t k = kernels[0].h;
    fatalIf(kernels[0].w != k || kernels[0].c != input.c,
            "kernel shape mismatch");
    fatalIf(bias.size() != kernels.size(), "bias per output channel");
    fatalIf(input.h < k || input.w < k, "input smaller than kernel");

    IntTensor out(input.h - k + 1, input.w - k + 1, kernels.size());
    for (std::size_t oc = 0; oc < kernels.size(); ++oc) {
        // im2col row for this kernel.
        std::vector<std::int8_t> kvec;
        kvec.reserve(k * k * input.c);
        for (std::size_t ki = 0; ki < k; ++ki)
            for (std::size_t kj = 0; kj < k; ++kj)
                for (std::size_t kc = 0; kc < input.c; ++kc)
                    kvec.push_back(static_cast<std::int8_t>(
                        kernels[oc].at(ki, kj, kc)));
        for (std::size_t i = 0; i < out.h; ++i) {
            for (std::size_t j = 0; j < out.w; ++j) {
                std::vector<std::int8_t> window;
                window.reserve(kvec.size());
                for (std::size_t ki = 0; ki < k; ++ki)
                    for (std::size_t kj = 0; kj < k; ++kj)
                        for (std::size_t kc = 0; kc < input.c; ++kc)
                            window.push_back(static_cast<std::int8_t>(
                                input.at(i + ki, j + kj, kc)));
                out.at(i, j, oc) =
                    dotProduct(window, kvec) + bias[oc];
            }
        }
    }
    return out;
}

IntTensor
PimCnnExecutor::maxPool(const IntTensor &input, std::size_t k)
{
    fatalIf(k == 0 || input.h % k != 0 || input.w % k != 0,
            "pool window must tile the input");
    const std::size_t word = 16;
    const std::size_t lanes = unit.width() / word;
    const std::size_t trd = unit.params().trd;

    IntTensor out(input.h / k, input.w / k, input.c);
    // Gather windows and process up to `lanes` of them in parallel,
    // chunking candidates into TR-window-sized groups.
    struct Window
    {
        std::size_t i, j, c;
        std::vector<std::uint64_t> values;
    };
    std::vector<Window> windows;
    for (std::size_t i = 0; i < out.h; ++i) {
        for (std::size_t j = 0; j < out.w; ++j) {
            for (std::size_t c = 0; c < input.c; ++c) {
                Window win{i, j, c, {}};
                for (std::size_t pi = 0; pi < k; ++pi) {
                    for (std::size_t pj = 0; pj < k; ++pj) {
                        std::int32_t v =
                            input.at(i * k + pi, j * k + pj, c);
                        fatalIf(v < 0 || v >= (1 << 16),
                                "pool values must be in [0, 2^16)");
                        win.values.push_back(
                            static_cast<std::uint64_t>(v));
                    }
                }
                windows.push_back(std::move(win));
            }
        }
    }

    for (std::size_t base = 0; base < windows.size(); base += lanes) {
        std::size_t m = std::min(lanes, windows.size() - base);
        // Current best per window; refined in candidate chunks.
        std::vector<std::uint64_t> best(m, 0);
        std::size_t depth = windows[base].values.size();
        for (std::size_t lo = 0; lo < depth; lo += trd - 1) {
            std::size_t cand =
                std::min<std::size_t>(trd - 1, depth - lo);
            std::vector<BitVector> rows;
            // One row per candidate index + the running best.
            for (std::size_t r = 0; r < cand; ++r) {
                BitVector row(unit.width());
                for (std::size_t l = 0; l < m; ++l)
                    row.insertUint64(l * word, word,
                                     windows[base + l].values[lo + r]);
                rows.push_back(std::move(row));
            }
            BitVector carry(unit.width());
            for (std::size_t l = 0; l < m; ++l)
                carry.insertUint64(l * word, word, best[l]);
            rows.push_back(std::move(carry));
            auto mx = unit.maxOfRows(rows, word);
            for (std::size_t l = 0; l < m; ++l)
                best[l] = mx.sliceUint64(l * word, word);
        }
        for (std::size_t l = 0; l < m; ++l) {
            const auto &win = windows[base + l];
            out.at(win.i, win.j, win.c) =
                static_cast<std::int32_t>(best[l]);
        }
    }
    return out;
}

std::vector<std::int32_t>
PimCnnExecutor::fullyConnected(
    const std::vector<std::int8_t> &x,
    const std::vector<std::vector<std::int8_t>> &w,
    const std::vector<std::int32_t> &bias)
{
    fatalIf(w.size() != bias.size(), "bias per output");
    std::vector<std::int32_t> out;
    out.reserve(w.size());
    for (std::size_t o = 0; o < w.size(); ++o) {
        fatalIf(w[o].size() != x.size(), "weight row length mismatch");
        out.push_back(dotProduct(x, w[o]) + bias[o]);
    }
    return out;
}

void
PimCnnExecutor::reluInPlace(IntTensor &t)
{
    const std::size_t lane_w = 32;
    const std::size_t lanes = unit.width() / lane_w;
    for (std::size_t base = 0; base < t.size(); base += lanes) {
        std::size_t m = std::min(lanes, t.size() - base);
        BitVector row(unit.width());
        for (std::size_t l = 0; l < m; ++l) {
            row.insertUint64(l * lane_w, lane_w,
                             static_cast<std::uint32_t>(
                                 t.data[base + l]));
        }
        auto relued = unit.relu(row, lane_w);
        for (std::size_t l = 0; l < m; ++l) {
            t.data[base + l] = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(
                    relued.sliceUint64(l * lane_w, lane_w)));
        }
    }
}

std::int8_t
PimCnnExecutor::requantize(std::int32_t v, unsigned shift)
{
    std::int32_t scaled = v >> shift;
    return static_cast<std::int8_t>(std::clamp(scaled, -127, 127));
}

} // namespace coruscant
