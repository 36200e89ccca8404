/**
 * @file
 * Polybench kernel traces (paper Sec. V-C).
 *
 * The paper extracted Polybench traces with an Intel Pin tool and
 * mapped the addition/multiplication operations to PIM.  A trace here
 * is the same four counts: arithmetic operations and the element
 * loads/stores the kernel performs.  Every loop bound depends on n
 * only, so each count is a closed-form polynomial in n, and a trace
 * costs O(1) time and memory.  The instrumented kernels the closed
 * forms are checked against live in tests/oracle/polybench_trace.
 * The selected kernels are the addition/multiplication-heavy subset
 * the paper targets: linear algebra (2mm, 3mm, gemm, gemver, gesummv,
 * atax, bicg, mvt, syrk, syr2k, trmm) and the doitgen stencil-like
 * contraction.
 */

#ifndef CORUSCANT_APPS_POLYBENCH_KERNELS_HPP
#define CORUSCANT_APPS_POLYBENCH_KERNELS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace coruscant {

/** Pin-tool-equivalent operation/access counts for one kernel run. */
struct OpRecorder
{
    std::uint64_t adds = 0;   ///< floating add/sub operations
    std::uint64_t muls = 0;   ///< floating multiply operations
    std::uint64_t loads = 0;  ///< element loads
    std::uint64_t stores = 0; ///< element stores
};

/** A named kernel trace. */
struct KernelRun
{
    std::string name;
    OpRecorder trace;
};

/**
 * Largest n: every count stays below 2^53 (doitgen's loads, 2n^4, are
 * 2^49 here), so the system model converts each to double exactly.
 */
inline constexpr std::size_t kMaxPolybenchSize = 4096;

/** All Polybench kernels in the reproduction, traced at size @p n. */
std::vector<KernelRun> runAllPolybench(std::size_t n);

/** Individual kernels (sizes: square matrices / vectors of @p n). */
KernelRun runGemm(std::size_t n);
KernelRun run2mm(std::size_t n);
KernelRun run3mm(std::size_t n);
KernelRun runGemver(std::size_t n);
KernelRun runGesummv(std::size_t n);
KernelRun runAtax(std::size_t n);
KernelRun runBicg(std::size_t n);
KernelRun runMvt(std::size_t n);
KernelRun runSyrk(std::size_t n);
KernelRun runSyr2k(std::size_t n);
KernelRun runTrmm(std::size_t n);
KernelRun runDoitgen(std::size_t n);

} // namespace coruscant

#endif // CORUSCANT_APPS_POLYBENCH_KERNELS_HPP
