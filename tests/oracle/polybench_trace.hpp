/**
 * @file
 * Instrumented Polybench kernels: the reference the closed-form traces
 * (apps/polybench/kernels) are checked against.
 *
 * Each kernel runs on real double matrices and vectors and counts, in
 * an OpRecorder, the arithmetic operations and the element loads and
 * stores a Pin-tool trace of it would contain.  These loops produced
 * every Fig. 10 / Fig. 11 trace before the counts were put in closed
 * form.  They cost O(n^3) time (doitgen O(n^4)) and O(n^2) memory.
 */

#ifndef CORUSCANT_ORACLE_POLYBENCH_TRACE_HPP
#define CORUSCANT_ORACLE_POLYBENCH_TRACE_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "apps/polybench/kernels.hpp"

namespace coruscant::polybench_oracle {

/** A recorded kernel run: its trace and a checksum of the output. */
struct TracedRun
{
    std::string name;
    OpRecorder trace;
    double checksum = 0.0; ///< sum of output elements (functional check)
};

/** Every kernel, in runAllPolybench's order, run at size @p n. */
std::vector<TracedRun> runAllPolybench(std::size_t n);

TracedRun runGemm(std::size_t n);
TracedRun run2mm(std::size_t n);
TracedRun run3mm(std::size_t n);
TracedRun runGemver(std::size_t n);
TracedRun runGesummv(std::size_t n);
TracedRun runAtax(std::size_t n);
TracedRun runBicg(std::size_t n);
TracedRun runMvt(std::size_t n);
TracedRun runSyrk(std::size_t n);
TracedRun runSyr2k(std::size_t n);
TracedRun runTrmm(std::size_t n);
TracedRun runDoitgen(std::size_t n);

} // namespace coruscant::polybench_oracle

#endif // CORUSCANT_ORACLE_POLYBENCH_TRACE_HPP
