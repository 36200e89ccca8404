#include "apps/polybench/kernels.hpp"

namespace coruscant {

namespace {

OpRecorder
operator+(const OpRecorder &a, const OpRecorder &b)
{
    return {.adds = a.adds + b.adds,
            .muls = a.muls + b.muls,
            .loads = a.loads + b.loads,
            .stores = a.stores + b.stores};
}

OpRecorder
operator*(std::uint64_t k, const OpRecorder &t)
{
    return {.adds = k * t.adds,
            .muls = k * t.muls,
            .loads = k * t.loads,
            .stores = k * t.stores};
}

/**
 * One element of C = alpha*A*B + beta*C: C[i][j] is loaded and scaled
 * (1 mul), n terms take 2 loads, 2 muls and 1 add each, 1 store.
 */
OpRecorder
gemmElement(std::uint64_t n)
{
    return {.adds = n, .muls = 2 * n + 1, .loads = 2 * n + 1, .stores = 1};
}

OpRecorder
gemm(std::uint64_t n)
{
    return n * n * gemmElement(n);
}

/**
 * y += A*x (or A^T*x): each of the n rows takes n terms (2 loads,
 * 1 mul, 1 add each), then loads, adds to and stores y[i].
 */
OpRecorder
matvec(std::uint64_t n)
{
    const OpRecorder row{
        .adds = n + 1, .muls = n, .loads = 2 * n + 1, .stores = 1};
    return n * row;
}

} // namespace

KernelRun
runGemm(std::size_t n)
{
    return {"gemm", gemm(n)};
}

KernelRun
run2mm(std::size_t n)
{
    return {"2mm", 2 * gemm(n)};
}

KernelRun
run3mm(std::size_t n)
{
    return {"3mm", 3 * gemm(n)};
}

KernelRun
runGemver(std::size_t n)
{
    // A += u1*v1^T + u2*v2^T per element, x = A^T*y, x += z per
    // element, w = A*x.
    const OpRecorder update{.adds = 2, .muls = 2, .loads = 5, .stores = 1};
    const OpRecorder add_z{.adds = 1, .loads = 2, .stores = 1};
    return {"gemver", n * n * update + n * add_z + 2 * matvec(n)};
}

KernelRun
runGesummv(std::size_t n)
{
    // tmp = A*x, y = B*x, then y = alpha*tmp + beta*y per element.
    const OpRecorder combine{.adds = 1, .muls = 2, .loads = 2, .stores = 1};
    return {"gesummv", 2 * matvec(n) + n * combine};
}

KernelRun
runAtax(std::size_t n)
{
    return {"atax", 2 * matvec(n)};
}

KernelRun
runBicg(std::size_t n)
{
    return {"bicg", 2 * matvec(n)};
}

KernelRun
runMvt(std::size_t n)
{
    return {"mvt", 2 * matvec(n)};
}

KernelRun
runSyrk(std::size_t n)
{
    // The n(n+1)/2 elements j <= i of C = alpha*A*A^T + beta*C.
    return {"syrk", n * (n + 1) / 2 * gemmElement(n)};
}

KernelRun
runSyr2k(std::size_t n)
{
    // The n(n+1)/2 elements j <= i of C = alpha*(A*B^T + B*A^T) +
    // beta*C: C[i][j] is loaded and scaled, n terms take 4 loads,
    // 3 muls and 2 adds each, 1 store.
    const OpRecorder element{
        .adds = 2 * n, .muls = 3 * n + 1, .loads = 4 * n + 1, .stores = 1};
    return {"syr2k", n * (n + 1) / 2 * element};
}

KernelRun
runTrmm(std::size_t n)
{
    // B[i][j] = alpha*(B[i][j] + sum_{k>i} A[k][i]*B[k][j]): row i
    // takes n - 1 - i terms per column, n * n(n-1)/2 terms in all.
    const OpRecorder term{.adds = 1, .muls = 1, .loads = 2};
    const OpRecorder element{.adds = 1, .muls = 1, .loads = 1, .stores = 1};
    return {"trmm", n * ((n * n - n) / 2) * term + n * n * element};
}

KernelRun
runDoitgen(std::size_t n)
{
    // Contraction over the innermost dimension of an n x n x n tensor
    // (Polybench doitgen with nr = nq = np = n): n^3 outputs, each an
    // n-term dot product (2 loads, 1 mul, 1 add per term) and a store.
    const OpRecorder output{
        .adds = n, .muls = n, .loads = 2 * n, .stores = 1};
    return {"doitgen", n * n * n * output};
}

std::vector<KernelRun>
runAllPolybench(std::size_t n)
{
    return {runGemm(n),  run2mm(n),    run3mm(n),  runGemver(n),
            runGesummv(n), runAtax(n), runBicg(n), runMvt(n),
            runSyrk(n),  runSyr2k(n),  runTrmm(n), runDoitgen(n)};
}

} // namespace coruscant
