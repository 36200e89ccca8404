#include "oracle/polybench_trace.hpp"

#include <cmath>

namespace coruscant::polybench_oracle {

namespace {

/** Deterministic pseudo-data so checksums are reproducible. */
double
seed(std::size_t i, std::size_t j, std::size_t n)
{
    return static_cast<double>((i * j + 1) % n) / static_cast<double>(n);
}

double
seedv(std::size_t i, std::size_t n)
{
    return static_cast<double>(i % n) / static_cast<double>(n);
}

using Matrix = std::vector<std::vector<double>>;

Matrix
makeMatrix(std::size_t n, std::size_t salt = 0)
{
    Matrix m(n, std::vector<double>(n));
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m[i][j] = seed(i + salt, j + 2 * salt + 1, n);
    return m;
}

std::vector<double>
makeVector(std::size_t n, std::size_t salt = 0)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = seedv(i + salt, n);
    return v;
}

double
checksum(const Matrix &m)
{
    double s = 0;
    for (const auto &row : m)
        for (double v : row)
            s += v;
    return s;
}

double
checksum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/** C = alpha*A*B + beta*C with trace recording. */
void
gemmInto(Matrix &c, const Matrix &a, const Matrix &b, double alpha,
         double beta, OpRecorder &rec)
{
    std::size_t n = c.size();
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            rec.loads += 1; // C[i][j]
            double acc = beta * c[i][j];
            rec.muls += 1;
            for (std::size_t k = 0; k < n; ++k) {
                rec.loads += 2; // A[i][k], B[k][j]
                acc += alpha * a[i][k] * b[k][j];
                rec.muls += 2;
                rec.adds += 1;
            }
            c[i][j] = acc;
            rec.stores += 1;
        }
    }
}

/** y = A*x (or A^T*x) with trace recording. */
void
matvecInto(std::vector<double> &y, const Matrix &a,
           const std::vector<double> &x, bool transpose, OpRecorder &rec)
{
    std::size_t n = y.size();
    for (std::size_t i = 0; i < n; ++i) {
        double acc = 0;
        for (std::size_t j = 0; j < n; ++j) {
            rec.loads += 2;
            acc += (transpose ? a[j][i] : a[i][j]) * x[j];
            rec.muls += 1;
            rec.adds += 1;
        }
        y[i] += acc;
        rec.loads += 1;
        rec.adds += 1;
        rec.stores += 1;
    }
}

} // namespace

TracedRun
runGemm(std::size_t n)
{
    TracedRun run{"gemm", {}, 0};
    Matrix a = makeMatrix(n, 1), b = makeMatrix(n, 2),
           c = makeMatrix(n, 3);
    gemmInto(c, a, b, 1.5, 1.2, run.trace);
    run.checksum = checksum(c);
    return run;
}

TracedRun
run2mm(std::size_t n)
{
    TracedRun run{"2mm", {}, 0};
    Matrix a = makeMatrix(n, 1), b = makeMatrix(n, 2),
           c = makeMatrix(n, 3), d = makeMatrix(n, 4);
    Matrix tmp(n, std::vector<double>(n, 0.0));
    gemmInto(tmp, a, b, 1.1, 0.0, run.trace);
    gemmInto(d, tmp, c, 1.0, 1.3, run.trace);
    run.checksum = checksum(d);
    return run;
}

TracedRun
run3mm(std::size_t n)
{
    TracedRun run{"3mm", {}, 0};
    Matrix a = makeMatrix(n, 1), b = makeMatrix(n, 2),
           c = makeMatrix(n, 3), d = makeMatrix(n, 4);
    Matrix e(n, std::vector<double>(n, 0.0));
    Matrix f(n, std::vector<double>(n, 0.0));
    Matrix g(n, std::vector<double>(n, 0.0));
    gemmInto(e, a, b, 1.0, 0.0, run.trace);
    gemmInto(f, c, d, 1.0, 0.0, run.trace);
    gemmInto(g, e, f, 1.0, 0.0, run.trace);
    run.checksum = checksum(g);
    return run;
}

TracedRun
runGemver(std::size_t n)
{
    TracedRun run{"gemver", {}, 0};
    Matrix a = makeMatrix(n, 1);
    auto u1 = makeVector(n, 1), v1 = makeVector(n, 2),
         u2 = makeVector(n, 3), v2 = makeVector(n, 4),
         y = makeVector(n, 5), z = makeVector(n, 6);
    std::vector<double> x(n, 0.0), w(n, 0.0);
    auto &rec = run.trace;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            rec.loads += 5;
            a[i][j] += u1[i] * v1[j] + u2[i] * v2[j];
            rec.muls += 2;
            rec.adds += 2;
            rec.stores += 1;
        }
    }
    matvecInto(x, a, y, true, rec);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] += z[i];
        rec.loads += 2;
        rec.adds += 1;
        rec.stores += 1;
    }
    matvecInto(w, a, x, false, rec);
    run.checksum = checksum(w);
    return run;
}

TracedRun
runGesummv(std::size_t n)
{
    TracedRun run{"gesummv", {}, 0};
    Matrix a = makeMatrix(n, 1), b = makeMatrix(n, 2);
    auto x = makeVector(n, 3);
    std::vector<double> tmp(n, 0.0), y(n, 0.0);
    auto &rec = run.trace;
    matvecInto(tmp, a, x, false, rec);
    matvecInto(y, b, x, false, rec);
    for (std::size_t i = 0; i < n; ++i) {
        y[i] = 1.4 * tmp[i] + 1.2 * y[i];
        rec.loads += 2;
        rec.muls += 2;
        rec.adds += 1;
        rec.stores += 1;
    }
    run.checksum = checksum(y);
    return run;
}

TracedRun
runAtax(std::size_t n)
{
    TracedRun run{"atax", {}, 0};
    Matrix a = makeMatrix(n, 1);
    auto x = makeVector(n, 2);
    std::vector<double> tmp(n, 0.0), y(n, 0.0);
    matvecInto(tmp, a, x, false, run.trace);
    matvecInto(y, a, tmp, true, run.trace);
    run.checksum = checksum(y);
    return run;
}

TracedRun
runBicg(std::size_t n)
{
    TracedRun run{"bicg", {}, 0};
    Matrix a = makeMatrix(n, 1);
    auto p = makeVector(n, 2), r = makeVector(n, 3);
    std::vector<double> q(n, 0.0), s(n, 0.0);
    matvecInto(q, a, p, false, run.trace);
    matvecInto(s, a, r, true, run.trace);
    run.checksum = checksum(q) + checksum(s);
    return run;
}

TracedRun
runMvt(std::size_t n)
{
    TracedRun run{"mvt", {}, 0};
    Matrix a = makeMatrix(n, 1);
    auto y1 = makeVector(n, 2), y2 = makeVector(n, 3);
    std::vector<double> x1(n, 0.0), x2(n, 0.0);
    matvecInto(x1, a, y1, false, run.trace);
    matvecInto(x2, a, y2, true, run.trace);
    run.checksum = checksum(x1) + checksum(x2);
    return run;
}

TracedRun
runSyrk(std::size_t n)
{
    TracedRun run{"syrk", {}, 0};
    Matrix a = makeMatrix(n, 1), c = makeMatrix(n, 2);
    auto &rec = run.trace;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            rec.loads += 1;
            double acc = 1.2 * c[i][j];
            rec.muls += 1;
            for (std::size_t k = 0; k < n; ++k) {
                rec.loads += 2;
                acc += 1.5 * a[i][k] * a[j][k];
                rec.muls += 2;
                rec.adds += 1;
            }
            c[i][j] = acc;
            rec.stores += 1;
        }
    }
    run.checksum = checksum(c);
    return run;
}

TracedRun
runSyr2k(std::size_t n)
{
    TracedRun run{"syr2k", {}, 0};
    Matrix a = makeMatrix(n, 1), b = makeMatrix(n, 2),
           c = makeMatrix(n, 3);
    auto &rec = run.trace;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            rec.loads += 1;
            double acc = 1.2 * c[i][j];
            rec.muls += 1;
            for (std::size_t k = 0; k < n; ++k) {
                rec.loads += 4;
                acc += 1.5 * (a[i][k] * b[j][k] + b[i][k] * a[j][k]);
                rec.muls += 3;
                rec.adds += 2;
            }
            c[i][j] = acc;
            rec.stores += 1;
        }
    }
    run.checksum = checksum(c);
    return run;
}

TracedRun
runTrmm(std::size_t n)
{
    TracedRun run{"trmm", {}, 0};
    Matrix a = makeMatrix(n, 1), b = makeMatrix(n, 2);
    auto &rec = run.trace;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0;
            for (std::size_t k = i + 1; k < n; ++k) {
                rec.loads += 2;
                acc += a[k][i] * b[k][j];
                rec.muls += 1;
                rec.adds += 1;
            }
            b[i][j] = 1.1 * (b[i][j] + acc);
            rec.loads += 1;
            rec.muls += 1;
            rec.adds += 1;
            rec.stores += 1;
        }
    }
    run.checksum = checksum(b);
    return run;
}

TracedRun
runDoitgen(std::size_t n)
{
    // Contraction over the innermost dimension of an n x n x n tensor
    // (Polybench doitgen with nr = nq = np = n).
    TracedRun run{"doitgen", {}, 0};
    auto &rec = run.trace;
    Matrix c4 = makeMatrix(n, 1);
    std::vector<double> sum(n);
    double cs = 0;
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t q = 0; q < n; ++q) {
            for (std::size_t p = 0; p < n; ++p) {
                double acc = 0;
                for (std::size_t s = 0; s < n; ++s) {
                    rec.loads += 2;
                    acc += seed(r + q, s, n) * c4[s][p];
                    rec.muls += 1;
                    rec.adds += 1;
                }
                sum[p] = acc;
                rec.stores += 1;
            }
            for (std::size_t p = 0; p < n; ++p)
                cs += sum[p];
        }
    }
    run.checksum = cs;
    return run;
}

std::vector<TracedRun>
runAllPolybench(std::size_t n)
{
    return {runGemm(n),  run2mm(n),    run3mm(n),  runGemver(n),
            runGesummv(n), runAtax(n), runBicg(n), runMvt(n),
            runSyrk(n),  runSyr2k(n),  runTrmm(n), runDoitgen(n)};
}

} // namespace coruscant::polybench_oracle
