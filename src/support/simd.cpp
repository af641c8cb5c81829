#include "support/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace fairbfl::support::simd {

// --- The pinned kernels ----------------------------------------------------
// Every committed fixed-seed series was produced by these loops' exact
// accumulation orders.  This file is the reference implementation --
// never reassociate anything here.

namespace {

void axpy_portable(float alpha, const float* x, float* y, std::size_t n) {
    // Elementwise, so the 4-way unroll is bit-identical to the plain loop.
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        y[i] += alpha * x[i];
        y[i + 1] += alpha * x[i + 1];
        y[i + 2] += alpha * x[i + 2];
        y[i + 3] += alpha * x[i + 3];
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
}

void squared_distance_blocked_3x4_portable(const float* const* xs,
                                           const float* const* ys,
                                           std::size_t n, double* out) {
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            out[r * 4 + c] = squared_distance_blocked(xs[r], ys[c], n);
}

void gemv_rows_portable(const float* a, std::size_t rows, std::size_t cols,
                        const float* const* xs, std::size_t count,
                        const float* bias, float* out) {
    for (std::size_t s = 0; s < count; ++s)
        gemv(a, rows, cols, xs[s], bias, out + s * rows);
}

void outer_rows_l2_portable(const float* d, const float* const* xs,
                            std::size_t count, std::size_t rows,
                            std::size_t cols, float l2, const float* w,
                            float* g, double* w_norm2) {
    const std::size_t n = rows * cols;
    for (std::size_t i = 0; i < n; ++i) g[i] = 0.0F;
    for (std::size_t s = 0; s < count; ++s)
        for (std::size_t r = 0; r < rows; ++r)
            axpy_portable(d[s * rows + r], xs[s], g + r * cols, cols);
    axpy_portable(l2, w, g, n);
    if (w_norm2 != nullptr) *w_norm2 = dot(w, w, n);
}

void dot_and_norm_rows_portable(const float* const* xs, std::size_t count,
                                const float* y, std::size_t n, double* dot,
                                double* norm2) {
    for (std::size_t r = 0; r < count; ++r)
        dot_and_norm(xs[r], y, n, dot + r, norm2 + r);
}

/// The lane-exact body when the CPU and the build allow it (CPUID plus
/// the TU's ISA guard, a null accessor), else `portable`.  Either body
/// yields the same bits, so this is a speed choice, never a behaviour one.
template <typename Kernel>
Kernel lane_exact_or(Kernel lane_exact, Kernel portable) noexcept {
    return lane_exact != nullptr && cpu_supports_avx2_fma() ? lane_exact
                                                            : portable;
}

}  // namespace

double dot(const float* x, const float* y, std::size_t n) noexcept {
    // Strictly left-to-right: training and theta depend on these bits.
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    return acc;
}

double squared_distance(const float* x, const float* y,
                        std::size_t n) noexcept {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
        acc += d * d;
    }
    return acc;
}

double squared_distance_blocked(const float* x, const float* y,
                                std::size_t n) noexcept {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const double d0 =
            static_cast<double>(x[i]) - static_cast<double>(y[i]);
        const double d1 =
            static_cast<double>(x[i + 1]) - static_cast<double>(y[i + 1]);
        const double d2 =
            static_cast<double>(x[i + 2]) - static_cast<double>(y[i + 2]);
        const double d3 =
            static_cast<double>(x[i + 3]) - static_cast<double>(y[i + 3]);
        a0 += d0 * d0;
        a1 += d1 * d1;
        a2 += d2 * d2;
        a3 += d3 * d3;
    }
    double acc = (a0 + a1) + (a2 + a3);
    for (; i < n; ++i) {
        const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
        acc += d * d;
    }
    return acc;
}

void squared_distance_blocked_3x4(const float* const* xs,
                                  const float* const* ys, std::size_t n,
                                  double* out) noexcept {
    // Decided once per process, on first use.
    static const SquaredDistance3x4 kernel =
        lane_exact_or(detail::lane_exact_squared_distance_blocked_3x4(),
                      squared_distance_blocked_3x4_portable);
    kernel(xs, ys, n, out);
}

void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
    static const Axpy kernel =
        lane_exact_or(detail::lane_exact_axpy(), axpy_portable);
    kernel(alpha, x, y, n);
}

void gemv(const float* a, std::size_t rows, std::size_t cols, const float* x,
          const float* bias, float* out) noexcept {
    std::size_t r = 0;
    // Four rows at a time: four independent left-to-right double chains
    // hide the FP-add latency that serializes a single `dot`.  The inner
    // loop is unrolled by two columns; each chain still receives its
    // products strictly in column order, so every row is bit-identical to
    // a lone `dot`.
    for (; r + 4 <= rows; r += 4) {
        const float* a0 = a + r * cols;
        const float* a1 = a0 + cols;
        const float* a2 = a1 + cols;
        const float* a3 = a2 + cols;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        std::size_t j = 0;
        for (; j + 2 <= cols; j += 2) {
            const double x0 = static_cast<double>(x[j]);
            const double x1 = static_cast<double>(x[j + 1]);
            s0 += static_cast<double>(a0[j]) * x0;
            s0 += static_cast<double>(a0[j + 1]) * x1;
            s1 += static_cast<double>(a1[j]) * x0;
            s1 += static_cast<double>(a1[j + 1]) * x1;
            s2 += static_cast<double>(a2[j]) * x0;
            s2 += static_cast<double>(a2[j + 1]) * x1;
            s3 += static_cast<double>(a3[j]) * x0;
            s3 += static_cast<double>(a3[j + 1]) * x1;
        }
        for (; j < cols; ++j) {
            const double xj = static_cast<double>(x[j]);
            s0 += static_cast<double>(a0[j]) * xj;
            s1 += static_cast<double>(a1[j]) * xj;
            s2 += static_cast<double>(a2[j]) * xj;
            s3 += static_cast<double>(a3[j]) * xj;
        }
        if (bias == nullptr) {
            out[r] = static_cast<float>(s0);
            out[r + 1] = static_cast<float>(s1);
            out[r + 2] = static_cast<float>(s2);
            out[r + 3] = static_cast<float>(s3);
        } else {
            out[r] = bias[r] + static_cast<float>(s0);
            out[r + 1] = bias[r + 1] + static_cast<float>(s1);
            out[r + 2] = bias[r + 2] + static_cast<float>(s2);
            out[r + 3] = bias[r + 3] + static_cast<float>(s3);
        }
    }
    if (r + 2 <= rows) {
        // Two-row tail block: still two interleaved chains instead of
        // falling back to the latency-bound single dot.
        const float* a0 = a + r * cols;
        const float* a1 = a0 + cols;
        double s0 = 0.0, s1 = 0.0;
        for (std::size_t j = 0; j < cols; ++j) {
            const double xj = static_cast<double>(x[j]);
            s0 += static_cast<double>(a0[j]) * xj;
            s1 += static_cast<double>(a1[j]) * xj;
        }
        if (bias == nullptr) {
            out[r] = static_cast<float>(s0);
            out[r + 1] = static_cast<float>(s1);
        } else {
            out[r] = bias[r] + static_cast<float>(s0);
            out[r + 1] = bias[r + 1] + static_cast<float>(s1);
        }
        r += 2;
    }
    if (r < rows) {
        const double s = dot(a + r * cols, x, cols);
        out[r] = bias == nullptr ? static_cast<float>(s)
                                 : bias[r] + static_cast<float>(s);
    }
}

void gemv_rows(const float* a, std::size_t rows, std::size_t cols,
               const float* const* xs, std::size_t count, const float* bias,
               float* out) noexcept {
    static const GemvRows kernel =
        lane_exact_or(detail::lane_exact_gemv_rows(), gemv_rows_portable);
    kernel(a, rows, cols, xs, count, bias, out);
}

void gemv_transpose_accumulate(const float* a, std::size_t rows,
                               std::size_t cols, const float* d,
                               float* out) noexcept {
    for (std::size_t r = 0; r < rows; ++r) {
        const float dr = d[r];
        const float* row = a + r * cols;
        for (std::size_t j = 0; j < cols; ++j) out[j] += dr * row[j];
    }
}

void outer_rows_l2(const float* d, const float* const* xs, std::size_t count,
                   std::size_t rows, std::size_t cols, float l2,
                   const float* w, float* g, double* w_norm2) noexcept {
    static const OuterRowsL2 kernel = lane_exact_or(
        detail::lane_exact_outer_rows_l2(), outer_rows_l2_portable);
    kernel(d, xs, count, rows, cols, l2, w, g, w_norm2);
}

void dot_and_norm(const float* x, const float* y, std::size_t n,
                  double* dot_out, double* x_norm2_out) noexcept {
    // Two independent strict chains carried through one traversal: each
    // receives exactly dot's operations in dot's order, so the cosine
    // batch kernel keeps its pinned bits.
    double xy = 0.0;
    double xx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double xi = static_cast<double>(x[i]);
        xy += xi * static_cast<double>(y[i]);
        xx += xi * xi;
    }
    *dot_out = xy;
    *x_norm2_out = xx;
}

void dot_and_norm_rows(const float* const* xs, std::size_t count,
                       const float* y, std::size_t n, double* dot,
                       double* norm2) noexcept {
    static const DotAndNormRows kernel =
        lane_exact_or(detail::lane_exact_dot_and_norm_rows(),
                      dot_and_norm_rows_portable);
    kernel(xs, count, y, n, dot, norm2);
}

bool cpu_supports_avx2_fma() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

bool cpu_supports_sha() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    // SHA is CPUID.(EAX=7, ECX=0):EBX[29], read directly: not every
    // supported compiler accepts "sha" in __builtin_cpu_supports.
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __builtin_cpu_supports("sse4.1") &&
           __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
           (ebx & bit_SHA) != 0;
#else
    return false;
#endif
}

const char* active_name() noexcept { return "scalar"; }

namespace detail {
Axpy portable_axpy() noexcept { return axpy_portable; }
SquaredDistance3x4 portable_squared_distance_blocked_3x4() noexcept {
    return squared_distance_blocked_3x4_portable;
}
GemvRows portable_gemv_rows() noexcept { return gemv_rows_portable; }
OuterRowsL2 portable_outer_rows_l2() noexcept {
    return outer_rows_l2_portable;
}
DotAndNormRows portable_dot_and_norm_rows() noexcept {
    return dot_and_norm_rows_portable;
}
}  // namespace detail

}  // namespace fairbfl::support::simd
