#include "support/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace fairbfl::support::simd {

namespace {

// --- The pinned scalar kernels --------------------------------------------
// Byte-for-byte the accumulation orders of the pre-dispatch vecmath.cpp
// bodies; every committed fixed-seed series was produced by these loops.
// vecmath.cpp now routes through the table, so THIS file is the reference
// implementation -- never reassociate anything here.

double scalar_dot(const float* x, const float* y, std::size_t n) {
    // Strictly left-to-right: training and theta depend on these bits.
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    return acc;
}

double scalar_dot_blocked(const float* x, const float* y, std::size_t n) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        a0 += static_cast<double>(x[i]) * static_cast<double>(y[i]);
        a1 += static_cast<double>(x[i + 1]) * static_cast<double>(y[i + 1]);
        a2 += static_cast<double>(x[i + 2]) * static_cast<double>(y[i + 2]);
        a3 += static_cast<double>(x[i + 3]) * static_cast<double>(y[i + 3]);
    }
    double acc = (a0 + a1) + (a2 + a3);
    for (; i < n; ++i)
        acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    return acc;
}

double scalar_squared_distance(const float* x, const float* y,
                               std::size_t n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
        acc += d * d;
    }
    return acc;
}

double scalar_squared_distance_blocked(const float* x, const float* y,
                                       std::size_t n) {
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

void squared_distance_blocked_x4_portable(const float* x,
                                          const float* const* ys,
                                          std::size_t n, double* out) {
    for (std::size_t p = 0; p < 4; ++p)
        out[p] = scalar_squared_distance_blocked(x, ys[p], n);
}

/// The lane-exact body when the CPU and the build allow it, else
/// `portable`.  The same probe resolve() makes for the avx2 table: CPUID
/// plus the TU's ISA guard (a null accessor).  Either body yields the
/// scalar bits, so this is a speed choice, never a behaviour one.
template <typename Kernel>
Kernel lane_exact_or(Kernel lane_exact, Kernel portable) noexcept {
    return lane_exact != nullptr && cpu_supports_avx2_fma() ? lane_exact
                                                            : portable;
}

void scalar_squared_distance_blocked_x4(const float* x,
                                        const float* const* ys,
                                        std::size_t n, double* out) {
    // Decided once per process, on first use.
    static const SquaredDistanceX4 kernel =
        lane_exact_or(detail::lane_exact_squared_distance_blocked_x4(),
                      squared_distance_blocked_x4_portable);
    kernel(x, ys, n, out);
}

void scalar_axpy(float alpha, const float* x, float* y, std::size_t n) {
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

void scalar_gemv(const float* a, std::size_t rows, std::size_t cols,
                 const float* x, const float* bias, float* out) {
    const float* base = a;
    const float* xp = x;
    std::size_t r = 0;
    // Four rows at a time: four independent left-to-right double chains
    // hide the FP-add latency that serializes a single `dot`.  The inner
    // loop is unrolled by two columns; each chain still receives its
    // products strictly in column order, so every row is bit-identical to
    // a lone `dot`.
    for (; r + 4 <= rows; r += 4) {
        const float* a0 = base + r * cols;
        const float* a1 = a0 + cols;
        const float* a2 = a1 + cols;
        const float* a3 = a2 + cols;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        std::size_t j = 0;
        for (; j + 2 <= cols; j += 2) {
            const double x0 = static_cast<double>(xp[j]);
            const double x1 = static_cast<double>(xp[j + 1]);
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
            const double xj = static_cast<double>(xp[j]);
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
        const float* a0 = base + r * cols;
        const float* a1 = a0 + cols;
        double s0 = 0.0, s1 = 0.0;
        for (std::size_t j = 0; j < cols; ++j) {
            const double xj = static_cast<double>(xp[j]);
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
        const double s = scalar_dot(base + r * cols, x, cols);
        out[r] = bias == nullptr ? static_cast<float>(s)
                                 : bias[r] + static_cast<float>(s);
    }
}

void scalar_gemv_transpose_accumulate(const float* a, std::size_t rows,
                                      std::size_t cols, const float* d,
                                      float* out) {
    for (std::size_t r = 0; r < rows; ++r) {
        const float dr = d[r];
        const float* row = a + r * cols;
        for (std::size_t j = 0; j < cols; ++j) out[j] += dr * row[j];
    }
}

void scalar_outer_accumulate(const float* d, const float* x,
                             std::size_t rows, std::size_t cols, float* y) {
    for (std::size_t r = 0; r < rows; ++r)
        scalar_axpy(d[r], x, y + r * cols, cols);
}

void gemv_rows_portable(const float* a, std::size_t rows, std::size_t cols,
                        const float* const* xs, std::size_t count,
                        const float* bias, float* out) {
    for (std::size_t s = 0; s < count; ++s)
        scalar_gemv(a, rows, cols, xs[s], bias, out + s * rows);
}

void outer_accumulate_rows_portable(const float* d, const float* const* xs,
                                    std::size_t count, std::size_t rows,
                                    std::size_t cols, float* y) {
    for (std::size_t s = 0; s < count; ++s)
        scalar_outer_accumulate(d + s * rows, xs[s], rows, cols, y);
}

void scalar_gemv_rows(const float* a, std::size_t rows, std::size_t cols,
                      const float* const* xs, std::size_t count,
                      const float* bias, float* out) {
    static const GemvRows kernel =
        lane_exact_or(detail::lane_exact_gemv_rows(), gemv_rows_portable);
    kernel(a, rows, cols, xs, count, bias, out);
}

void scalar_outer_accumulate_rows(const float* d, const float* const* xs,
                                  std::size_t count, std::size_t rows,
                                  std::size_t cols, float* y) {
    static const OuterAccumulateRows kernel =
        lane_exact_or(detail::lane_exact_outer_accumulate_rows(),
                      outer_accumulate_rows_portable);
    kernel(d, xs, count, rows, cols, y);
}

void scalar_dot_and_norm(const float* x, const float* y, std::size_t n,
                         double* dot_out, double* x_norm2_out) {
    // Two independent strict chains carried through one traversal: each
    // receives exactly scalar_dot's operations in scalar_dot's order, so
    // the scalar cosine batch kernel keeps its pinned bits.
    double dot = 0.0;
    double norm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double xi = static_cast<double>(x[i]);
        dot += xi * static_cast<double>(y[i]);
        norm2 += xi * xi;
    }
    *dot_out = dot;
    *x_norm2_out = norm2;
}

constexpr KernelTable kScalarTable = {
    scalar_dot,
    scalar_dot_blocked,
    scalar_squared_distance,
    scalar_squared_distance_blocked,
    scalar_squared_distance_blocked_x4,
    scalar_axpy,
    scalar_gemv,
    scalar_gemv_rows,
    scalar_gemv_transpose_accumulate,
    scalar_outer_accumulate_rows,
    scalar_dot_and_norm,
    "scalar",
};

// --- Dispatch state --------------------------------------------------------

std::atomic<const KernelTable*> g_active{nullptr};

// Regression note (PR 9): publish() used to emit the kernels.dispatch
// telemetry counter directly, which made support depend on telemetry --
// the one upward edge in the tree, now rejected by the layer-deps
// analyzer.  The breadcrumb survives as an observer telemetry.cpp
// installs via set_dispatch_observer().
std::atomic<DispatchObserver> g_observer{nullptr};

const KernelTable* resolve(Mode mode) noexcept {
    if (mode != Mode::kScalar && cpu_supports_avx2_fma()) {
        const KernelTable* avx2 = detail::avx2_table();
        if (avx2 != nullptr) return avx2;
    }
    return &kScalarTable;
}

void publish(const KernelTable* table) noexcept {
    const KernelTable* previous = g_active.exchange(table);
    if (previous == table) return;
    // The one-time dispatch breadcrumb: perf artifacts read the observer-
    // fed counter to attribute a run to the table that served it.
    if (DispatchObserver observer =
            g_observer.load(std::memory_order_acquire)) {
        observer(table->name);
    }
}

const KernelTable* resolve_from_env() noexcept {
    const char* env = std::getenv("FAIRBFL_KERNELS");
    Mode mode = Mode::kScalar;  // unset/unknown: the pinned default
    if (env != nullptr) {
        if (std::strcmp(env, "simd") == 0) {
            mode = Mode::kSimd;
        } else if (std::strcmp(env, "auto") == 0) {
            mode = Mode::kAuto;
        }
    }
    const KernelTable* table = resolve(mode);
    // First-use race: both writers store the same resolved pointer, so
    // losing the exchange is harmless; publish() de-dups the telemetry.
    publish(table);
    return table;
}

}  // namespace

bool cpu_supports_avx2_fma() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

void set_dispatch_observer(DispatchObserver observer) noexcept {
    g_observer.store(observer, std::memory_order_release);
    if (observer != nullptr) {
        // Replay: dispatch may have resolved before the observer's TU
        // finished static init; both orders must yield the breadcrumb.
        const KernelTable* table = g_active.load(std::memory_order_acquire);
        if (table != nullptr) observer(table->name);
    }
}

void set_mode(Mode mode) noexcept { publish(resolve(mode)); }

bool set_mode_name(const char* name) noexcept {
    if (name == nullptr) return false;
    if (std::strcmp(name, "scalar") == 0) {
        set_mode(Mode::kScalar);
    } else if (std::strcmp(name, "simd") == 0) {
        set_mode(Mode::kSimd);
    } else if (std::strcmp(name, "auto") == 0) {
        set_mode(Mode::kAuto);
    } else {
        return false;
    }
    return true;
}

const KernelTable& active() noexcept {
    const KernelTable* table = g_active.load(std::memory_order_acquire);
    if (table == nullptr) table = resolve_from_env();
    return *table;
}

const char* active_name() noexcept { return active().name; }

namespace detail {
const KernelTable& scalar_table() noexcept { return kScalarTable; }
SquaredDistanceX4 portable_squared_distance_blocked_x4() noexcept {
    return squared_distance_blocked_x4_portable;
}
GemvRows portable_gemv_rows() noexcept { return gemv_rows_portable; }
OuterAccumulateRows portable_outer_accumulate_rows() noexcept {
    return outer_accumulate_rows_portable;
}
}  // namespace detail

}  // namespace fairbfl::support::simd
