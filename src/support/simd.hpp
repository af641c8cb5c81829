#pragma once
// The bit-pinned vector kernels behind support/vecmath, and the ISA bodies
// that run five of them at hardware width with the same bits.
//
// Every kernel here is bit-pinned: fixed-seed series, the batched ==
// reference training equivalence, the reward hex pins and every replica's
// re-derivation of Algorithm 2 and Eq. 1 depend on its exact accumulation
// order.  There is one kernel set and nothing that selects another.
//
// Five kernels have a *lane-exact* AVX2 encoding in simd_avx2.cpp, the one
// TU built with -mavx2 -mfma: axpy, squared_distance_blocked_3x4,
// gemv_rows, outer_rows_l2 and dot_and_norm_rows.  Each lane performs the
// portable loop's IEEE operations in its order, so the results are the
// portable bits.  gemv_rows and dot_and_norm_rows fuse each multiply-add:
// every product there is a float times a float widened to double, which
// is exact, so the one rounding of the fused operation is the one
// rounding of the separate add.  The other three round their products,
// so they keep a separate multiply and add, and the project-wide
// -ffp-contract=off stops the compiler from fusing them.  Each encoding is
// chosen once per process, on first use, when cpu_supports_avx2_fma()
// holds and the TU was built with its ISA; test_kernel_parity pins each
// one bitwise to its portable body.
//
// The SHA-256 block compressor has an ISA body too: simd_sha.cpp, built
// with -msha -msse4.1 in its own TU.  crypto/sha256.cpp picks it once per
// process by cpu_supports_sha() and the accessor below; a hash has one
// right answer, so there is no knob.
//
// docs/ARCHITECTURE.md ("One bit-pinned kernel set") carries the how-to
// for adding another lane-exact encoding.

#include <cstddef>
#include <cstdint>

namespace fairbfl::support::simd {

/// y[i] += alpha * x[i] for i in [0, n).  The signature of axpy.
using Axpy = void (*)(float alpha, const float* x, float* y, std::size_t n);

/// A register tile of twelve blocked squared distances: out[r * 4 + c] for
/// the pair (xs[r], ys[c]), r in [0, 3), c in [0, 4).  The signature of
/// squared_distance_blocked_3x4.
using SquaredDistance3x4 = void (*)(const float* const* xs,
                                    const float* const* ys, std::size_t n,
                                    double* out);

/// Batched forward over `count` samples sharing one row-major rows x cols
/// matrix: out[s * rows + r] is row r of gemv(a, ..., xs[s], bias).  The
/// signature of gemv_rows.
using GemvRows = void (*)(const float* a, std::size_t rows, std::size_t cols,
                          const float* const* xs, std::size_t count,
                          const float* bias, float* out);

/// Batched backward of a linear layer with an L2 term, in one sweep: the
/// rows x cols gradient g is written from d (count x rows), the `count`
/// samples xs, l2 and the weights w (rows x cols), and w_norm2, when not
/// null, receives w's squared norm.  The signature of outer_rows_l2.
using OuterRowsL2 = void (*)(const float* d, const float* const* xs,
                             std::size_t count, std::size_t rows,
                             std::size_t cols, float l2, const float* w,
                             float* g, double* w_norm2);

/// Fused dot and norm of `count` rows against one vector: dot[r] and
/// norm2[r] are dot_and_norm(xs[r], y, n).  The signature of
/// dot_and_norm_rows.
using DotAndNormRows = void (*)(const float* const* xs, std::size_t count,
                                const float* y, std::size_t n, double* dot,
                                double* norm2);

/// SHA-256 compression of `blocks` consecutive 64-byte blocks at `data`
/// into the eight-word state a..h (FIPS 180-4, section 6.2.2, steps 1-4
/// per block).
using Sha256Blocks = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

// --- The kernels ------------------------------------------------------------
// Raw pointers and sizes, so simd_avx2.cpp needs nothing from the rest of
// the tree.  support/vecmath.hpp states each contract on spans.

/// Strict left-to-right double-chain dot (training/theta discipline).
[[nodiscard]] double dot(const float* x, const float* y,
                         std::size_t n) noexcept;
/// Strict squared Euclidean distance.
[[nodiscard]] double squared_distance(const float* x, const float* y,
                                      std::size_t n) noexcept;
/// Blocked squared distance: four partial chains combined
/// (a0 + a1) + (a2 + a3), then the tail in order (comparison-only
/// consumers).
[[nodiscard]] double squared_distance_blocked(const float* x, const float* y,
                                              std::size_t n) noexcept;
/// out[r * 4 + c] is bitwise squared_distance_blocked(xs[r], ys[c], n) for
/// r in [0, 3) and c in [0, 4): three rows by four columns, every point
/// read at width n.  Lane-exact encoding when available.
void squared_distance_blocked_3x4(const float* const* xs,
                                  const float* const* ys, std::size_t n,
                                  double* out) noexcept;
/// y[i] += alpha * x[i], one float multiply then one float add per
/// element.  Lane-exact encoding when available.
void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept;
/// Row-major rows x cols matrix-vector product; each row is bitwise a
/// lone dot, plus the float bias add when bias is non-null.
void gemv(const float* a, std::size_t rows, std::size_t cols, const float* x,
          const float* bias, float* out) noexcept;
/// out[s * rows + r] is bitwise gemv(a, rows, cols, xs[s], bias)[r] for s
/// in [0, count).  Lane-exact encoding when available.
void gemv_rows(const float* a, std::size_t rows, std::size_t cols,
               const float* const* xs, std::size_t count, const float* bias,
               float* out) noexcept;
/// out[j] += sum_r d[r] * a[r * cols + j], r applied in order.
void gemv_transpose_accumulate(const float* a, std::size_t rows,
                               std::size_t cols, const float* d,
                               float* out) noexcept;
/// Writes g, rows x cols, bitwise as: every element +0.0f; then
/// axpy(d[s * rows + r], xs[s], g + r * cols, cols) for every row r,
/// samples s in order; then axpy(l2, w, g, rows * cols).  When w_norm2 is
/// not null, *w_norm2 = dot(w, w, rows * cols), the strict chain in w's
/// flat order.  Lane-exact encoding when available: one sweep over g that
/// carries the norm chain beside the vector work.
void outer_rows_l2(const float* d, const float* const* xs, std::size_t count,
                   std::size_t rows, std::size_t cols, float l2,
                   const float* w, float* g, double* w_norm2) noexcept;
/// *dot_out = dot(x, y) and *x_norm2_out = dot(x, x), both strict chains
/// carried through one traversal of x.
void dot_and_norm(const float* x, const float* y, std::size_t n,
                  double* dot_out, double* x_norm2_out) noexcept;
/// dot_and_norm(xs[r], y, n, dot + r, norm2 + r) for r in [0, count): the
/// theta rows' two strict chains per row.  Lane-exact encoding when
/// available; it carries kDotAndNormGroup rows per pass, so callers that
/// split rows across tasks group them by that count.
inline constexpr std::size_t kDotAndNormGroup = 8;
void dot_and_norm_rows(const float* const* xs, std::size_t count,
                       const float* y, std::size_t n, double* dot,
                       double* norm2) noexcept;

/// True when this CPU runs AVX2 and FMA, which the lane-exact encodings
/// need (always false off x86).
[[nodiscard]] bool cpu_supports_avx2_fma() noexcept;

/// True when this CPU has the SHA extensions and SSE4.1 that the SHA-NI
/// compressor needs (always false off x86).
[[nodiscard]] bool cpu_supports_sha() noexcept;

/// Name of the one kernel set, "scalar": the bits are the portable loops'
/// on every host.  Perf artifacts record it.
[[nodiscard]] const char* active_name() noexcept;

namespace detail {
/// The portable bodies of the five kernels with a lane-exact encoding:
/// what runs without it, and the reference it is pinned to.  The batched
/// ones are per-sample portable gemv calls; a zero fill, per-row portable
/// axpy calls with samples in order, one portable axpy of the L2 term and
/// a dot; and per-row dot_and_norm calls.
[[nodiscard]] Axpy portable_axpy() noexcept;
[[nodiscard]] SquaredDistance3x4
portable_squared_distance_blocked_3x4() noexcept;
[[nodiscard]] GemvRows portable_gemv_rows() noexcept;
[[nodiscard]] OuterRowsL2 portable_outer_rows_l2() noexcept;
[[nodiscard]] DotAndNormRows portable_dot_and_norm_rows() noexcept;
/// The lane-exact AVX2 encodings (defined in simd_avx2.cpp), or nullptr
/// when the build lacks that TU's ISA.  In axpy, each float lane of an
/// 8-wide span is one element's multiply then add.  In the 3x4 distance
/// tile, lane k of pair (r, c)'s accumulator is the portable kernel's
/// accumulator a_k.  The forward keeps row r0 + k's strict double chain in
/// lane k, columns in order, one fused multiply-add per exact product; the
/// backward starts an 8-float span of g at +0.0f, adds each sample's float
/// product in order of s and then the L2 product.  The theta rows keep row
/// r0 + k's two strict chains (x·y and x·x) in lane k of two accumulators,
/// columns in order, fused like the forward.  Callers must also check
/// cpu_supports_avx2_fma().
[[nodiscard]] Axpy lane_exact_axpy() noexcept;
[[nodiscard]] SquaredDistance3x4
lane_exact_squared_distance_blocked_3x4() noexcept;
[[nodiscard]] GemvRows lane_exact_gemv_rows() noexcept;
[[nodiscard]] OuterRowsL2 lane_exact_outer_rows_l2() noexcept;
[[nodiscard]] DotAndNormRows lane_exact_dot_and_norm_rows() noexcept;
/// The SHA-NI SHA-256 compressor (defined in simd_sha.cpp), or nullptr
/// when the build lacks that TU's -msha -msse4.1.  Its digests equal the
/// portable round loop's (crypto::detail::portable_sha256_blocks).
/// Callers must also check cpu_supports_sha().
[[nodiscard]] Sha256Blocks sha_ni_sha256_blocks() noexcept;
}  // namespace detail

}  // namespace fairbfl::support::simd
