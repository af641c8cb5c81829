// The lane-exact AVX2 encodings of five pinned kernels -- the only TU in
// the tree compiled with -mavx2 -mfma (CMake sets the flags on exactly
// this file), and one of the src/support/simd* files the simd-isolation
// analyzer rule lets spell intrinsics.
//
// Every kernel here is bit-pinned: each lane performs the portable loop's
// IEEE operations in its order.  In axpy, each float lane of an 8-wide
// span is one element's multiply then add (separate _mm256_mul_ps,
// _mm256_add_ps).  In the 3x4 squared-distance tile, lane k of each of
// the twelve pairs' accumulators is the portable kernel's accumulator a_k
// (separate _mm256_sub_pd, _mm256_mul_pd, _mm256_add_pd).  In the batched
// forward, lane k of a sample's accumulator is row r0 + k's strict double
// chain (_mm256_fmadd_pd, columns in order).  In the one-sweep backward,
// each float of an 8-wide span of the gradient starts at +0.0f, receives
// every sample's product in sample order and then the L2 product
// (separate _mm256_mul_ps, _mm256_add_ps), and a scalar double chain
// carries the weights' squared norm in their flat order.  In the theta
// rows, lane k of two accumulator pairs carries row r0 + k's x·y and x·x
// strict chains (_mm256_fmadd_pd, columns in order).
//
// Fused multiply-add appears exactly where every product is exact.  In
// the forward and the theta rows each product is a float times a float
// widened to double: at most 48 significant bits, so the separate
// multiply does not round, and fma(a, b, acc) rounds once exactly where
// the separate add does -- the same bits, signed zeros, denormals and
// infinities included.  axpy, the tile and the backward round their
// products, so a fusion there would move bits; with -mfma on, the
// project-wide -ffp-contract=off is what keeps the compiler from fusing
// their separate multiply and add.  test_kernel_parity demands bitwise
// equality with the portable loops.
//
// When the build cannot enable AVX2 and FMA (non-x86 target, flags
// rejected), the guard below compiles this TU down to null accessors and
// the kernels stay on their portable bodies.

#include "support/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace fairbfl::support::simd {

namespace {

/// Widen 4 floats at p to a 4-lane double vector.
inline __m256d load4d(const float* p) noexcept {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

/// One block of four elements of one pair: d = x - y, a += d * d per lane,
/// exactly the portable loop's subtract, multiply and add.
inline __m256d accumulate_block(__m256d a, __m256d x, __m256d y) noexcept {
    const __m256d d = _mm256_sub_pd(x, y);
    return _mm256_add_pd(a, _mm256_mul_pd(d, d));
}

/// Lane-exact encoding of the portable squared_distance_blocked over a
/// register tile: rows xs[0..2] against columns ys[0..3].  Pair (r, c)'s
/// __m256d accumulator holds the portable kernel's (a0, a1, a2, a3) in
/// lanes (0, 1, 2, 3).  Each block of four elements widens the three row
/// spans and the four column spans once, then feeds twelve independent add
/// chains -- the win over one pair at a time, which is bound by one add
/// chain's latency and widens both operands for every pair.
void lane_exact_3x4(const float* const* xs, const float* const* ys,
                    std::size_t n, double* out) {
    const float* x0 = xs[0];
    const float* x1 = xs[1];
    const float* x2 = xs[2];
    __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
    __m256d a02 = _mm256_setzero_pd(), a03 = _mm256_setzero_pd();
    __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
    __m256d a12 = _mm256_setzero_pd(), a13 = _mm256_setzero_pd();
    __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
    __m256d a22 = _mm256_setzero_pd(), a23 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d u0 = load4d(x0 + i);
        const __m256d u1 = load4d(x1 + i);
        const __m256d u2 = load4d(x2 + i);
        __m256d v = load4d(ys[0] + i);
        a00 = accumulate_block(a00, u0, v);
        a10 = accumulate_block(a10, u1, v);
        a20 = accumulate_block(a20, u2, v);
        v = load4d(ys[1] + i);
        a01 = accumulate_block(a01, u0, v);
        a11 = accumulate_block(a11, u1, v);
        a21 = accumulate_block(a21, u2, v);
        v = load4d(ys[2] + i);
        a02 = accumulate_block(a02, u0, v);
        a12 = accumulate_block(a12, u1, v);
        a22 = accumulate_block(a22, u2, v);
        v = load4d(ys[3] + i);
        a03 = accumulate_block(a03, u0, v);
        a13 = accumulate_block(a13, u1, v);
        a23 = accumulate_block(a23, u2, v);
    }
    const __m256d acc[12] = {a00, a01, a02, a03, a10, a11,
                             a12, a13, a20, a21, a22, a23};
    for (std::size_t p = 0; p < 12; ++p) {
        const float* x = xs[p / 4];
        const float* y = ys[p % 4];
        alignas(32) double lane[4];
        _mm256_store_pd(lane, acc[p]);
        // The portable combine, then the tail added one element at a time.
        double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
        for (std::size_t t = i; t < n; ++t) {
            const double d =
                static_cast<double>(x[t]) - static_cast<double>(y[t]);
            sum += d * d;
        }
        out[p] = sum;
    }
}

/// Rows in one lane-exact block: one transposed 4x4 tile of `a` per four
/// columns.
constexpr std::size_t kTileRows = 4;
/// Samples whose accumulators one tile pass updates.  Larger batches run
/// in groups, each re-transposing the tiles.
constexpr std::size_t kSampleGroup = 16;
/// Rows whose accumulators stay live across the column blocks.  Taller
/// matrices run in chunks, each widening the group's features again.
constexpr std::size_t kRowChunk = 16;
/// Columns of each sample widened to double per stack block (a multiple
/// of four, so only the last block has tail columns).
constexpr std::size_t kColBlock = 128;

/// One block of up to four rows over one widened column block.  row[k]
/// points at the block's first column in row r0 + k, sample s's widened
/// features start at xd + s * kColBlock, and acc[s] is its accumulator.
/// Each 4x4 tile of `a` is loaded once, transposed in registers and
/// widened, so column vector t_i carries a[r0 + k][j + i] in lane k.
/// Every sample then adds t_i * x_s[j + i] for i in order: lane k of its
/// accumulator is row r0 + k's chain s += a * x, the portable kernel's
/// products in its order.  Each product of two widened floats is exact,
/// so one fused multiply-add rounds as the separate add does.  Tail
/// columns go one at a time.
void gemv_block_lane_exact(const float* const* row, std::size_t width,
                           const double* xd, std::size_t group,
                           __m256d* acc) {
    std::size_t j = 0;
    for (; j + 4 <= width; j += 4) {
        __m128 c0 = _mm_loadu_ps(row[0] + j);
        __m128 c1 = _mm_loadu_ps(row[1] + j);
        __m128 c2 = _mm_loadu_ps(row[2] + j);
        __m128 c3 = _mm_loadu_ps(row[3] + j);
        _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
        const __m256d t0 = _mm256_cvtps_pd(c0);
        const __m256d t1 = _mm256_cvtps_pd(c1);
        const __m256d t2 = _mm256_cvtps_pd(c2);
        const __m256d t3 = _mm256_cvtps_pd(c3);
        for (std::size_t s = 0; s < group; ++s) {
            const double* x = xd + s * kColBlock + j;
            __m256d v = acc[s];
            v = _mm256_fmadd_pd(t0, _mm256_broadcast_sd(x), v);
            v = _mm256_fmadd_pd(t1, _mm256_broadcast_sd(x + 1), v);
            v = _mm256_fmadd_pd(t2, _mm256_broadcast_sd(x + 2), v);
            v = _mm256_fmadd_pd(t3, _mm256_broadcast_sd(x + 3), v);
            acc[s] = v;
        }
    }
    for (; j < width; ++j) {
        const __m256d t = _mm256_cvtps_pd(
            _mm_setr_ps(row[0][j], row[1][j], row[2][j], row[3][j]));
        for (std::size_t s = 0; s < group; ++s)
            acc[s] = _mm256_fmadd_pd(
                t, _mm256_broadcast_sd(xd + s * kColBlock + j), acc[s]);
    }
}

/// Lane-exact encoding of the portable gemv over a batch.  Samples run in
/// groups of kSampleGroup and rows in chunks of kRowChunk.  For each block
/// of kColBlock columns the group's features are widened to double once,
/// into a stack buffer, and every row block of the chunk broadcasts them;
/// blocks go in column order, so lane k of sample s's accumulator for the
/// rows at r0 stays row r0 + k's strict double chain.  The result is
/// bias[r] + (float)lane, or the bare cast without a bias.  A block with
/// fewer than four rows repeats its last row in the spare lanes and drops
/// them at the store.  Nothing is allocated: the scratch is ~18 KB of the
/// calling thread's stack.
void gemv_rows_lane_exact(const float* a, std::size_t rows, std::size_t cols,
                          const float* const* xs, std::size_t count,
                          const float* bias, float* out) {
    alignas(32) double xd[kSampleGroup * kColBlock];
    __m256d acc[kRowChunk / kTileRows][kSampleGroup];
    for (std::size_t s0 = 0; s0 < count; s0 += kSampleGroup) {
        const std::size_t group =
            count - s0 < kSampleGroup ? count - s0 : kSampleGroup;
        for (std::size_t rc = 0; rc < rows; rc += kRowChunk) {
            const std::size_t chunk =
                rows - rc < kRowChunk ? rows - rc : kRowChunk;
            const std::size_t blocks = (chunk + kTileRows - 1) / kTileRows;
            for (std::size_t b = 0; b < blocks; ++b)
                for (std::size_t s = 0; s < group; ++s)
                    acc[b][s] = _mm256_setzero_pd();
            for (std::size_t j0 = 0; j0 < cols; j0 += kColBlock) {
                const std::size_t width =
                    cols - j0 < kColBlock ? cols - j0 : kColBlock;
                for (std::size_t s = 0; s < group; ++s) {
                    const float* x = xs[s0 + s] + j0;
                    double* w = xd + s * kColBlock;
                    std::size_t j = 0;
                    for (; j + 4 <= width; j += 4)
                        _mm256_store_pd(w + j, load4d(x + j));
                    for (; j < width; ++j) w[j] = static_cast<double>(x[j]);
                }
                for (std::size_t b = 0; b < blocks; ++b) {
                    const std::size_t r0 = rc + b * kTileRows;
                    const std::size_t live =
                        rows - r0 < kTileRows ? rows - r0 : kTileRows;
                    const float* row[kTileRows];
                    for (std::size_t k = 0; k < kTileRows; ++k)
                        row[k] = a + (r0 + (k < live ? k : live - 1)) * cols +
                                 j0;
                    gemv_block_lane_exact(row, width, xd, group, acc[b]);
                }
            }
            for (std::size_t b = 0; b < blocks; ++b) {
                const std::size_t r0 = rc + b * kTileRows;
                const std::size_t live =
                    rows - r0 < kTileRows ? rows - r0 : kTileRows;
                for (std::size_t s = 0; s < group; ++s) {
                    alignas(32) double lane[kTileRows];
                    _mm256_store_pd(lane, acc[b][s]);
                    float* o = out + (s0 + s) * rows + r0;
                    for (std::size_t k = 0; k < live; ++k) {
                        const auto v = static_cast<float>(lane[k]);
                        o[k] = bias == nullptr ? v : bias[r0 + k] + v;
                    }
                }
            }
        }
    }
}

/// The portable dot(w, w)'s chain over w[0..n): `acc` gains each element's
/// square in order, one double multiply and one add per element.
inline double add_squares(double acc, const float* w, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        const auto v = static_cast<double>(w[i]);
        acc += v * v;
    }
    return acc;
}

/// Lane-exact encoding of the portable backward.  Row by row, each 8-float
/// span of g starts at +0.0f in a register, receives d[s * rows + r] * x_s
/// for s in order and then l2 * w -- per element the float multiply and
/// add of the portable fill, axpy calls and L2 axpy, in their order -- and
/// is stored once.  Four spans run side by side so four add chains hide
/// the latency.  With w_norm2 set, each span's weights then join the
/// strict double chain, so the chain walks w in its flat order and its
/// latency overlaps the next span's vector work.  Tail columns go one at a
/// time.
void outer_rows_l2_lane_exact(const float* d, const float* const* xs,
                              std::size_t count, std::size_t rows,
                              std::size_t cols, float l2, const float* w,
                              float* g, double* w_norm2) {
    const __m256 l2v = _mm256_set1_ps(l2);
    const bool want_norm = w_norm2 != nullptr;
    double norm = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
        const float* wr = w + r * cols;
        float* gr = g + r * cols;
        std::size_t j = 0;
        for (; j + 32 <= cols; j += 32) {
            __m256 y0 = _mm256_setzero_ps();
            __m256 y1 = _mm256_setzero_ps();
            __m256 y2 = _mm256_setzero_ps();
            __m256 y3 = _mm256_setzero_ps();
            for (std::size_t s = 0; s < count; ++s) {
                const __m256 a = _mm256_set1_ps(d[s * rows + r]);
                const float* x = xs[s] + j;
                y0 = _mm256_add_ps(y0, _mm256_mul_ps(a, _mm256_loadu_ps(x)));
                y1 = _mm256_add_ps(y1,
                                   _mm256_mul_ps(a, _mm256_loadu_ps(x + 8)));
                y2 = _mm256_add_ps(y2,
                                   _mm256_mul_ps(a, _mm256_loadu_ps(x + 16)));
                y3 = _mm256_add_ps(y3,
                                   _mm256_mul_ps(a, _mm256_loadu_ps(x + 24)));
            }
            const float* wj = wr + j;
            y0 = _mm256_add_ps(y0, _mm256_mul_ps(l2v, _mm256_loadu_ps(wj)));
            y1 = _mm256_add_ps(y1, _mm256_mul_ps(l2v, _mm256_loadu_ps(wj + 8)));
            y2 = _mm256_add_ps(y2,
                               _mm256_mul_ps(l2v, _mm256_loadu_ps(wj + 16)));
            y3 = _mm256_add_ps(y3,
                               _mm256_mul_ps(l2v, _mm256_loadu_ps(wj + 24)));
            _mm256_storeu_ps(gr + j, y0);
            _mm256_storeu_ps(gr + j + 8, y1);
            _mm256_storeu_ps(gr + j + 16, y2);
            _mm256_storeu_ps(gr + j + 24, y3);
            if (want_norm) norm = add_squares(norm, wj, 32);
        }
        for (; j + 8 <= cols; j += 8) {
            __m256 v = _mm256_setzero_ps();
            for (std::size_t s = 0; s < count; ++s)
                v = _mm256_add_ps(
                    v, _mm256_mul_ps(_mm256_set1_ps(d[s * rows + r]),
                                     _mm256_loadu_ps(xs[s] + j)));
            v = _mm256_add_ps(v, _mm256_mul_ps(l2v, _mm256_loadu_ps(wr + j)));
            _mm256_storeu_ps(gr + j, v);
            if (want_norm) norm = add_squares(norm, wr + j, 8);
        }
        const std::size_t tail = j;
        for (; j < cols; ++j) {
            float v = 0.0F;
            for (std::size_t s = 0; s < count; ++s)
                v += d[s * rows + r] * xs[s][j];
            v += l2 * wr[j];
            gr[j] = v;
        }
        if (want_norm) norm = add_squares(norm, wr + tail, cols - tail);
    }
    if (want_norm) *w_norm2 = norm;
}

/// Lane-exact encoding of the portable axpy: each float lane of an 8-wide
/// span is y[i] + alpha * x[i] with one multiply and one add, exactly the
/// portable loop's two roundings; the tail runs that loop itself.
void axpy_lane_exact(float alpha, const float* x, float* y, std::size_t n) {
    const __m256 a = _mm256_set1_ps(alpha);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 product = _mm256_mul_ps(a, _mm256_loadu_ps(x + i));
        _mm256_storeu_ps(y + i,
                         _mm256_add_ps(_mm256_loadu_ps(y + i), product));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
}

/// Rows one theta pass carries: four in the lanes of each of two (x·y,
/// x·x) accumulator pairs.
constexpr std::size_t kThetaRows = kDotAndNormGroup;
static_assert(kThetaRows == 8, "two pairs of four-lane accumulators");

/// One column of four rows: lane k of xy gains t_k * y and lane k of xx
/// gains t_k * t_k -- the portable kernel's two chains for row k, one
/// product each.  Both products are of widened floats, so exact, and one
/// fused multiply-add rounds as the portable add does.
inline void theta_step(__m256d t, __m256d y, __m256d& xy,
                       __m256d& xx) noexcept {
    xy = _mm256_fmadd_pd(t, y, xy);
    xx = _mm256_fmadd_pd(t, t, xx);
}

/// Lane-exact encoding of the portable per-row dot_and_norm calls.  Rows
/// go in groups of kThetaRows: rows r0..r0+3 in the lanes of one (x·y,
/// x·x) accumulator pair and r0+4..r0+7 in the other.  Per block of four
/// columns, each half's 4x4 tile is loaded once, transposed in registers
/// and widened, so column vector t_i holds x_{r0+k}[j+i] in lane k; then,
/// for i in order, both halves take theta_step against y[j+i] widened and
/// broadcast.  Lane k of each accumulator is thus row r0 + k's strict
/// chain, the portable kernel's products in its order.  Tail columns go
/// one at a time.  A group with fewer than eight rows repeats its last row
/// in the spare lanes and drops them at the store.
void dot_and_norm_rows_lane_exact(const float* const* xs, std::size_t count,
                                  const float* y, std::size_t n, double* dot,
                                  double* norm2) {
    for (std::size_t r0 = 0; r0 < count; r0 += kThetaRows) {
        const std::size_t live =
            count - r0 < kThetaRows ? count - r0 : kThetaRows;
        const float* row[kThetaRows];
        for (std::size_t k = 0; k < kThetaRows; ++k)
            row[k] = xs[r0 + (k < live ? k : live - 1)];
        __m256d xy0 = _mm256_setzero_pd(), xx0 = _mm256_setzero_pd();
        __m256d xy1 = _mm256_setzero_pd(), xx1 = _mm256_setzero_pd();
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            __m128 a0 = _mm_loadu_ps(row[0] + j);
            __m128 a1 = _mm_loadu_ps(row[1] + j);
            __m128 a2 = _mm_loadu_ps(row[2] + j);
            __m128 a3 = _mm_loadu_ps(row[3] + j);
            _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
            __m128 b0 = _mm_loadu_ps(row[4] + j);
            __m128 b1 = _mm_loadu_ps(row[5] + j);
            __m128 b2 = _mm_loadu_ps(row[6] + j);
            __m128 b3 = _mm_loadu_ps(row[7] + j);
            _MM_TRANSPOSE4_PS(b0, b1, b2, b3);
            __m256d v = _mm256_set1_pd(static_cast<double>(y[j]));
            theta_step(_mm256_cvtps_pd(a0), v, xy0, xx0);
            theta_step(_mm256_cvtps_pd(b0), v, xy1, xx1);
            v = _mm256_set1_pd(static_cast<double>(y[j + 1]));
            theta_step(_mm256_cvtps_pd(a1), v, xy0, xx0);
            theta_step(_mm256_cvtps_pd(b1), v, xy1, xx1);
            v = _mm256_set1_pd(static_cast<double>(y[j + 2]));
            theta_step(_mm256_cvtps_pd(a2), v, xy0, xx0);
            theta_step(_mm256_cvtps_pd(b2), v, xy1, xx1);
            v = _mm256_set1_pd(static_cast<double>(y[j + 3]));
            theta_step(_mm256_cvtps_pd(a3), v, xy0, xx0);
            theta_step(_mm256_cvtps_pd(b3), v, xy1, xx1);
        }
        for (; j < n; ++j) {
            const __m256d v = _mm256_set1_pd(static_cast<double>(y[j]));
            theta_step(_mm256_cvtps_pd(_mm_setr_ps(row[0][j], row[1][j],
                                                   row[2][j], row[3][j])),
                       v, xy0, xx0);
            theta_step(_mm256_cvtps_pd(_mm_setr_ps(row[4][j], row[5][j],
                                                   row[6][j], row[7][j])),
                       v, xy1, xx1);
        }
        alignas(32) double lane[kThetaRows * 2];
        _mm256_store_pd(lane, xy0);
        _mm256_store_pd(lane + 4, xy1);
        _mm256_store_pd(lane + 8, xx0);
        _mm256_store_pd(lane + 12, xx1);
        for (std::size_t k = 0; k < live; ++k) {
            dot[r0 + k] = lane[k];
            norm2[r0 + k] = lane[kThetaRows + k];
        }
    }
}

}  // namespace

namespace detail {
Axpy lane_exact_axpy() noexcept { return axpy_lane_exact; }
SquaredDistance3x4 lane_exact_squared_distance_blocked_3x4() noexcept {
    return lane_exact_3x4;
}
GemvRows lane_exact_gemv_rows() noexcept { return gemv_rows_lane_exact; }
OuterRowsL2 lane_exact_outer_rows_l2() noexcept {
    return outer_rows_l2_lane_exact;
}
DotAndNormRows lane_exact_dot_and_norm_rows() noexcept {
    return dot_and_norm_rows_lane_exact;
}
}  // namespace detail

}  // namespace fairbfl::support::simd

#else  // !(__AVX2__ && __FMA__)

namespace fairbfl::support::simd::detail {
Axpy lane_exact_axpy() noexcept { return nullptr; }
SquaredDistance3x4 lane_exact_squared_distance_blocked_3x4() noexcept {
    return nullptr;
}
GemvRows lane_exact_gemv_rows() noexcept { return nullptr; }
OuterRowsL2 lane_exact_outer_rows_l2() noexcept { return nullptr; }
DotAndNormRows lane_exact_dot_and_norm_rows() noexcept { return nullptr; }
}  // namespace fairbfl::support::simd::detail

#endif
