#pragma once
// Flat-vector math kernels shared by the ML, clustering and FL layers.
//
// Gradients travel through the system as contiguous float vectors
// (std::vector<float> / std::span<const float>); these kernels are the only
// place that touches the raw loops, so they are written to auto-vectorize.
//
// Two accumulation disciplines coexist here, and the distinction is
// load-bearing for reproducibility:
//
//  * `dot` / `norm2` / `squared_distance` / `cosine_distance` accumulate
//    strictly left-to-right.  Their exact bit patterns feed model training
//    and reward arithmetic, so fixed-seed series depend on them -- never
//    reassociate these.
//  * `dot_blocked` / `squared_distance_blocked` split the chain across
//    independent partial accumulators (removing the add-latency bottleneck,
//    ~2-4x faster) and therefore round differently in the last ulps.  They
//    are reserved for consumers that only *compare* the results -- e.g. the
//    clustering distance matrix, where labels come from `d <= eps`
//    thresholds -- and must not leak into training or rewards.

#include <cstddef>
#include <span>
#include <vector>

#include "support/parallel.hpp"

namespace fairbfl::support {

/// y += alpha * x.  Sizes must match.  Elementwise, so unrolling is exact.
void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept;

/// x *= alpha.
void scale(std::span<float> x, float alpha) noexcept;

/// Sets every element of x to value.
void fill(std::span<float> x, float value) noexcept;

/// Dot product (accumulated in double, strictly left-to-right).
[[nodiscard]] double dot(std::span<const float> x,
                         std::span<const float> y) noexcept;

/// Euclidean norm.
[[nodiscard]] double norm2(std::span<const float> x) noexcept;

/// Squared Euclidean distance between x and y (strictly left-to-right).
[[nodiscard]] double squared_distance(std::span<const float> x,
                                      std::span<const float> y) noexcept;

/// Blocked dot product: four independent partial sums, combined at the
/// end.  Faster than `dot` but reassociated -- comparison-only consumers.
[[nodiscard]] double dot_blocked(std::span<const float> x,
                                 std::span<const float> y) noexcept;

/// Blocked squared Euclidean distance (same contract as dot_blocked).
[[nodiscard]] double squared_distance_blocked(
    std::span<const float> x, std::span<const float> y) noexcept;

/// Four blocked squared distances sharing x: out[p] is bitwise
/// squared_distance_blocked(x, ys[p]).  One pass over x feeds four
/// independent accumulator chains -- the pairwise distance build's kernel.
void squared_distance_blocked_x4(std::span<const float> x,
                                 std::span<const std::vector<float>, 4> ys,
                                 std::span<double, 4> out) noexcept;

/// Dense row-major matrix-vector product: out[r] = bias[r] + dot(row r of
/// a, x) for r in [0, rows), where `a` is rows x cols.  This is the
/// forward X·Wᵀ building block of the batched training kernels.  Each
/// row's accumulation is a strict left-to-right double chain -- exactly
/// `dot` -- and rows are independent, so processing four rows at once only
/// adds instruction-level parallelism: the result is bit-identical to
/// calling `dot` per row (training-safe, unlike dot_blocked).  When `bias`
/// is empty the cast double sum is written without the float add, matching
/// a biasless caller bit-for-bit (including the sign of zero).
void gemv(std::span<const float> a, std::size_t rows, std::size_t cols,
          std::span<const float> x, std::span<const float> bias,
          std::span<float> out) noexcept;

/// Batched forward over a mini-batch: out[s * rows + r] is bitwise
/// gemv(a, rows, cols, xs[s], bias, ...)[r] for every sample s, where
/// xs[s] points at cols floats.  One call serves the whole batch, so the
/// pinned scalar table can reuse each transposed tile of `a` across every
/// sample (support/simd.hpp).
void gemv_rows(std::span<const float> a, std::size_t rows, std::size_t cols,
               std::span<const float* const> xs, std::span<const float> bias,
               std::span<float> out) noexcept;

/// Transposed accumulate: out[j] += sum_r d[r] * a[r * cols + j] (Aᵀd),
/// the r-sum applied in order per element.  Used for the MLP's
/// dh = W2ᵀ·dlogits.  Float accumulation, elementwise over j, so the adds
/// land on each out[j] in exactly the reference loop's order.
void gemv_transpose_accumulate(std::span<const float> a, std::size_t rows,
                               std::size_t cols, std::span<const float> d,
                               std::span<float> out) noexcept;

/// Batched rank-1 outer-product accumulate, the backward dlogitsᵀ·X
/// building block: for each sample s in order and each r in [0, rows),
/// row r of y += d[s * rows + r] * xs[s], where d is xs.size() x rows, y
/// is rows x cols and xs[s] points at cols floats.  Per sample and row it
/// is exactly `axpy(d[s * rows + r], xs[s], row)`, so every element of y
/// receives its per-sample adds in sample order; the pinned scalar table
/// just loads and stores each span of y once per batch instead of once
/// per sample.
void outer_accumulate_rows(std::span<const float> d,
                           std::span<const float* const> xs,
                           std::size_t rows, std::size_t cols,
                           std::span<float> y) noexcept;

/// y[i] += alpha * (x[i] - z[i]): the FedProx proximal pull
/// grad += mu_prox (w - anchor), fused to one pass.  Elementwise and
/// bit-identical to the scalar loop.
void add_scaled_diff(float alpha, std::span<const float> x,
                     std::span<const float> z, std::span<float> y) noexcept;

/// Cosine *distance* 1 - cos(x, y) in [0, 2].  This is the theta of the
/// paper's Algorithm 2 ("the larger the theta, the farther the distance").
/// Zero vectors are treated as maximally distant (distance 1).
[[nodiscard]] double cosine_distance(std::span<const float> x,
                                     std::span<const float> y) noexcept;

/// Cosine distance from precomputed norms: bit-identical to
/// cosine_distance(x, y) when norm_x == norm2(x) and norm_y == norm2(y).
/// This is the norm-caching seam the pairwise distance matrix uses to
/// compute one dot per pair instead of three.
[[nodiscard]] double cosine_distance_cached(std::span<const float> x,
                                            std::span<const float> y,
                                            double norm_x,
                                            double norm_y) noexcept;

/// Per-row L2 norms: out[i] = norm2(rows[i]), rows fanned out over
/// `pool` (the DistanceMatrix norm cache).
[[nodiscard]] std::vector<double> norms_of(
    std::span<const std::vector<float>> rows,
    ThreadPool& pool = ThreadPool::global());

/// Fused norms-then-cosine batch kernel: out[i] = cosine_distance(rows[i],
/// query), computing the query norm once and each row's dot and norm in
/// one traversal.  Rows fan out over `pool`; each writes only its own
/// slot, so the result is bit-identical to calling cosine_distance per
/// row under any thread count.
void cosine_distances_to(std::span<const std::vector<float>> rows,
                         std::span<const float> query, std::span<double> out,
                         ThreadPool& pool = ThreadPool::global());

/// Borrowed row view: the combine kernels take spans so callers with rows
/// embedded in larger records (e.g. fl::GradientUpdate) can pass them
/// without copying the payloads.
using RowView = std::span<const float>;

/// out = sum_i weights[i] * rows[i].  All rows must share out's size;
/// weights.size() must equal rows.size().  For large vectors the dimension
/// range is split across `pool`; each output element still accumulates its
/// rows strictly in order, so the result is bit-identical to the serial
/// loop under any thread count.
void weighted_sum(std::span<const RowView> rows,
                  std::span<const double> weights, std::span<float> out,
                  ThreadPool& pool = ThreadPool::global());
void weighted_sum(std::span<const std::vector<float>> rows,
                  std::span<const double> weights, std::span<float> out,
                  ThreadPool& pool = ThreadPool::global());

/// out = (1/n) * sum_i rows[i].  Parallelized like weighted_sum.
void mean_of(std::span<const RowView> rows, std::span<float> out,
             ThreadPool& pool = ThreadPool::global());
void mean_of(std::span<const std::vector<float>> rows, std::span<float> out,
             ThreadPool& pool = ThreadPool::global());

}  // namespace fairbfl::support
