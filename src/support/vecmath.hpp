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
//  * `squared_distance_blocked` (and its 3x4 register tile) splits the
//    chain across four independent partial accumulators (removing the
//    add-latency bottleneck, ~2-4x faster) and therefore rounds differently
//    in the last ulps.  It is reserved for consumers that only *compare*
//    the results -- the Euclidean distance matrix and the sketch index,
//    where labels come from `d <= eps` thresholds -- and must not leak into
//    training or rewards.

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

/// Blocked squared Euclidean distance: four independent partial sums,
/// combined at the end.  Faster than `squared_distance` but reassociated
/// -- comparison-only consumers.
[[nodiscard]] double squared_distance_blocked(
    std::span<const float> x, std::span<const float> y) noexcept;

/// A register tile of twelve blocked squared distances: out[r * 4 + c] is
/// bitwise squared_distance_blocked(xs[r], ys[c]) for three rows and four
/// columns of one width.  One pass over the seven points feeds twelve
/// independent accumulator chains and widens each point once per block of
/// four elements -- the pairwise distance build's kernel.
void squared_distance_blocked_3x4(std::span<const std::vector<float>, 3> xs,
                                  std::span<const std::vector<float>, 4> ys,
                                  std::span<double, 12> out) noexcept;

/// Dense row-major matrix-vector product: out[r] = bias[r] + dot(row r of
/// a, x) for r in [0, rows), where `a` is rows x cols.  This is the
/// forward X·Wᵀ building block of the batched training kernels.  Each
/// row's accumulation is a strict left-to-right double chain -- exactly
/// `dot` -- and rows are independent, so processing four rows at once only
/// adds instruction-level parallelism: the result is bit-identical to
/// calling `dot` per row, so it is training-safe.  When `bias`
/// is empty the cast double sum is written without the float add, matching
/// a biasless caller bit-for-bit (including the sign of zero).
void gemv(std::span<const float> a, std::size_t rows, std::size_t cols,
          std::span<const float> x, std::span<const float> bias,
          std::span<float> out) noexcept;

/// Batched forward over a mini-batch: out[s * rows + r] is bitwise
/// gemv(a, rows, cols, xs[s], bias, ...)[r] for every sample s, where
/// xs[s] points at cols floats.  One call serves the whole batch, so the
/// lane-exact encoding can reuse each transposed tile of `a` across every
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

/// One-sweep backward of a linear layer with an L2 term, the logistic
/// model's dW = dlogitsᵀ·X + l2·W: *writes* g, rows x cols, where d is
/// xs.size() x rows, w is rows x cols and xs[s] points at cols floats.
/// Per element of row r it is exactly a zero fill, then
/// `axpy(d[s * rows + r], xs[s], row)` for each sample s in order, then
/// `axpy(l2, w, g)`: every element starts at +0.0f and receives its
/// per-sample adds in sample order and its L2 add last.  When w_norm2 is
/// not null, *w_norm2 = dot(w, w), the strict chain in w's flat order --
/// the L2 loss term's sum, carried through the same sweep so its latency
/// hides behind the vector work.  Throws std::invalid_argument when w or
/// g is not rows x cols, or when d is shorter than xs.size() x rows.
void outer_rows_l2(std::span<const float> d, std::span<const float* const> xs,
                   std::size_t rows, std::size_t cols, float l2,
                   std::span<const float> w, std::span<float> g,
                   double* w_norm2);

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
/// `pool` (the ExactIndex norm cache).
[[nodiscard]] std::vector<double> norms_of(
    std::span<const std::vector<float>> rows,
    ThreadPool& pool = ThreadPool::global());

/// Fused norms-then-cosine batch kernel: out[i] = cosine_distance(rows[i],
/// query), computing the query norm once and each row's dot and norm in
/// one traversal.  Groups of eight rows fan out over `pool`, each one
/// lane-exact simd::dot_and_norm_rows pass; every row writes only its own
/// slot, so the result is bit-identical to calling cosine_distance per
/// row under any thread count.  Throws std::invalid_argument, before any
/// task runs, when out.size() != rows.size() or a row's width differs
/// from the query's.
void cosine_distances_to(std::span<const std::vector<float>> rows,
                         std::span<const float> query, std::span<double> out,
                         ThreadPool& pool = ThreadPool::global());

/// Borrowed row view: the combine kernels take spans so callers with rows
/// embedded in larger records (e.g. fl::GradientUpdate) can pass them
/// without copying the payloads.
using RowView = std::span<const float>;

/// out = sum_i weights[i] * rows[i].  All rows must share out's size and
/// weights.size() must equal rows.size(), else std::invalid_argument is
/// thrown before any task runs.  The dimension range is split across
/// `pool` in chunks sized by the work they carry (rows x chunk of at least
/// 2^18 row-elements, chunks of at least 1024 floats), so a combine of a
/// few rows runs as one chunk on the calling thread.  Each output element
/// still accumulates its rows strictly in order, so the result is
/// bit-identical to the serial loop under any thread count.
void weighted_sum(std::span<const RowView> rows,
                  std::span<const double> weights, std::span<float> out,
                  ThreadPool& pool = ThreadPool::global());
void weighted_sum(std::span<const std::vector<float>> rows,
                  std::span<const double> weights, std::span<float> out,
                  ThreadPool& pool = ThreadPool::global());

/// out = (1/n) * sum_i rows[i].  Checked and parallelized like
/// weighted_sum.
void mean_of(std::span<const RowView> rows, std::span<float> out,
             ThreadPool& pool = ThreadPool::global());
void mean_of(std::span<const std::vector<float>> rows, std::span<float> out,
             ThreadPool& pool = ThreadPool::global());

}  // namespace fairbfl::support
