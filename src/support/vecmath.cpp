#include "support/vecmath.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "support/parallel.hpp"
#include "support/simd.hpp"

// The reduction and matrix kernels below call the pinned kernels in
// support/simd.{hpp,cpp}.  This file keeps the span-based contracts and
// assertions; the kernels work on raw pointers so the `-mavx2` TU stays
// dependency-free.

namespace fairbfl::support {

namespace {

/// Row-elements one chunk of a combine carries at least (1 MB of rows):
/// enough to pay for waking a sleeping pool worker.  At the model's 7850
/// weights a combine of up to 33 rows stays one inline chunk on the
/// calling thread; 128 rows split in four, 192 in six.
constexpr std::size_t kChunkWork = std::size_t{1} << 18;
/// Narrowest dimension chunk: many rows never cut a model finer than this.
constexpr std::size_t kMinChunk = 1024;

/// Dimension-chunk width of a combine over `rows` rows, sized by the work
/// it carries: rows x chunk >= kChunkWork row-elements.
std::size_t combine_chunk(std::size_t rows) noexcept {
    return std::max(kMinChunk, kChunkWork / std::max<std::size_t>(rows, 1));
}

/// Rows per theta task: one lane-exact dot_and_norm_rows pass.
constexpr std::size_t kThetaGroup = simd::kDotAndNormGroup;

/// Throws std::invalid_argument unless every row is `width` floats wide;
/// the kernels would otherwise read past a short row's end.
template <typename Rows>
void require_width(const Rows& rows, std::size_t width, const char* what) {
    for (const auto& row : rows) {
        if (row.size() != width) throw std::invalid_argument(what);
    }
}

}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept {
    assert(x.size() == y.size());
    simd::axpy(alpha, x.data(), y.data(), x.size());
}

void scale(std::span<float> x, float alpha) noexcept {
    for (auto& v : x) v *= alpha;
}

void fill(std::span<float> x, float value) noexcept {
    for (auto& v : x) v = value;
}

double dot(std::span<const float> x, std::span<const float> y) noexcept {
    assert(x.size() == y.size());
    return simd::dot(x.data(), y.data(), x.size());
}

double norm2(std::span<const float> x) noexcept {
    return std::sqrt(dot(x, x));
}

double squared_distance(std::span<const float> x,
                        std::span<const float> y) noexcept {
    assert(x.size() == y.size());
    return simd::squared_distance(x.data(), y.data(), x.size());
}

double squared_distance_blocked(std::span<const float> x,
                                std::span<const float> y) noexcept {
    assert(x.size() == y.size());
    return simd::squared_distance_blocked(x.data(), y.data(), x.size());
}

void squared_distance_blocked_3x4(std::span<const std::vector<float>, 3> xs,
                                  std::span<const std::vector<float>, 4> ys,
                                  std::span<double, 12> out) noexcept {
    const std::size_t n = xs[0].size();
#ifndef NDEBUG
    for (const auto& x : xs) assert(x.size() == n);
    for (const auto& y : ys) assert(y.size() == n);
#endif
    const float* const rows[3] = {xs[0].data(), xs[1].data(), xs[2].data()};
    const float* const cols[4] = {ys[0].data(), ys[1].data(), ys[2].data(),
                                  ys[3].data()};
    simd::squared_distance_blocked_3x4(rows, cols, n, out.data());
}

void gemv(std::span<const float> a, std::size_t rows, std::size_t cols,
          std::span<const float> x, std::span<const float> bias,
          std::span<float> out) noexcept {
    assert(a.size() == rows * cols);
    assert(x.size() == cols);
    assert(out.size() >= rows);
    assert(bias.empty() || bias.size() >= rows);
    simd::gemv(a.data(), rows, cols, x.data(),
               bias.empty() ? nullptr : bias.data(), out.data());
}

void gemv_rows(std::span<const float> a, std::size_t rows, std::size_t cols,
               std::span<const float* const> xs, std::span<const float> bias,
               std::span<float> out) noexcept {
    assert(a.size() == rows * cols);
    assert(out.size() >= xs.size() * rows);
    assert(bias.empty() || bias.size() >= rows);
    simd::gemv_rows(a.data(), rows, cols, xs.data(), xs.size(),
                    bias.empty() ? nullptr : bias.data(), out.data());
}

void gemv_transpose_accumulate(std::span<const float> a, std::size_t rows,
                               std::size_t cols, std::span<const float> d,
                               std::span<float> out) noexcept {
    assert(a.size() == rows * cols);
    assert(d.size() >= rows);
    assert(out.size() >= cols);
    simd::gemv_transpose_accumulate(a.data(), rows, cols, d.data(),
                                    out.data());
}

void outer_rows_l2(std::span<const float> d, std::span<const float* const> xs,
                   std::size_t rows, std::size_t cols, float l2,
                   std::span<const float> w, std::span<float> g,
                   double* w_norm2) {
    if (w.size() != rows * cols || g.size() != rows * cols)
        throw std::invalid_argument(
            "outer_rows_l2: weights or gradient is not rows x cols");
    if (d.size() < xs.size() * rows)
        throw std::invalid_argument(
            "outer_rows_l2: coefficients shorter than samples x rows");
    simd::outer_rows_l2(d.data(), xs.data(), xs.size(), rows, cols, l2,
                        w.data(), g.data(), w_norm2);
}

void add_scaled_diff(float alpha, std::span<const float> x,
                     std::span<const float> z, std::span<float> y) noexcept {
    assert(x.size() == y.size());
    assert(z.size() == y.size());
    const std::size_t n = y.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        y[i] += alpha * (x[i] - z[i]);
        y[i + 1] += alpha * (x[i + 1] - z[i + 1]);
        y[i + 2] += alpha * (x[i + 2] - z[i + 2]);
        y[i + 3] += alpha * (x[i + 3] - z[i + 3]);
    }
    for (; i < n; ++i) y[i] += alpha * (x[i] - z[i]);
}

double cosine_distance(std::span<const float> x,
                       std::span<const float> y) noexcept {
    return cosine_distance_cached(x, y, norm2(x), norm2(y));
}

double cosine_distance_cached(std::span<const float> x,
                              std::span<const float> y, double norm_x,
                              double norm_y) noexcept {
    if (norm_x == 0.0 || norm_y == 0.0) return 1.0;
    double cosine = dot(x, y) / (norm_x * norm_y);
    // Clamp away floating-point drift so the result stays in [0, 2].
    if (cosine > 1.0) cosine = 1.0;
    if (cosine < -1.0) cosine = -1.0;
    return 1.0 - cosine;
}

std::vector<double> norms_of(std::span<const std::vector<float>> rows,
                             ThreadPool& pool) {
    std::vector<double> norms(rows.size());
    parallel_for(
        0, rows.size(), [&](std::size_t i) { norms[i] = norm2(rows[i]); },
        pool);
    return norms;
}

void cosine_distances_to(std::span<const std::vector<float>> rows,
                         std::span<const float> query, std::span<double> out,
                         ThreadPool& pool) {
    if (out.size() != rows.size())
        throw std::invalid_argument(
            "cosine_distances_to: output size differs from the row count");
    require_width(rows, query.size(),
                  "cosine_distances_to: a row's width differs from the "
                  "query's");
    const double query_norm = norm2(query);
    // Groups of kThetaGroup rows fan out over the pool; each group is one
    // fused dot+norm pass carrying every row's two strict chains, so each
    // slot stays bit-identical to cosine_distance under any thread count.
    parallel_for(
        0, (rows.size() + kThetaGroup - 1) / kThetaGroup,
        [&](std::size_t group) {
            const std::size_t lo = group * kThetaGroup;
            const std::size_t count = std::min(kThetaGroup, rows.size() - lo);
            const float* xs[kThetaGroup] = {};
            for (std::size_t k = 0; k < count; ++k)
                xs[k] = rows[lo + k].data();
            double dots[kThetaGroup] = {};
            double norms2[kThetaGroup] = {};
            simd::dot_and_norm_rows(xs, count, query.data(), query.size(),
                                    dots, norms2);
            for (std::size_t k = 0; k < count; ++k) {
                const double row_norm = std::sqrt(norms2[k]);
                if (row_norm == 0.0 || query_norm == 0.0) {
                    out[lo + k] = 1.0;
                    continue;
                }
                double cosine = dots[k] / (row_norm * query_norm);
                if (cosine > 1.0) cosine = 1.0;
                if (cosine < -1.0) cosine = -1.0;
                out[lo + k] = 1.0 - cosine;
            }
        },
        pool);
}

void weighted_sum(std::span<const RowView> rows,
                  std::span<const double> weights, std::span<float> out,
                  ThreadPool& pool) {
    if (weights.size() != rows.size())
        throw std::invalid_argument(
            "weighted_sum: weight count differs from the row count");
    require_width(rows, out.size(),
                  "weighted_sum: a row's width differs from the output's");
    // Dimension-split: each output element accumulates its rows strictly
    // in order inside one chunk, so the result matches the serial
    // row-major axpy loop bit-for-bit under any thread count.
    parallel_chunks(
        0, out.size(), combine_chunk(rows.size()),
        [&](std::size_t lo, std::size_t hi) {
            const auto slice = out.subspan(lo, hi - lo);
            fill(slice, 0.0F);
            for (std::size_t r = 0; r < rows.size(); ++r) {
                axpy(static_cast<float>(weights[r]),
                     rows[r].subspan(lo, hi - lo), slice);
            }
        },
        pool);
}

void mean_of(std::span<const RowView> rows, std::span<float> out,
             ThreadPool& pool) {
    if (rows.empty()) {
        fill(out, 0.0F);
        return;
    }
    require_width(rows, out.size(),
                  "mean_of: a row's width differs from the output's");
    const float inv = 1.0F / static_cast<float>(rows.size());
    parallel_chunks(
        0, out.size(), combine_chunk(rows.size()),
        [&](std::size_t lo, std::size_t hi) {
            const auto slice = out.subspan(lo, hi - lo);
            fill(slice, 0.0F);
            for (const auto& row : rows)
                axpy(1.0F, row.subspan(lo, hi - lo), slice);
            scale(slice, inv);
        },
        pool);
}

namespace {

std::vector<RowView> views_of(std::span<const std::vector<float>> rows) {
    return {rows.begin(), rows.end()};
}

}  // namespace

void weighted_sum(std::span<const std::vector<float>> rows,
                  std::span<const double> weights, std::span<float> out,
                  ThreadPool& pool) {
    weighted_sum(views_of(rows), weights, out, pool);
}

void mean_of(std::span<const std::vector<float>> rows, std::span<float> out,
             ThreadPool& pool) {
    mean_of(views_of(rows), out, pool);
}

}  // namespace fairbfl::support
