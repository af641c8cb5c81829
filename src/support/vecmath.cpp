#include "support/vecmath.hpp"

#include <cassert>
#include <cmath>

#include "support/parallel.hpp"
#include "support/simd.hpp"

// Every kernel below routes through the runtime-dispatched table in
// support/simd.{hpp,cpp}.  The scalar table holds the pinned reference
// loops (byte-for-byte the bodies that used to live here); the avx2 table
// is the tolerance-pinned fast path.  This file keeps the span-based
// contracts and assertions; the tables work on raw pointers so the
// `-march`-gated TU stays dependency-free.

namespace fairbfl::support {

namespace {

/// Dimension-chunk width for the parallel reduction kernels: big enough
/// that a chunk amortizes the fork overhead, small enough to split a
/// production-scale model across every core.
constexpr std::size_t kDimChunk = 8192;

}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept {
    assert(x.size() == y.size());
    simd::active().axpy(alpha, x.data(), y.data(), x.size());
}

void scale(std::span<float> x, float alpha) noexcept {
    for (auto& v : x) v *= alpha;
}

void fill(std::span<float> x, float value) noexcept {
    for (auto& v : x) v = value;
}

double dot(std::span<const float> x, std::span<const float> y) noexcept {
    assert(x.size() == y.size());
    return simd::active().dot(x.data(), y.data(), x.size());
}

double norm2(std::span<const float> x) noexcept {
    return std::sqrt(dot(x, x));
}

double squared_distance(std::span<const float> x,
                        std::span<const float> y) noexcept {
    assert(x.size() == y.size());
    return simd::active().squared_distance(x.data(), y.data(), x.size());
}

double dot_blocked(std::span<const float> x,
                   std::span<const float> y) noexcept {
    assert(x.size() == y.size());
    return simd::active().dot_blocked(x.data(), y.data(), x.size());
}

double squared_distance_blocked(std::span<const float> x,
                                std::span<const float> y) noexcept {
    assert(x.size() == y.size());
    return simd::active().squared_distance_blocked(x.data(), y.data(),
                                                   x.size());
}

void squared_distance_blocked_x4(std::span<const float> x,
                                 std::span<const std::vector<float>, 4> ys,
                                 std::span<double, 4> out) noexcept {
#ifndef NDEBUG
    for (const auto& y : ys) assert(y.size() == x.size());
#endif
    const float* const rows[4] = {ys[0].data(), ys[1].data(), ys[2].data(),
                                  ys[3].data()};
    simd::active().squared_distance_blocked_x4(x.data(), rows, x.size(),
                                               out.data());
}

void gemv(std::span<const float> a, std::size_t rows, std::size_t cols,
          std::span<const float> x, std::span<const float> bias,
          std::span<float> out) noexcept {
    assert(a.size() == rows * cols);
    assert(x.size() == cols);
    assert(out.size() >= rows);
    assert(bias.empty() || bias.size() >= rows);
    simd::active().gemv(a.data(), rows, cols, x.data(),
                        bias.empty() ? nullptr : bias.data(), out.data());
}

void gemv_rows(std::span<const float> a, std::size_t rows, std::size_t cols,
               std::span<const float* const> xs, std::span<const float> bias,
               std::span<float> out) noexcept {
    assert(a.size() == rows * cols);
    assert(out.size() >= xs.size() * rows);
    assert(bias.empty() || bias.size() >= rows);
    simd::active().gemv_rows(a.data(), rows, cols, xs.data(), xs.size(),
                             bias.empty() ? nullptr : bias.data(),
                             out.data());
}

void gemv_transpose_accumulate(std::span<const float> a, std::size_t rows,
                               std::size_t cols, std::span<const float> d,
                               std::span<float> out) noexcept {
    assert(a.size() == rows * cols);
    assert(d.size() >= rows);
    assert(out.size() >= cols);
    simd::active().gemv_transpose_accumulate(a.data(), rows, cols, d.data(),
                                             out.data());
}

void outer_accumulate_rows(std::span<const float> d,
                           std::span<const float* const> xs,
                           std::size_t rows, std::size_t cols,
                           std::span<float> y) noexcept {
    assert(d.size() >= xs.size() * rows);
    assert(y.size() == rows * cols);
    simd::active().outer_accumulate_rows(d.data(), xs.data(), xs.size(), rows,
                                         cols, y.data());
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
    assert(rows.size() == out.size());
    const auto& kernels = simd::active();
    const double query_norm = norm2(query);
    parallel_for(
        0, rows.size(),
        [&](std::size_t i) {
            // Fused dot+norm: one traversal of the row instead of the
            // separate norm2() and dot() passes.  The scalar table's fused
            // kernel carries two strict chains, so this stays
            // bit-identical to cosine_distance under the pinned default.
            double d = 0.0;
            double row_norm2 = 0.0;
            kernels.dot_and_norm(rows[i].data(), query.data(),
                                 rows[i].size(), &d, &row_norm2);
            const double row_norm = std::sqrt(row_norm2);
            if (row_norm == 0.0 || query_norm == 0.0) {
                out[i] = 1.0;
                return;
            }
            double cosine = d / (row_norm * query_norm);
            if (cosine > 1.0) cosine = 1.0;
            if (cosine < -1.0) cosine = -1.0;
            out[i] = 1.0 - cosine;
        },
        pool);
}

void weighted_sum(std::span<const RowView> rows,
                  std::span<const double> weights, std::span<float> out,
                  ThreadPool& pool) {
    assert(rows.size() == weights.size());
#ifndef NDEBUG
    for (const auto& row : rows) assert(row.size() == out.size());
#endif
    // Dimension-split: each output element accumulates its rows strictly
    // in order inside one chunk, so the result matches the serial
    // row-major axpy loop bit-for-bit under any thread count.
    parallel_chunks(
        0, out.size(), kDimChunk,
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
#ifndef NDEBUG
    for (const auto& row : rows) assert(row.size() == out.size());
#endif
    const float inv = 1.0F / static_cast<float>(rows.size());
    parallel_chunks(
        0, out.size(), kDimChunk,
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
