#include "cluster/distance.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "support/parallel.hpp"
#include "support/vecmath.hpp"

namespace fairbfl::cluster {

double distance(Metric metric, std::span<const float> a,
                std::span<const float> b) noexcept {
    switch (metric) {
        case Metric::kCosine:
            return support::cosine_distance(a, b);
        case Metric::kEuclidean:
            return std::sqrt(support::squared_distance(a, b));
    }
    return 0.0;
}

DistanceMatrix::DistanceMatrix(Metric metric,
                               std::span<const std::vector<float>> points,
                               support::ThreadPool& pool)
    : metric_(metric), n_(points.size()) {
    // Every kernel below reads both points of a pair at one width, so a
    // ragged set would read out of bounds: reject it before any row task.
    for (const auto& point : points) {
        if (point.size() != points[0].size())
            throw std::invalid_argument(
                "DistanceMatrix: point widths differ from the first's");
    }
    values_.assign(n_ * n_, 0.0);
    if (n_ < 2) return;
    if (metric_ == Metric::kCosine) norms_ = support::norms_of(points, pool);

    // Row-parallel upper triangle in row triples; task t owns rows
    // 3t .. 3t + 2, every pair (i, j > i) of them and its mirror slot, so
    // writes never overlap.
    const auto store = [this](std::size_t i, std::size_t j, double d) {
        values_[i * n_ + j] = d;
        values_[j * n_ + i] = d;
    };
    const auto euclidean = [&](std::size_t i, std::size_t j) {
        store(i, j,
              std::sqrt(support::squared_distance_blocked(points[i],
                                                          points[j])));
    };
    support::parallel_for(
        0, (n_ + 1) / 3,
        [&](std::size_t t) {
            const std::size_t i0 = 3 * t;
            const std::size_t end = std::min(i0 + 3, n_);
            if (metric_ == Metric::kCosine) {
                for (std::size_t i = i0; i < end; ++i)
                    for (std::size_t j = i + 1; j < n_; ++j)
                        store(i, j,
                              support::cosine_distance_cached(
                                  points[i], points[j], norms_[i],
                                  norms_[j]));
                return;
            }
            // A full triple walks the columns past it four at a time
            // through the 3x4 tile (bitwise the single-pair kernel); the
            // pairs inside the triple and the column tail go pair by pair.
            std::size_t tiled_end = end;
            if (end - i0 == 3) {
                for (; tiled_end + 4 <= n_; tiled_end += 4) {
                    std::array<double, 12> squared{};
                    support::squared_distance_blocked_3x4(
                        points.subspan(i0).first<3>(),
                        points.subspan(tiled_end).first<4>(), squared);
                    for (std::size_t k = 0; k < 12; ++k)
                        store(i0 + k / 4, tiled_end + k % 4,
                              std::sqrt(squared[k]));
                }
            }
            for (std::size_t i = i0; i < end; ++i) {
                for (std::size_t j = i + 1; j < end; ++j) euclidean(i, j);
                for (std::size_t j = tiled_end; j < n_; ++j) euclidean(i, j);
            }
        },
        pool);
}

}  // namespace fairbfl::cluster
