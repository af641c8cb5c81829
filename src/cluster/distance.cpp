#include "cluster/distance.hpp"

#include <array>
#include <cmath>

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
    : metric_(metric),
      n_(points.size()),
      values_(points.size() * points.size(), 0.0) {
    if (n_ < 2) return;
    if (metric_ == Metric::kCosine) norms_ = support::norms_of(points, pool);

    // Row-parallel upper triangle; task i owns every (i, j > i) pair and
    // its mirror slot, so writes never overlap.
    const auto store = [this](std::size_t i, std::size_t j, double d) {
        values_[i * n_ + j] = d;
        values_[j * n_ + i] = d;
    };
    support::parallel_for(
        0, n_ - 1,
        [&](std::size_t i) {
            std::size_t j = i + 1;
            if (metric_ == Metric::kCosine) {
                for (; j < n_; ++j)
                    store(i, j,
                          support::cosine_distance_cached(
                              points[i], points[j], norms_[i], norms_[j]));
                return;
            }
            // Four pairs per pass over row i (bitwise the single-pair
            // kernel), then the remainder pair by pair.
            for (; j + 4 <= n_; j += 4) {
                std::array<double, 4> squared{};
                support::squared_distance_blocked_x4(
                    points[i], points.subspan(j).first<4>(), squared);
                for (std::size_t k = 0; k < 4; ++k)
                    store(i, j + k, std::sqrt(squared[k]));
            }
            for (; j < n_; ++j)
                store(i, j,
                      std::sqrt(support::squared_distance_blocked(
                          points[i], points[j])));
        },
        pool);
}

}  // namespace fairbfl::cluster
