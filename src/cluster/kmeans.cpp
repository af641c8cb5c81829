#include "cluster/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/vecmath.hpp"

namespace fairbfl::cluster {

ClusterResult KMeans::cluster_with(const GradientIndex& index,
                                   std::span<const std::vector<float>> points,
                                   support::ThreadPool& /*pool*/) const {
    check_index_covers(index, points);
    ClusterResult result;
    const std::size_t n = points.size();
    if (n == 0) return result;
    const Metric metric = index.metric();
    const std::size_t k = std::min(params_.k, n);
    const std::size_t dim = points[0].size();

    // Spherical variant for the cosine metric: normalize copies.
    std::vector<std::vector<float>> data(points.begin(), points.end());
    if (metric == Metric::kCosine) {
        for (auto& p : data) {
            const auto norm = static_cast<float>(support::norm2(p));
            if (norm > 0.0F) support::scale(p, 1.0F / norm);
        }
    }

    auto rng = support::Rng::fork(params_.seed, /*stream=*/0x4B4D);

    // k-means++ seeding.  Every candidate centroid is a data point here,
    // so a prebuilt index answers the seed distances by lookup (a cosine
    // index is built on the unnormalized originals, whose cosine
    // distances equal the normalized copies').
    std::vector<std::vector<float>> centroids;
    centroids.reserve(k);
    std::size_t last_seed = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    centroids.push_back(data[last_seed]);
    std::vector<double> min_dist2(n, std::numeric_limits<double>::infinity());
    while (centroids.size() < k) {
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double d = index.distance(i, last_seed);
            min_dist2[i] = std::min(min_dist2[i], d * d);
            total += min_dist2[i];
        }
        if (total <= 0.0) {
            // All points coincide with the chosen centroids; duplicate one.
            last_seed = 0;
            centroids.push_back(data[0]);
            continue;
        }
        double pick = rng.uniform() * total;
        std::size_t chosen = n - 1;
        for (std::size_t i = 0; i < n; ++i) {
            pick -= min_dist2[i];
            if (pick <= 0.0) {
                chosen = i;
                break;
            }
        }
        last_seed = chosen;
        centroids.push_back(data[chosen]);
    }

    // Lloyd iterations.
    std::vector<int> labels(n, 0);
    for (std::size_t iter = 0; iter < params_.max_iterations; ++iter) {
        bool changed = false;
        for (std::size_t i = 0; i < n; ++i) {
            double best = std::numeric_limits<double>::infinity();
            int best_c = 0;
            for (std::size_t c = 0; c < centroids.size(); ++c) {
                const double d = distance(metric, data[i], centroids[c]);
                if (d < best) {
                    best = d;
                    best_c = static_cast<int>(c);
                }
            }
            if (labels[i] != best_c) {
                labels[i] = best_c;
                changed = true;
            }
        }
        if (!changed && iter > 0) break;

        // Recompute centroids (empty clusters keep their previous centroid).
        std::vector<std::vector<float>> sums(
            centroids.size(), std::vector<float>(dim, 0.0F));
        std::vector<std::size_t> counts(centroids.size(), 0);
        for (std::size_t i = 0; i < n; ++i) {
            const auto c = static_cast<std::size_t>(labels[i]);
            support::axpy(1.0F, data[i], sums[c]);
            ++counts[c];
        }
        for (std::size_t c = 0; c < centroids.size(); ++c) {
            if (counts[c] == 0) continue;
            support::scale(sums[c], 1.0F / static_cast<float>(counts[c]));
            if (metric == Metric::kCosine) {
                const auto norm = static_cast<float>(support::norm2(sums[c]));
                if (norm > 0.0F) support::scale(sums[c], 1.0F / norm);
            }
            centroids[c] = sums[c];
        }
    }

    result.labels = std::move(labels);
    result.num_clusters = static_cast<int>(centroids.size());
    return result;
}

}  // namespace fairbfl::cluster
