#pragma once
// k-means (Lloyd's algorithm with k-means++ seeding) -- the alternate
// clustering algorithm for Algorithm 2, demonstrating the paper's claim
// that "any suitable clustering algorithm can be used here as needed".
//
// k-means runs in the metric of the index it is handed: under the cosine
// metric, points are L2-normalized first (spherical k-means), so centroids
// live on the unit sphere like the gradients' direction vectors.

#include "cluster/clustering.hpp"
#include "support/rng.hpp"

namespace fairbfl::cluster {

struct KMeansParams {
    std::size_t k = 2;
    std::size_t max_iterations = 50;
    /// preferred_metric(): the geometry Algorithm 2 builds the index in.
    Metric metric = Metric::kCosine;
    std::uint64_t seed = 42;
};

class KMeans final : public ClusteringAlgorithm {
public:
    explicit KMeans(KMeansParams params = {}) noexcept : params_(params) {}

    /// k-means++ seeding reads the index: every candidate centroid is
    /// still a data point there, so seed distances are plain index
    /// queries, index.distance(i, seed) for points[i].  Normalisation and
    /// the Lloyd iterations, whose centroids move off the data, compute
    /// exactly in index.metric().
    ///
    /// Seeding and Lloyd iterations run on the calling thread; `pool` is
    /// not used.
    [[nodiscard]] ClusterResult cluster_with(
        const GradientIndex& index, std::span<const std::vector<float>> points,
        support::ThreadPool& pool) const override;
    [[nodiscard]] Metric preferred_metric() const noexcept override {
        return params_.metric;
    }
    /// Seeding touches one index column per seed -- O(n k) lookups -- so
    /// under "auto" no precomputed structure is built for it.
    [[nodiscard]] std::string_view preferred_index() const noexcept override {
        return "lazy";
    }
    [[nodiscard]] const char* name() const override { return "kmeans"; }

private:
    KMeansParams params_;
};

}  // namespace fairbfl::cluster
