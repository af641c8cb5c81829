#pragma once
// k-means (Lloyd's algorithm with k-means++ seeding) -- the alternate
// clustering algorithm for Algorithm 2, demonstrating the paper's claim
// that "any suitable clustering algorithm can be used here as needed".
//
// Under the cosine metric, points are L2-normalized first (spherical
// k-means), so centroids live on the unit sphere like the gradients'
// direction vectors.

#include "cluster/clustering.hpp"
#include "support/rng.hpp"

namespace fairbfl::cluster {

struct KMeansParams {
    std::size_t k = 2;
    std::size_t max_iterations = 50;
    Metric metric = Metric::kCosine;
    std::uint64_t seed = 42;
};

class KMeans final : public ClusteringAlgorithm {
public:
    explicit KMeans(KMeansParams params = {}) noexcept : params_(params) {}

    [[nodiscard]] ClusterResult cluster(
        std::span<const std::vector<float>> points) const override;
    /// Reuses a prebuilt index for the k-means++ seeding phase (every
    /// candidate centroid is still a data point there, so seed distances
    /// are plain index queries).  Lloyd iterations move the centroids off
    /// the data and always recompute exactly.  The index is used only when
    /// its metric matches params().metric.
    ///
    /// Caveat: index entries are at best mathematically equal -- and for
    /// approximate backends only approximately equal -- to what cluster()
    /// computes (blocked Euclidean kernel; cosine on unnormalized
    /// originals; sketch space), and seeding feeds them into
    /// cumulative probability sampling -- so this path may pick a
    /// different (equally valid) seed than cluster() and label the same
    /// partition differently.  Use it for throughput when a matching
    /// index already exists, not when exact reproduction of the
    /// points-path labels matters.
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
    /// under "auto" no precomputed structure is built for it.  With the
    /// "lazy" backend and the Euclidean metric, cluster_with reproduces
    /// cluster() bit-for-bit (the seed distances are the same calls on
    /// the same vectors); the cosine caveat above still applies.
    [[nodiscard]] std::string_view preferred_index() const noexcept override {
        return "lazy";
    }
    [[nodiscard]] const char* name() const override { return "kmeans"; }

    [[nodiscard]] const KMeansParams& params() const noexcept {
        return params_;
    }

private:
    [[nodiscard]] ClusterResult cluster_impl(
        std::span<const std::vector<float>> points,
        const GradientIndex* index) const;

    KMeansParams params_;
};

}  // namespace fairbfl::cluster
