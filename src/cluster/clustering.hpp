#pragma once
// Common clustering interface.  The paper's Algorithm 2 is parameterized on
// "any suitable clustering algorithm"; DBSCAN and k-means implement this
// interface and ClusteringRegistry (cluster/registry.hpp) selects one by key.
// An algorithm clusters a prebuilt GradientIndex (cluster/index.hpp), in
// that index's metric: the index owns the round's geometry.

#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "cluster/distance.hpp"
#include "cluster/index.hpp"

namespace fairbfl::cluster {

struct ClusterResult {
    /// Per-point cluster label; kNoise for DBSCAN outliers.
    std::vector<int> labels;
    /// Number of clusters found (labels range over [0, num_clusters)).
    int num_clusters = 0;

    static constexpr int kNoise = -1;

    /// True when points i and j share a (non-noise) cluster.
    [[nodiscard]] bool same_cluster(std::size_t i, std::size_t j) const {
        return labels[i] != kNoise && labels[i] == labels[j];
    }
    /// Members of a cluster.
    [[nodiscard]] std::vector<std::size_t> members_of(int cluster) const {
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < labels.size(); ++i)
            if (labels[i] == cluster) members.push_back(i);
        return members;
    }
};

class ClusteringAlgorithm {
public:
    virtual ~ClusteringAlgorithm() = default;

    /// The one clustering entry: clusters `points` in index.metric(),
    /// querying a prebuilt GradientIndex built over exactly those points
    /// (Algorithm 2 builds it once per pass -- exact matrix, lazy
    /// per-query distances, or random-projection sketch -- and shares it
    /// across every stage).  Point i of `points` is ordinal i of `index`.
    /// Throws std::invalid_argument when the index covers a different
    /// point count (check_index_covers).
    ///
    /// `pool` is the pass's pool: an implementation may fan its per-point
    /// index queries out on it (the index promises thread-safe queries),
    /// but its labels must be bit-identical for any pool size.  It has no
    /// default, because a default argument on a virtual binds to the
    /// static type of the call.
    [[nodiscard]] virtual ClusterResult cluster_with(
        const GradientIndex& index, std::span<const std::vector<float>> points,
        support::ThreadPool& pool) const = 0;

    /// The metric this algorithm's configuration names -- the geometry
    /// Algorithm 2 builds the shared index in.  cluster_with never reads
    /// it: it clusters in whatever metric the index answers.
    [[nodiscard]] virtual Metric preferred_metric() const noexcept = 0;

    /// The IndexRegistry key that matches this algorithm's access pattern
    /// -- what Algorithm 2 builds when the index selection is "auto".
    /// Dense neighbourhood scans amortize a precomputed "exact" matrix
    /// (the default); algorithms touching only O(n) distances (k-means++
    /// seeding) override to "lazy" so no O(n^2 d) structure is built for
    /// queries that never read it.
    [[nodiscard]] virtual std::string_view preferred_index() const noexcept {
        return "exact";
    }

    [[nodiscard]] virtual const char* name() const = 0;
};

/// cluster_with's shared precondition: `index` covers exactly `points`, one
/// ordinal per point.  Throws std::invalid_argument otherwise.
inline void check_index_covers(const GradientIndex& index,
                               std::span<const std::vector<float>> points) {
    if (index.size() != points.size())
        throw std::invalid_argument(
            "cluster_with: the index covers a different point count");
}

}  // namespace fairbfl::cluster
