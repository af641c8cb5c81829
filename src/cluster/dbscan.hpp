#pragma once
// DBSCAN (Ester et al., KDD'96) -- the paper's default clustering algorithm
// for contribution identification ("we use DBSCAN in experiments by default
// because it is efficient and straightforward").
//
// Density-based: points with >= min_pts neighbours within eps become cores;
// cores chain into clusters; everything unreachable is noise.  Forged
// gradients land in noise / minority clusters because they are far (in
// cosine distance) from the honest majority.
//
// The scan is written against the GradientIndex neighborhood API, so it
// runs unchanged over the exact matrix or any approximate backend, in the
// index's metric: DBSCAN itself never reads a metric.

#include <memory>

#include "cluster/clustering.hpp"

namespace fairbfl::cluster {

struct DbscanParams {
    double eps = 0.05;         ///< neighbourhood radius (metric units)
    std::size_t min_pts = 3;   ///< neighbours (incl. self) to be a core
    /// preferred_metric(): the geometry Algorithm 2 builds the index in.
    Metric metric = Metric::kCosine;
    /// When true, `eps` is re-estimated per scan from the k-distance
    /// sample of the index being scanned (suggest_eps), scaled by
    /// adaptive_eps_scale.  This keeps detection working as gradients
    /// concentrate with convergence, and -- because the sample lives in
    /// the index's own geometry -- stays consistent under approximate
    /// backends.  Algorithm 2's default config enables it.
    bool adaptive_eps = false;
    /// Scale applied to the suggested eps (>1 loosens the honest cluster).
    double adaptive_eps_scale = 2.0;
};

class Dbscan final : public ClusteringAlgorithm {
public:
    explicit Dbscan(DbscanParams params = {}) noexcept : params_(params) {}

    /// Scans the index alone (`points` only sets the expected count).
    /// The k-distance and neighbourhood queries fan out over `pool`; the
    /// cluster expansion stays serial.
    [[nodiscard]] ClusterResult cluster_with(
        const GradientIndex& index, std::span<const std::vector<float>> points,
        support::ThreadPool& pool) const override;
    [[nodiscard]] Metric preferred_metric() const noexcept override {
        return params_.metric;
    }
    [[nodiscard]] const char* name() const override { return "dbscan"; }

private:
    DbscanParams params_;
};

/// Heuristic eps: median of each point's k-th nearest-neighbour distance
/// (k = min_pts).  Lets Algorithm 2 adapt eps per round as gradients shrink
/// with convergence.
///
/// The k-distance sample is read from a prebuilt index, so it lives in
/// the index's own geometry and the suggested eps is always consistent
/// with the distances the scan will threshold against.  The per-point
/// queries fan out over `pool`, each into its own slot, so the result is
/// bit-identical for any pool size.
///
/// When n <= min_pts there is no k-th-neighbour sample to estimate from;
/// the heuristic returns 0.0, under which DBSCAN (min_pts > 1) labels
/// everything noise and Algorithm 2 degrades to plain fair aggregation --
/// instead of clustering tiny rounds on an arbitrary made-up radius.
[[nodiscard]] double suggest_eps(
    const GradientIndex& index, std::size_t min_pts,
    support::ThreadPool& pool = support::ThreadPool::global());

}  // namespace fairbfl::cluster
