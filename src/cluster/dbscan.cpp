#include "cluster/dbscan.hpp"

#include <algorithm>
#include <deque>

#include "support/parallel.hpp"

namespace fairbfl::cluster {

namespace {

/// Points per pool task in the per-point query loops: a chunk amortizes
/// the fork, and a pass of at most this many points (a small round)
/// queries on the calling thread.
constexpr std::size_t kQueryGrain = 16;

}  // namespace

ClusterResult Dbscan::cluster_with(const GradientIndex& index,
                                   std::span<const std::vector<float>> points,
                                   support::ThreadPool& pool) const {
    check_index_covers(index, points);
    ClusterResult result;
    const std::size_t n = index.size();
    result.labels.assign(n, ClusterResult::kNoise);
    if (n == 0) return result;

    const double eps = params_.adaptive_eps
                           ? params_.adaptive_eps_scale *
                                 suggest_eps(index, params_.min_pts, pool)
                           : params_.eps;

    // Neighbourhoods (self included, matching the classic formulation),
    // each query writing only its own slot.
    std::vector<std::vector<std::size_t>> neighbours(n);
    support::parallel_for(
        0, n,
        [&](std::size_t i) { neighbours[i] = index.neighbors_within(i, eps); },
        pool, kQueryGrain);

    constexpr int kUnvisited = -2;
    std::vector<int> label(n, kUnvisited);
    int next_cluster = 0;

    for (std::size_t seed = 0; seed < n; ++seed) {
        if (label[seed] != kUnvisited) continue;
        if (neighbours[seed].size() < params_.min_pts) {
            label[seed] = ClusterResult::kNoise;
            continue;
        }
        // Grow a new cluster from this core point (BFS frontier).
        const int cluster = next_cluster++;
        label[seed] = cluster;
        std::deque<std::size_t> frontier(neighbours[seed].begin(),
                                         neighbours[seed].end());
        while (!frontier.empty()) {
            const std::size_t p = frontier.front();
            frontier.pop_front();
            if (label[p] == ClusterResult::kNoise)
                label[p] = cluster;  // border point adopted by the cluster
            if (label[p] != kUnvisited) continue;
            label[p] = cluster;
            if (neighbours[p].size() >= params_.min_pts) {
                frontier.insert(frontier.end(), neighbours[p].begin(),
                                neighbours[p].end());
            }
        }
    }

    result.labels.assign(label.begin(), label.end());
    result.num_clusters = next_cluster;
    return result;
}

double suggest_eps(const GradientIndex& index, std::size_t min_pts,
                   support::ThreadPool& pool) {
    const std::size_t n = index.size();
    if (n <= min_pts) return 0.0;
    // Per-point k-distance through the index's own query: backends with a
    // pruned search (the banded sketch index) answer in o(n) per point,
    // and the contract on kth_distance (an order statistic is a value,
    // not a scan order) keeps the median bit-identical to the old
    // materialize-the-row path for every backend.  Each query writes its
    // own slot, so the sample is the same for any pool size.
    std::vector<double> kth(n);
    support::parallel_for(
        0, n, [&](std::size_t i) { kth[i] = index.kth_distance(i, min_pts); },
        pool, kQueryGrain);
    std::nth_element(kth.begin(),
                     kth.begin() + static_cast<std::ptrdiff_t>(kth.size() / 2),
                     kth.end());
    return kth[kth.size() / 2];
}

}  // namespace fairbfl::cluster
