#include "incentive/contribution.hpp"

#include <algorithm>
#include <chrono>

#include "support/vecmath.hpp"
#include "telemetry/telemetry.hpp"

namespace fairbfl::incentive {

std::vector<fl::NodeId> ContributionReport::low_clients() const {
    std::vector<fl::NodeId> clients;
    clients.reserve(low_indices.size());
    for (const std::size_t i : low_indices) clients.push_back(entries[i].client);
    std::sort(clients.begin(), clients.end());
    return clients;
}

double ContributionReport::total_reward() const {
    double total = 0.0;
    for (const auto& entry : entries) total += entry.reward;
    return total;
}

ContributionReport identify_contributions(
    std::span<const fl::GradientUpdate> updates,
    std::span<const float> provisional_global,
    const ContributionConfig& config,
    std::span<const float> reference) {
    ContributionReport report;
    if (updates.empty()) return report;
    // One span per Algorithm-2 pass: the flat round's single pass, or --
    // under the shard tree -- each shard pass and the root pass (their
    // item ordinal distinguishes them in the decoded log).  The index
    // build inside emits its own "cluster.index_build" sub-span.
    const telemetry::Span span(telemetry::labels::identify());

    // Points = all updates followed by the provisional global update, so a
    // single clustering call implements "w_{r+1} in l_i" membership tests.
    // With a reference (previous global) the points are the round's
    // effective gradients w - w_r.
    const auto to_point = [&](std::span<const float> w) {
        std::vector<float> point(w.begin(), w.end());
        if (!reference.empty()) {
            for (std::size_t d = 0; d < point.size(); ++d)
                point[d] -= reference[d];
        }
        return point;
    };
    std::vector<std::vector<float>> points;
    points.reserve(updates.size() + 1);
    for (const auto& update : updates) points.push_back(to_point(update.weights));
    points.push_back(to_point(provisional_global));
    const std::size_t global_index = points.size() - 1;

    // Resolve the clustering algorithm by registry key; its configuration
    // decides the geometry the shared index is built in and -- under the
    // "auto" selection -- which backend fits its access pattern (dense
    // scans precompute, seed-only algorithms go lazy).
    const cluster::ClusteringConfig cluster_config{.dbscan = config.dbscan,
                                                   .kmeans = config.kmeans};
    const std::unique_ptr<cluster::ClusteringAlgorithm> algorithm =
        cluster::ClusteringRegistry::global().make(config.clustering,
                                                   cluster_config);

    // The round's one and only neighborhood-structure job: build the
    // selected GradientIndex backend over all updates plus the provisional
    // global -- O(n^2 d) for "exact", O(n d k) for the approximate
    // backends, nothing at all for "lazy".  Eps suggestion, the clustering
    // scan, and the nearest-cluster fallback all query it; nothing
    // downstream touches a dense matrix directly.  The index lives for
    // this pass only: every pass builds from its own round's points.
    cluster::IndexParams index_params = config.index_params;
    index_params.metric = algorithm->preferred_metric();
    const std::string_view index_key = config.index == "auto"
                                           ? algorithm->preferred_index()
                                           : std::string_view(config.index);
    const auto build_start = std::chrono::steady_clock::now();
    const std::unique_ptr<cluster::GradientIndex> index =
        cluster::IndexRegistry::global().build(index_key, points,
                                               index_params);
    report.index_build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      build_start)
            .count();
    report.index_backend = index->name();
    report.index_peak_bytes = index->storage_bytes();

    report.clustering = algorithm->cluster_with(*index, points);
    report.global_cluster = report.clustering.labels[global_index];

    // Attackers can drag the provisional average off the honest cluster,
    // leaving the global update in DBSCAN noise.  Membership in "the
    // global's cluster" is then undefined; the robust reading of
    // Algorithm 2 assigns the global to its *nearest* cluster (minimum
    // index distance to any member), which is the honest one whenever an
    // honest majority exists.  Candidates ascend, and nearest_of breaks
    // ties on the first minimum, reproducing the old argmin scan exactly.
    if (report.global_cluster == cluster::ClusterResult::kNoise &&
        report.clustering.num_clusters > 0) {
        std::vector<std::size_t> clustered;
        clustered.reserve(global_index);
        for (std::size_t i = 0; i < global_index; ++i) {
            if (report.clustering.labels[i] != cluster::ClusterResult::kNoise)
                clustered.push_back(i);
        }
        if (!clustered.empty()) {
            const std::size_t nearest =
                index->nearest_of(global_index, clustered);
            report.global_cluster = report.clustering.labels[nearest];
        }
    }

    // Honest-majority guard.  Attackers who amplify their forged gradients
    // can flip the *direction* of the simple average, parking the global
    // update inside (or nearest to) the attacker cluster -- the defense
    // would then discard the honest majority.  The paper's own security
    // argument presumes "the vast majority of nodes remaining honest", so
    // when a strict majority cluster exists and it is not the global's,
    // side with the majority.
    if (report.clustering.num_clusters > 0) {
        std::vector<std::size_t> sizes(
            static_cast<std::size_t>(report.clustering.num_clusters), 0);
        for (std::size_t i = 0; i < global_index; ++i) {
            const int label = report.clustering.labels[i];
            if (label >= 0) ++sizes[static_cast<std::size_t>(label)];
        }
        const std::size_t biggest = static_cast<std::size_t>(
            std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
        if (sizes[biggest] * 2 > updates.size() &&
            static_cast<int>(biggest) != report.global_cluster) {
            report.global_cluster = static_cast<int>(biggest);
        }
    }

    // theta_i: cosine distance of each update to the provisional global.
    // Theta feeds reward and aggregation arithmetic, so it must stay exact
    // under every backend: an exact cosine index with precomputed rows
    // already holds the values in the global's row (read them back); any
    // other backend -- Euclidean exact, lazy (recomputing the row would
    // cost more than the kernel), sketches, pivot profiles -- falls
    // through to the fused batch kernel (bit-identical to pairwise
    // cosine_distance).
    std::vector<double> theta(updates.size());
    if (index->exact() && index->precomputed_rows() &&
        index->metric() == cluster::Metric::kCosine) {
        std::vector<double> global_row(points.size());
        index->distances_from(global_index, global_row);
        std::copy(global_row.begin(), global_row.begin() + updates.size(),
                  theta.begin());
    } else {
        support::cosine_distances_to(
            std::span<const std::vector<float>>(points).first(updates.size()),
            points[global_index], theta);
    }

    report.entries.resize(updates.size());
    double high_theta_sum = 0.0;
    for (std::size_t i = 0; i < updates.size(); ++i) {
        ClientContribution& entry = report.entries[i];
        entry.client = updates[i].client;
        entry.theta = theta[i];
        // High contribution: same (non-noise) cluster as the global update.
        // When the global lands in noise (tiny rounds / degenerate eps),
        // nobody is "in its cluster"; treat everyone as high so the round
        // degrades to plain fair aggregation instead of dropping everyone.
        entry.high = report.global_cluster == cluster::ClusterResult::kNoise
                         ? true
                         : report.clustering.labels[i] == report.global_cluster;
        if (entry.high) {
            high_theta_sum += entry.theta;
            report.high_indices.push_back(i);
        } else {
            report.low_indices.push_back(i);
        }
    }

    // Rewards: <C_i, theta_i / sum theta_k * base> for high contributors.
    if (high_theta_sum > 0.0) {
        for (const std::size_t i : report.high_indices) {
            report.entries[i].reward = report.entries[i].theta /
                                       high_theta_sum * config.reward_base;
        }
    } else if (!report.high_indices.empty()) {
        // All thetas ~0 (identical gradients): split the base evenly.
        const double share =
            config.reward_base /
            static_cast<double>(report.high_indices.size());
        for (const std::size_t i : report.high_indices)
            report.entries[i].reward = share;
    }

    return report;
}

std::vector<std::size_t> surviving_indices(std::size_t update_count,
                                           const ContributionReport& report,
                                           LowContributionStrategy strategy) {
    std::vector<std::size_t> survivors;
    if (strategy == LowContributionStrategy::kKeepAll ||
        report.high_indices.empty()) {
        survivors.resize(update_count);
        for (std::size_t i = 0; i < update_count; ++i) survivors[i] = i;
        return survivors;
    }
    return report.high_indices;
}

SurvivorSelection select_survivors(
    std::span<const fl::GradientUpdate> updates,
    const ContributionReport& report, LowContributionStrategy strategy) {
    const auto survivors =
        surviving_indices(updates.size(), report, strategy);
    SurvivorSelection selection;
    selection.updates.reserve(survivors.size());
    selection.theta.reserve(survivors.size());
    for (const std::size_t i : survivors) {
        selection.updates.push_back(updates[i]);
        selection.theta.push_back(report.entries[i].theta);
        selection.theta_sum += report.entries[i].theta;
    }
    return selection;
}

std::vector<float> apply_strategy(std::span<const fl::GradientUpdate> updates,
                                  const ContributionReport& report,
                                  LowContributionStrategy strategy) {
    // Hierarchical rounds arrive pre-settled: the shard tree already
    // applied the strategy per shard and combined per level (see
    // incentive/hierarchical.hpp); re-running flat Eq. 1 here would undo
    // the root-level weighting.
    if (!report.settled_weights.empty()) return report.settled_weights;
    const SurvivorSelection selection =
        select_survivors(updates, report, strategy);
    if (selection.degenerate()) {
        // Degenerate geometry: every surviving update coincides with the
        // global; Eq. 1 is undefined, use the simple average.
        return fl::simple_average(selection.updates);
    }
    return fl::fair_aggregate(selection.updates, selection.theta);
}

}  // namespace fairbfl::incentive
