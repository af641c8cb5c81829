#pragma once
// Client's Contribution Identification -- the paper's Algorithm 2.
//
// Given the round's gradient set W (one update per client) and the
// provisional global update w_{r+1} (the simple average of Algorithm 1
// line 24):
//   1. cluster W ∪ {w_{r+1}} with a pluggable clustering algorithm
//      (DBSCAN by default);
//   2. clients in the global update's cluster are *high contribution*;
//      their theta_i = cosine_distance(w_i, w_{r+1}) becomes both the
//      reward share theta_i / sum_k theta_k * base and the fair-aggregation
//      weight p_i (Eq. 1);
//   3. clients outside are *low contribution* and the configured strategy
//      applies: keep them (weights still via Eq. 1) or discard them and
//      recompute the global update from the high contributors only.
//
// Forged gradients land far from the honest cluster, so the discard
// strategy doubles as the malicious-attack defense evaluated in Table 2.

#include <optional>
#include <string>
#include <vector>

#include "cluster/clustering.hpp"
#include "cluster/index.hpp"
#include "cluster/registry.hpp"
#include "fl/aggregation.hpp"
#include "fl/gradient.hpp"
#include "fl/sharding.hpp"
#include "support/parallel.hpp"

namespace fairbfl::incentive {

/// What to do with low-contribution clients (paper §3.2: "two strategies").
enum class LowContributionStrategy : std::uint8_t {
    kKeepAll = 0,  ///< keep all gradients in the aggregation
    kDiscard = 1,  ///< drop them and recalculate the global update
};

struct ContributionConfig {
    /// Clustering backend, resolved by key in
    /// cluster::ClusteringRegistry::global(): "dbscan" (the paper's
    /// default) or "kmeans".
    std::string clustering = "dbscan";
    /// Neighborhood/distance backend, resolved by key in
    /// cluster::IndexRegistry::global(): "exact" (dense matrix,
    /// bit-identical to the pre-index pipeline), "lazy" (zero build,
    /// per-query exact distances), or "random_projection" (JL sketches,
    /// O(n d k) build).
    /// "auto" (the default) defers to the clustering algorithm's
    /// preferred_index() -- "exact" for DBSCAN's dense scan, "lazy" for
    /// k-means' seed-only touches -- so each algorithm keeps its
    /// pre-GradientIndex cost profile unless a backend is pinned.
    std::string index = "auto";
    LowContributionStrategy strategy = LowContributionStrategy::kKeepAll;
    /// Clustering metric defaults to Euclidean over the round's effective
    /// gradients: forged/low-quality gradients separate by *magnitude and
    /// direction* there, whereas cosine distance degenerates under non-IID
    /// data (honest shard directions are already near-orthogonal).  The
    /// reward weight theta stays cosine, as Algorithm 2 prescribes.
    /// Adaptive eps (on by default here, off in raw DbscanParams) keeps
    /// detection working as gradients concentrate with convergence.
    cluster::DbscanParams dbscan{.eps = 0.05,
                                 .min_pts = 3,
                                 .metric = cluster::Metric::kEuclidean,
                                 .adaptive_eps = true,
                                 .adaptive_eps_scale = 2.0};
    cluster::KMeansParams kmeans;
    /// Tuning for the selected index backend (projection dims, internal
    /// seed).  The metric field is overwritten at build time with the
    /// clustering algorithm's preferred metric, so index and scan always
    /// agree on the geometry.
    cluster::IndexParams index_params;
    /// The paper's `base` reward multiplier per round.
    double reward_base = 1.0;
    /// Hierarchical shard tree (fl/sharding.hpp): `shards > 1` splits the
    /// round into that many independent shard-level Algorithm 2 passes
    /// plus a root pass over the shard summaries
    /// (incentive/hierarchical.hpp), capping per-pass index memory at the
    /// shard size.  The default (1) keeps the flat single-pass pipeline
    /// bit-for-bit.
    fl::ShardingConfig sharding;
};

/// Per-client outcome of Algorithm 2.
struct ClientContribution {
    fl::NodeId client = 0;
    double theta = 0.0;     ///< cosine distance to the provisional global
    bool high = false;      ///< labelled high contribution
    double reward = 0.0;    ///< theta_i / sum theta_k * base (high only)
};

/// Round-level outcome.
struct ContributionReport {
    std::vector<ClientContribution> entries;  ///< one per update, same order
    std::vector<std::size_t> high_indices;    ///< indices into the update set
    std::vector<std::size_t> low_indices;
    int global_cluster = cluster::ClusterResult::kNoise;
    cluster::ClusterResult clustering;        ///< labels: updates then global
    /// Index backend that served this round (diagnostics / perf JSON).
    std::string index_backend;
    /// Peak GradientIndex::storage_bytes() of any single pass this round:
    /// the flat pipeline's one index, or -- under the shard tree -- the
    /// largest shard/root pass.  The per-process memory ceiling the
    /// hierarchy exists to cap (perf JSON `index_peak_bytes`).
    std::size_t index_peak_bytes = 0;

    // --- Shard-tree extras (incentive/hierarchical.hpp).  Flat rounds
    // leave them at their defaults.
    /// Number of shard-level passes (1 = flat pipeline).
    std::size_t shard_count = 1;
    /// Root-level settled global update: Eq. 1 over the shard summaries
    /// with the hierarchical weights already folded in.  When non-empty,
    /// apply_strategy returns it directly instead of re-running flat Eq. 1
    /// over individual updates.
    std::vector<float> settled_weights;

    /// Client ids labelled low contribution (the "drop index" of Table 2).
    [[nodiscard]] std::vector<fl::NodeId> low_clients() const;
    /// Sum of rewards issued this round (== base when any high exists).
    [[nodiscard]] double total_reward() const;
};

/// Runs Algorithm 2 against the provisional global update.
///
/// `reference` (optional) is the *previous* round's global weights w_r.
/// When supplied, clustering and theta operate on the round's effective
/// gradients w_i - w_r instead of the raw weight vectors.  This matters in
/// practice: every uploaded weight vector shares the large w_r component,
/// so cosine geometry on raw weights degenerates as training progresses,
/// while the deltas keep exactly the honest-vs-forged structure the paper's
/// clustering argument relies on.
///
/// A non-empty update set is validated first (check_contribution_inputs).
/// Wall time is in the "cluster.identify" and "cluster.index_build"
/// telemetry spans, not in the report.
///
/// `pool` carries the pass's fan-outs: the point fill, the index build,
/// the clustering's per-point queries (ClusteringAlgorithm::cluster_with)
/// and the theta rows.  The report is bit-identical for any pool size.
[[nodiscard]] ContributionReport identify_contributions(
    std::span<const fl::GradientUpdate> updates,
    std::span<const float> provisional_global,
    const ContributionConfig& config, std::span<const float> reference = {},
    support::ThreadPool& pool = support::ThreadPool::global());

/// Throws std::invalid_argument unless the updates share one width
/// (fl::check_updates) and the provisional global and a non-empty
/// reference have that width too -- checked before any index is built.
void check_contribution_inputs(std::span<const fl::GradientUpdate> updates,
                               std::span<const float> provisional_global,
                               std::span<const float> reference);

/// Below this theta sum the round's geometry is degenerate (every
/// surviving update coincides with the global) and Eq. 1 is undefined.
inline constexpr double kDegenerateThetaSum = 1e-12;

/// The strategy's surviving updates, as ascending indices into the update
/// set, paired with their theta weights -- the shared selection step of
/// apply_strategy and of a settlement by an explicitly configured combine
/// rule (core::FairBflConfig::aggregator).  Indices, not copies: the
/// caller combines from its own rows.
struct SurvivorSelection {
    std::vector<std::size_t> indices;
    std::vector<double> theta;  ///< theta[k] belongs to indices[k]
    double theta_sum = 0.0;

    /// True when theta carries no usable signal (see kDegenerateThetaSum).
    [[nodiscard]] bool degenerate() const noexcept {
        return theta_sum <= kDegenerateThetaSum;
    }
};

/// Applies the strategy to pick the surviving updates and collects their
/// theta scores, in update order: every index under kKeepAll, the
/// high-contribution ones under kDiscard (all of them when none is high).
[[nodiscard]] SurvivorSelection select_survivors(
    std::span<const fl::GradientUpdate> updates,
    const ContributionReport& report, LowContributionStrategy strategy);

/// Applies the configured strategy and Eq. 1:
///  * kKeepAll  -> fair-aggregate every update with theta weights;
///  * kDiscard  -> fair-aggregate the high-contribution updates only
///    (falls back to all updates if none were labelled high).
/// Degenerate theta (all ~0, e.g. every update identical) falls back to the
/// simple average.  The survivors combine from row views of `updates`,
/// so no payload is copied; an empty or ragged set throws
/// std::invalid_argument.  A report carrying a hierarchical settlement
/// (`settled_weights` non-empty) short-circuits to it: the shard tree has
/// already combined per level.
[[nodiscard]] std::vector<float> apply_strategy(
    std::span<const fl::GradientUpdate> updates,
    const ContributionReport& report, LowContributionStrategy strategy);

}  // namespace fairbfl::incentive
