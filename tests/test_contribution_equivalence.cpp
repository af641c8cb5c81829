// Fixed-seed equivalence pins for Algorithm 2's shared geometry.
//
// The expected labels / theta / rewards below were captured from an
// implementation in which each stage computed its own distances, on a
// fixed-seed synthetic round.  The pipeline -- one GradientIndex per pass
// shared by suggest_eps, the clustering scan and the nearest-cluster
// fallback, with the theta scores from the exact fused cosine kernel --
// must reproduce them: labels exactly, scores to EXPECT_DOUBLE_EQ (theta
// arithmetic is bit-preserved by construction; the tolerance only absorbs
// cross-compiler FP-contraction differences).

#include <gtest/gtest.h>

#include "incentive/contribution.hpp"
#include "incentive/hierarchical.hpp"
#include "support/rng.hpp"
#include "support/vecmath.hpp"

namespace {

namespace inc = fairbfl::incentive;
namespace cl = fairbfl::cluster;
namespace fl = fairbfl::fl;
namespace vm = fairbfl::support;
using fairbfl::support::Rng;

/// Two honest blobs plus two outliers -- the generator the fixtures were
/// captured with.  Do not change without re-capturing the expectations.
std::vector<fl::GradientUpdate> synth_updates(std::size_t n, std::size_t dim,
                                              std::uint64_t seed) {
    Rng rng(seed);
    std::vector<fl::GradientUpdate> updates(n);
    for (std::size_t i = 0; i < n; ++i) {
        updates[i].client = static_cast<fl::NodeId>(i);
        updates[i].num_samples = 10 + i;
        updates[i].weights.resize(dim);
        const bool outlier = i + 2 >= n;
        for (std::size_t d = 0; d < dim; ++d) {
            const double base = outlier ? 5.0 * (d % 2 ? -1.0 : 1.0)
                                        : 0.1 * static_cast<double>(d % 7);
            updates[i].weights[d] =
                static_cast<float>(base + 0.05 * rng.normal());
        }
    }
    return updates;
}

struct Fixture {
    std::vector<fl::GradientUpdate> updates;
    std::vector<float> global;
    std::vector<float> reference;
};

Fixture make_fixture() {
    Fixture f;
    f.updates = synth_updates(10, 16, 1234);
    f.global.assign(16, 0.0F);
    for (const auto& u : f.updates)
        for (std::size_t d = 0; d < 16; ++d)
            f.global[d] += u.weights[d] / 10.0F;
    f.reference.assign(16, 0.01F);
    return f;
}

const std::vector<double> kExpectedTheta{
    0x1.5c92e1025b6a2p-1, 0x1.6deba89402f4ap-1, 0x1.956cd226546d7p-1,
    0x1.6e4ff7416c15p-1,  0x1.88c0f9ac3a592p-1, 0x1.9c596c4e7eb21p-1,
    0x1.937313f09a0cep-1, 0x1.84ccc6062a99fp-1, 0x1.1b72c4ed1608p-5,
    0x1.2545cc55cac4p-5};

const std::vector<double> kExpectedReward{
    0x1.cf04dc420b47bp-4, 0x1.e60fa7e961227p-4, 0x1.0d449b95f4edbp-3,
    0x1.e694e586013abp-4, 0x1.04da2b11b394ep-3, 0x1.11dde72e607e1p-3,
    0x1.0bf4b65f04b62p-3, 0x1.0239e6f23b76bp-3, 0.0,
    0.0};

void expect_pinned_scores(const inc::ContributionReport& report) {
    ASSERT_EQ(report.entries.size(), 10U);
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_DOUBLE_EQ(report.entries[i].theta, kExpectedTheta[i]) << i;
        EXPECT_DOUBLE_EQ(report.entries[i].reward, kExpectedReward[i]) << i;
        EXPECT_EQ(report.entries[i].high, i < 8) << i;
    }
}

TEST(ContributionEquivalence, DefaultEuclideanConfigMatchesPreRefactor) {
    const Fixture f = make_fixture();
    const auto report = inc::identify_contributions(
        f.updates, f.global, inc::ContributionConfig{}, f.reference);
    EXPECT_EQ(report.global_cluster, 0);
    EXPECT_EQ(report.clustering.num_clusters, 1);
    const std::vector<int> expected_labels{0, 0, 0, 0, 0, 0, 0, 0, -1, -1,
                                           -1};
    EXPECT_EQ(report.clustering.labels, expected_labels);
    expect_pinned_scores(report);
    // The default config routes through the "exact" GradientIndex backend.
    EXPECT_EQ(report.index_backend, "exact");
}

// Selecting the exact backend by key must be the identity refactor: same
// labels, same bit-pinned theta/reward series as the pre-GradientIndex
// pipeline (the dense matrix wrapped, not reimplemented).
TEST(ContributionEquivalence, ExplicitExactIndexKeyMatchesPreRefactor) {
    const Fixture f = make_fixture();
    for (const auto metric : {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
        inc::ContributionConfig config;
        config.index = "exact";
        config.dbscan.metric = metric;
        const auto report = inc::identify_contributions(f.updates, f.global,
                                                        config, f.reference);
        EXPECT_EQ(report.global_cluster, 0);
        expect_pinned_scores(report);
    }
}

// The sketch backend falls back to the dense matrix below its cost
// break-even (11 points here), so on this fixture the whole report --
// clusters, membership, theta, rewards -- is the exact one.
TEST(ContributionEquivalence, ApproximateBackendsMatchOnSmallRounds) {
    const Fixture f = make_fixture();
    inc::ContributionConfig config;
    config.index = "random_projection";
    const auto report =
        inc::identify_contributions(f.updates, f.global, config, f.reference);
    EXPECT_EQ(report.index_backend, "random_projection");
    EXPECT_EQ(report.global_cluster, 0);
    EXPECT_EQ(report.clustering.num_clusters, 1);
    expect_pinned_scores(report);
}

TEST(ContributionEquivalence, CosineConfigMatchesPreRefactor) {
    const Fixture f = make_fixture();
    inc::ContributionConfig config;
    config.dbscan.metric = cl::Metric::kCosine;
    const auto report =
        inc::identify_contributions(f.updates, f.global, config, f.reference);
    EXPECT_EQ(report.global_cluster, 0);
    EXPECT_EQ(report.clustering.num_clusters, 2);
    const std::vector<int> expected_labels{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1};
    EXPECT_EQ(report.clustering.labels, expected_labels);
    expect_pinned_scores(report);
}

// The stronger compiler-independent invariant: theta must be bit-identical
// to computing cosine_distance directly on the effective gradients under
// every clustering algorithm, index backend, metric and shard fan-out.
// Theta feeds rewards, so it never comes from an index -- approximate
// backends included (they are comparison-only); every path computes it
// with the exact kernel.  At shards = 2 each shard pass scores its own
// clients against the same provisional global, so the values match too.
TEST(ContributionEquivalence, ThetaBitIdenticalToDirectCosine) {
    const Fixture f = make_fixture();
    std::vector<std::vector<float>> deltas;
    for (const auto& u : f.updates) {
        std::vector<float> d(u.weights.begin(), u.weights.end());
        for (std::size_t j = 0; j < d.size(); ++j) d[j] -= f.reference[j];
        deltas.push_back(std::move(d));
    }
    std::vector<float> global_delta(f.global.begin(), f.global.end());
    for (std::size_t j = 0; j < global_delta.size(); ++j)
        global_delta[j] -= f.reference[j];

    for (const char* clustering : {"dbscan", "kmeans"}) {
        for (const char* backend :
             {"auto", "exact", "lazy", "random_projection"}) {
            for (const auto metric :
                 {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
                for (const std::size_t shards : {1U, 2U}) {
                    inc::ContributionConfig config;
                    config.clustering = clustering;
                    config.index = backend;
                    config.dbscan.metric = metric;
                    config.kmeans.metric = metric;
                    config.sharding = {.shards = shards,
                                       .min_shard_clients = 4};
                    const auto report =
                        inc::identify_contributions_hierarchical(
                            f.updates, f.global, config, f.reference);
                    ASSERT_EQ(report.shard_count, shards);
                    ASSERT_EQ(report.entries.size(), deltas.size());
                    for (std::size_t i = 0; i < deltas.size(); ++i) {
                        EXPECT_EQ(report.entries[i].theta,
                                  vm::cosine_distance(deltas[i], global_delta))
                            << clustering << " index=" << backend
                            << " metric=" << static_cast<int>(metric)
                            << " shards=" << shards << " i=" << i;
                    }
                }
            }
        }
    }
}

// Regression for the nearest-cluster fallback hardcoding cosine distance:
// when the provisional global lands in DBSCAN noise, the fallback must use
// the *configured* metric.  Geometry where the two metrics disagree:
// cluster A sits near the origin pointing +x, cluster B sits at (4, 3),
// and the global at (5, 0) -- cosine-nearest to A (same direction),
// Euclidean-nearest to B.
TEST(ContributionEquivalence, NoiseFallbackUsesConfiguredMetric) {
    const auto make_update = [](fl::NodeId id, float x, float y) {
        fl::GradientUpdate u;
        u.client = id;
        u.weights = {x, y};
        return u;
    };
    std::vector<fl::GradientUpdate> updates;
    updates.push_back(make_update(0, 0.010F, 0.000F));
    updates.push_back(make_update(1, 0.011F, 0.001F));
    updates.push_back(make_update(2, 0.009F, -0.001F));
    updates.push_back(make_update(3, 4.00F, 3.00F));
    updates.push_back(make_update(4, 4.01F, 3.01F));
    updates.push_back(make_update(5, 3.99F, 2.99F));
    const std::vector<float> global{5.0F, 0.0F};

    inc::ContributionConfig config;
    config.dbscan.adaptive_eps = false;
    config.dbscan.eps = 0.5;
    config.dbscan.min_pts = 3;

    config.dbscan.metric = cl::Metric::kEuclidean;
    const auto euclid =
        inc::identify_contributions(updates, global, config);
    ASSERT_EQ(euclid.clustering.num_clusters, 2);
    ASSERT_EQ(euclid.clustering.labels[updates.size()],
              cl::ClusterResult::kNoise);
    // Euclidean fallback picks B (label of updates 3-5); the old
    // hardcoded-cosine fallback picked A.
    EXPECT_EQ(euclid.global_cluster, euclid.clustering.labels[3]);
}

}  // namespace
