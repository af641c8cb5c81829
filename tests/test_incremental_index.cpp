// Incremental cross-round GradientIndex maintenance (index update() +
// cluster/index_cache.hpp).
//
// The central pin: with every point flagged moved -- equivalently, an
// IndexCache with refresh_threshold == 0 -- update() must be bit-identical
// to a from-scratch rebuild over the new points, for both updatable
// backends.  The deterministic projection matrix / pivot copies make this
// an exact property, not a tolerance; a fixed-seed multi-round series
// through identify_contributions must therefore produce byte-equal
// reports with and without the cache.  The re-sketch-skipping path
// (nonzero threshold) is quality-pinned instead: recall >= 0.9 against
// exact geometry after several rounds of converging drift.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/index.hpp"
#include "cluster/index_cache.hpp"
#include "fl/aggregation.hpp"
#include "incentive/contribution.hpp"
#include "support/projection.hpp"
#include "support/rng.hpp"

namespace {

namespace cl = fairbfl::cluster;
namespace inc = fairbfl::incentive;
using fairbfl::support::Rng;

/// Same grouped-gradient geometry as test_gradient_index.cpp: tight
/// clusters with near-orthogonal directions in high dim.
std::vector<std::vector<float>> grouped_gradients(std::size_t groups,
                                                  std::size_t per_group,
                                                  std::size_t dim,
                                                  std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<float>> points;
    for (std::size_t g = 0; g < groups; ++g) {
        std::vector<float> direction(dim);
        for (auto& v : direction) v = static_cast<float>(rng.normal());
        for (std::size_t i = 0; i < per_group; ++i) {
            std::vector<float> p(dim);
            for (std::size_t d = 0; d < dim; ++d)
                p[d] = direction[d] +
                       static_cast<float>(0.05 * rng.normal());
            points.push_back(std::move(p));
        }
    }
    return points;
}

/// Drifts `scale * normal` noise onto the flagged points -- one round of
/// converging training as the index sees it.
std::vector<std::vector<float>> drifted(
    const std::vector<std::vector<float>>& points,
    const std::vector<std::uint8_t>& moved, double scale, Rng& rng) {
    std::vector<std::vector<float>> next = points;
    for (std::size_t i = 0; i < next.size(); ++i) {
        if (!moved[i]) continue;
        for (auto& v : next[i])
            v += static_cast<float>(scale * rng.normal());
    }
    return next;
}

void expect_same_distances(const cl::GradientIndex& got,
                           const cl::GradientIndex& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        for (std::size_t j = 0; j < got.size(); ++j)
            EXPECT_EQ(got.distance(i, j), want.distance(i, j))
                << i << "," << j;
}

TEST(RandomProjectionIndex, UpdateEqualsRebuildBitForBit) {
    // Engaged sketch: n = 60 > 2k = 24.  Four rounds of drift; each
    // round flags exactly the points that moved (a strict subset, then
    // everyone, then a non-contiguous set straddling every projection
    // chunk boundary), and the maintained index must equal a fresh build
    // over the current points -- same projection seed, same arithmetic.
    constexpr std::size_t kChunk = fairbfl::support::kProjectChunk;
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    params.projection_dims = 12;
    auto points = grouped_gradients(6, 10, 256, 31);
    ASSERT_GT(points.size(), 2 * kChunk);
    cl::RandomProjectionIndex maintained(points, params);
    ASSERT_TRUE(maintained.supports_update());

    Rng rng(32);
    for (std::size_t round = 0; round < 4; ++round) {
        std::vector<std::uint8_t> moved(points.size(), 0);
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (round < 3) {
                moved[i] = round == 2 || i % 3 == round ? 1 : 0;
            } else {
                // Both sides of every chunk boundary, plus a stride.
                const std::size_t phase = i % kChunk;
                moved[i] = phase == 0 || phase == kChunk - 1 || i % 7 == 3;
            }
        }
        if (round == 3) {
            // More movers than two chunks, ending in a partial chunk.
            const auto movers = static_cast<std::size_t>(
                std::count(moved.begin(), moved.end(), 1));
            ASSERT_GT(movers, 2 * kChunk);
            ASSERT_NE(movers % kChunk, 0U);
        }
        points = drifted(points, moved, 0.02, rng);
        ASSERT_TRUE(maintained.update(points, moved));
        const cl::RandomProjectionIndex rebuilt(points, params);
        expect_same_distances(maintained, rebuilt);
        // The banded queries read the re-sorted norm order; pin them too.
        for (std::size_t i = 0; i < points.size(); i += 7) {
            EXPECT_EQ(maintained.kth_distance(i, 5), rebuilt.kth_distance(i, 5));
            EXPECT_EQ(maintained.neighbors_within(i, 1.5),
                      rebuilt.neighbors_within(i, 1.5));
        }
    }
}

TEST(SampledIndex, UpdateEqualsRebuildBitForBitIncludingMovedPivots) {
    // Engaged profiles: n = 60 > m = 12.  The drift deliberately hits
    // pivot points (i % 2) so the moved-pivot column refresh is exercised:
    // a moved pivot changes *everyone's* signature coordinate.
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    params.pivots = 12;
    auto points = grouped_gradients(6, 10, 128, 41);
    cl::SampledIndex maintained(points, params);
    ASSERT_EQ(maintained.pivot_count(), 12U);
    ASSERT_TRUE(maintained.supports_update());

    Rng rng(42);
    for (std::size_t round = 0; round < 3; ++round) {
        std::vector<std::uint8_t> moved(points.size(), 0);
        for (std::size_t i = 0; i < points.size(); ++i)
            moved[i] = round == 2 || i % 2 == round % 2 ? 1 : 0;
        points = drifted(points, moved, 0.02, rng);
        ASSERT_TRUE(maintained.update(points, moved));
        const cl::SampledIndex rebuilt(points, params);
        expect_same_distances(maintained, rebuilt);
    }
}

TEST(GradientIndexUpdate, RejectsIncompatibleShapesAndFallbacks) {
    const auto points = grouped_gradients(2, 5, 32, 51);  // n = 10: fallback
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    cl::RandomProjectionIndex fallback(points, params);
    ASSERT_TRUE(fallback.exact());
    EXPECT_FALSE(fallback.supports_update());
    const std::vector<std::uint8_t> moved(points.size(), 1);
    EXPECT_FALSE(fallback.update(points, moved));

    params.projection_dims = 4;  // engaged: n = 10 > 2k = 8
    cl::RandomProjectionIndex engaged(points, params);
    ASSERT_TRUE(engaged.supports_update());
    auto fewer = points;
    fewer.pop_back();
    EXPECT_FALSE(engaged.update(fewer, moved));  // cardinality changed
    auto narrower = points;
    for (auto& p : narrower) p.resize(16);
    EXPECT_FALSE(engaged.update(narrower, moved));  // dimensionality changed
}

TEST(IndexCache, ZeroThresholdSeriesMatchesUncachedRebuilds) {
    // The cache's own equivalence: acquire/release across rounds with
    // refresh_threshold = 0 re-sketches everything, so every acquired
    // index must answer exactly like an uncached registry build.
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    params.projection_dims = 12;
    params.refresh_threshold = 0.0;
    cl::IndexCache cache;
    auto points = grouped_gradients(6, 10, 256, 61);
    Rng rng(62);
    for (std::size_t round = 0; round < 4; ++round) {
        auto acquired =
            cache.acquire(0, "random_projection", points, params);
        const auto fresh = cl::IndexRegistry::global().build(
            "random_projection", points, params);
        expect_same_distances(*acquired, *fresh);
        cache.release(0, "random_projection", points, params,
                      std::move(acquired));
        points = drifted(points, std::vector<std::uint8_t>(points.size(), 1),
                         0.02, rng);
    }
}

TEST(IndexCache, SlotsAreIsolatedAndExactBackendsNeverCached) {
    const auto points_a = grouped_gradients(4, 8, 128, 71);
    const auto points_b = grouped_gradients(4, 8, 128, 72);
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    params.projection_dims = 8;
    params.refresh_threshold = 0.0;
    cl::IndexCache cache;
    // Different slots hold different point sets without interfering.
    auto a = cache.acquire(0, "random_projection", points_a, params);
    auto b = cache.acquire(1, "random_projection", points_b, params);
    EXPECT_NE(a->distance(0, 1), b->distance(0, 1));
    cache.release(0, "random_projection", points_a, params, std::move(a));
    cache.release(1, "random_projection", points_b, params, std::move(b));
    auto a2 = cache.acquire(0, "random_projection", points_a, params);
    const auto fresh_a = cl::IndexRegistry::global().build(
        "random_projection", points_a, params);
    expect_same_distances(*a2, *fresh_a);

    // An exact backend is dropped on release (rebuilding it is the pinned
    // behavior) -- the next acquire still serves a valid exact index.
    auto exact = cache.acquire(2, "exact", points_a, params);
    ASSERT_TRUE(exact->exact());
    EXPECT_FALSE(exact->supports_update());
    cache.release(2, "exact", points_a, params, std::move(exact));
    auto exact2 = cache.acquire(2, "exact", points_a, params);
    EXPECT_TRUE(exact2->exact());
}

TEST(IndexCache, NonzeroThresholdKeepsRecallOnConvergingDrift) {
    // The work-skipping path: with the default threshold most points'
    // small converging drift is ignored (their sketches go slightly
    // stale), yet neighbour recall against exact geometry must stay
    // >= 0.9 after several rounds -- staleness bounded by the threshold
    // cannot scramble well-separated groups.
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    params.projection_dims = 16;
    params.refresh_threshold = 0.05;
    cl::IndexCache cache;
    auto points = grouped_gradients(10, 8, 512, 81);
    Rng rng(82);
    std::unique_ptr<cl::GradientIndex> index;
    for (std::size_t round = 0; round < 4; ++round) {
        index = cache.acquire(0, "random_projection", points, params);
        cache.release(0, "random_projection", points, params,
                      std::move(index));
        // Sub-threshold drift for most points, a few larger movers.
        std::vector<std::uint8_t> all(points.size(), 1);
        points = drifted(points, all, 0.005, rng);
        for (std::size_t i = 0; i < points.size(); i += 11)
            for (auto& v : points[i]) v += static_cast<float>(0.1 * rng.normal());
    }
    index = cache.acquire(0, "random_projection", points, params);
    const cl::ExactIndex exact(cl::Metric::kEuclidean, points);
    const std::size_t k_nn = 7;
    double hits = 0.0;
    auto knn = [&](const cl::GradientIndex& idx, std::size_t i) {
        std::vector<std::size_t> order;
        for (std::size_t j = 0; j < idx.size(); ++j)
            if (j != i) order.push_back(j);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return idx.distance(i, a) < idx.distance(i, b);
                  });
        order.resize(k_nn);
        std::sort(order.begin(), order.end());
        return order;
    };
    for (std::size_t i = 0; i < exact.size(); ++i) {
        const auto truth = knn(exact, i);
        const auto found = knn(*index, i);
        std::vector<std::size_t> common;
        std::set_intersection(truth.begin(), truth.end(), found.begin(),
                              found.end(), std::back_inserter(common));
        hits += static_cast<double>(common.size());
    }
    EXPECT_GE(hits / static_cast<double>(exact.size() * k_nn), 0.9);
}

TEST(IdentifyContributions, CachedSeriesBitIdenticalAtZeroThreshold) {
    // End-to-end through Algorithm 2: a fixed-seed multi-round series with
    // the cache installed (threshold 0) must reproduce the uncached series
    // byte for byte -- labels, theta, rewards, backend, peak bytes.
    const std::size_t clients = 50;
    const std::size_t dim = 192;
    Rng rng(91);
    std::vector<fairbfl::fl::GradientUpdate> updates(clients);
    for (std::size_t i = 0; i < clients; ++i) {
        updates[i].client = static_cast<fairbfl::fl::NodeId>(i);
        updates[i].weights.resize(dim);
        for (auto& w : updates[i].weights)
            w = static_cast<float>(rng.normal());
    }

    inc::ContributionConfig cached;
    cached.index = "random_projection";
    cached.index_params.projection_dims = 12;  // engaged: 51 > 24
    cached.index_params.refresh_threshold = 0.0;
    inc::ContributionConfig uncached = cached;
    cached.index_cache = std::make_shared<cl::IndexCache>();
    ASSERT_EQ(uncached.index_cache, nullptr);

    for (std::size_t round = 0; round < 4; ++round) {
        const auto provisional = fairbfl::fl::simple_average(updates);
        const auto with_cache =
            inc::identify_contributions(updates, provisional, cached);
        const auto without =
            inc::identify_contributions(updates, provisional, uncached);
        EXPECT_EQ(with_cache.clustering.labels, without.clustering.labels);
        EXPECT_EQ(with_cache.global_cluster, without.global_cluster);
        EXPECT_EQ(with_cache.high_indices, without.high_indices);
        EXPECT_EQ(with_cache.index_backend, without.index_backend);
        EXPECT_EQ(with_cache.index_peak_bytes, without.index_peak_bytes);
        ASSERT_EQ(with_cache.entries.size(), without.entries.size());
        for (std::size_t i = 0; i < with_cache.entries.size(); ++i) {
            EXPECT_EQ(with_cache.entries[i].theta, without.entries[i].theta);
            EXPECT_EQ(with_cache.entries[i].reward,
                      without.entries[i].reward);
            EXPECT_EQ(with_cache.entries[i].high, without.entries[i].high);
        }
        // Next round: every client drifts a little.
        for (auto& update : updates)
            for (auto& w : update.weights)
                w += static_cast<float>(0.02 * rng.normal());
    }
}

TEST(SampledIndex, FallbackReportsExactRowsForThetaReadback) {
    // The break-even bugfix: a fallback holding the dense matrix must say
    // so, so the theta read-back reuses the rows it already paid for.
    const auto points = grouped_gradients(2, 4, 32, 95);  // n = 8 <= m
    cl::IndexParams params;
    params.metric = cl::Metric::kCosine;
    const cl::SampledIndex sampled(points, params);
    ASSERT_EQ(sampled.pivot_count(), 0U);
    EXPECT_TRUE(sampled.exact());
    EXPECT_TRUE(sampled.precomputed_rows());
    const cl::RandomProjectionIndex projected(points, params);  // n <= 2k
    EXPECT_TRUE(projected.exact());
    EXPECT_TRUE(projected.precomputed_rows());
    // distances_from on the fallback serves the exact dense row.
    const cl::ExactIndex exact(cl::Metric::kCosine, points);
    std::vector<double> row(points.size());
    std::vector<double> truth(points.size());
    sampled.distances_from(3, row);
    exact.distances_from(3, truth);
    EXPECT_EQ(row, truth);
    projected.distances_from(3, row);
    EXPECT_EQ(row, truth);
}

}  // namespace
