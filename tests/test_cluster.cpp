// Clustering: distances and the exact index's matrix, DBSCAN
// separation/noise behaviour, k-means, the adaptive-eps heuristic,
// cluster_with's contract (the index's metric and point count rule), and
// the clustering registry.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "cluster/dbscan.hpp"
#include "cluster/index.hpp"
#include "cluster/kmeans.hpp"
#include "cluster/registry.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/vecmath.hpp"

namespace {

namespace cl = fairbfl::cluster;
using fairbfl::support::Rng;
using fairbfl::support::ThreadPool;

/// Two well-separated Gaussian blobs in 2D plus optional far outliers.
std::vector<std::vector<float>> two_blobs(std::size_t per_blob,
                                          std::size_t outliers,
                                          std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<float>> points;
    for (std::size_t i = 0; i < per_blob; ++i) {
        points.push_back({static_cast<float>(1.0 + 0.05 * rng.normal()),
                          static_cast<float>(0.0 + 0.05 * rng.normal())});
    }
    for (std::size_t i = 0; i < per_blob; ++i) {
        points.push_back({static_cast<float>(0.0 + 0.05 * rng.normal()),
                          static_cast<float>(1.0 + 0.05 * rng.normal())});
    }
    for (std::size_t i = 0; i < outliers; ++i) {
        points.push_back({static_cast<float>(-8.0 - rng.uniform()),
                          static_cast<float>(-8.0 - rng.uniform())});
    }
    return points;
}

/// Clusters `points` the way Algorithm 2 does: over an index the
/// IndexRegistry builds in the algorithm's preferred backend and metric.
cl::ClusterResult cluster(const cl::ClusteringAlgorithm& algorithm,
                          std::span<const std::vector<float>> points) {
    cl::IndexParams params;
    params.metric = algorithm.preferred_metric();
    const auto index = cl::IndexRegistry::global().build(
        algorithm.preferred_index(), points, params);
    return algorithm.cluster_with(*index, points, ThreadPool::global());
}

TEST(Distance, MatrixIsSymmetricZeroDiagonal) {
    const auto points = two_blobs(5, 0, 1);
    const cl::ExactIndex m(cl::Metric::kEuclidean, points);
    ASSERT_EQ(m.size(), 10U);
    for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_DOUBLE_EQ(m.distance(i, i), 0.0);
        for (std::size_t j = 0; j < m.size(); ++j)
            EXPECT_DOUBLE_EQ(m.distance(i, j), m.distance(j, i));
    }
}

TEST(Distance, MetricsDisagreeOnScaledVectors) {
    const std::vector<float> a{1.0F, 0.0F};
    const std::vector<float> b{10.0F, 0.0F};
    EXPECT_NEAR(cl::distance(cl::Metric::kCosine, a, b), 0.0, 1e-9);
    EXPECT_NEAR(cl::distance(cl::Metric::kEuclidean, a, b), 9.0, 1e-9);
}

TEST(Dbscan, SeparatesTwoBlobs) {
    const auto points = two_blobs(20, 0, 2);
    const cl::Dbscan dbscan(
        {.eps = 0.3, .min_pts = 3, .metric = cl::Metric::kEuclidean});
    const auto result = cluster(dbscan, points);
    EXPECT_EQ(result.num_clusters, 2);
    // Points within a blob share a label; across blobs they differ.
    EXPECT_TRUE(result.same_cluster(0, 1));
    EXPECT_TRUE(result.same_cluster(20, 21));
    EXPECT_FALSE(result.same_cluster(0, 20));
}

TEST(Dbscan, FlagsOutliersAsNoise) {
    const auto points = two_blobs(20, 3, 3);
    const cl::Dbscan dbscan(
        {.eps = 0.3, .min_pts = 3, .metric = cl::Metric::kEuclidean});
    const auto result = cluster(dbscan, points);
    for (std::size_t i = 40; i < 43; ++i)
        EXPECT_EQ(result.labels[i], cl::ClusterResult::kNoise) << i;
}

TEST(Dbscan, EverythingNoiseWhenEpsTiny) {
    const auto points = two_blobs(10, 0, 4);
    const cl::Dbscan dbscan(
        {.eps = 1e-9, .min_pts = 3, .metric = cl::Metric::kEuclidean});
    const auto result = cluster(dbscan, points);
    EXPECT_EQ(result.num_clusters, 0);
    for (const int label : result.labels)
        EXPECT_EQ(label, cl::ClusterResult::kNoise);
}

TEST(Dbscan, OneClusterWhenEpsHuge) {
    const auto points = two_blobs(10, 2, 5);
    const cl::Dbscan dbscan(
        {.eps = 100.0, .min_pts = 3, .metric = cl::Metric::kEuclidean});
    const auto result = cluster(dbscan, points);
    EXPECT_EQ(result.num_clusters, 1);
    EXPECT_EQ(result.members_of(0).size(), points.size());
}

TEST(Dbscan, EmptyInput) {
    const cl::Dbscan dbscan;
    const auto result = cluster(dbscan, {});
    EXPECT_EQ(result.num_clusters, 0);
    EXPECT_TRUE(result.labels.empty());
}

TEST(Dbscan, CosineMetricGroupsByDirection) {
    // Same direction, very different magnitudes -> one cluster under cosine.
    std::vector<std::vector<float>> points;
    Rng rng(6);
    for (int i = 0; i < 10; ++i) {
        const auto scale = static_cast<float>(1.0 + 10.0 * rng.uniform());
        points.push_back({scale * 1.0F,
                          scale * (0.5F + 0.01F * static_cast<float>(
                                                      rng.normal()))});
    }
    for (int i = 0; i < 10; ++i) {
        const auto scale = static_cast<float>(1.0 + 10.0 * rng.uniform());
        points.push_back({-scale * 1.0F,
                          scale * (0.5F + 0.01F * static_cast<float>(
                                                      rng.normal()))});
    }
    const cl::Dbscan dbscan(
        {.eps = 0.05, .min_pts = 3, .metric = cl::Metric::kCosine});
    const auto result = cluster(dbscan, points);
    EXPECT_EQ(result.num_clusters, 2);
    EXPECT_TRUE(result.same_cluster(0, 5));
    EXPECT_FALSE(result.same_cluster(0, 15));
}

TEST(Dbscan, SuggestEpsSeparatesBlobGapsFromNeighbours) {
    const auto points = two_blobs(20, 0, 7);
    const cl::ExactIndex index(cl::Metric::kEuclidean, points);
    const double eps = cl::suggest_eps(index, 3);
    // Within-blob spacing ~0.05-0.2; across blobs ~1.4.
    EXPECT_GT(eps, 0.005);
    EXPECT_LT(eps, 1.0);
}

TEST(KMeans, SeparatesTwoBlobsEuclidean) {
    const auto points = two_blobs(20, 0, 8);
    const cl::KMeans kmeans({.k = 2,
                             .max_iterations = 50,
                             .metric = cl::Metric::kEuclidean,
                             .seed = 1});
    const auto result = cluster(kmeans, points);
    EXPECT_EQ(result.num_clusters, 2);
    EXPECT_TRUE(result.same_cluster(0, 1));
    EXPECT_TRUE(result.same_cluster(20, 25));
    EXPECT_FALSE(result.same_cluster(0, 20));
}

TEST(KMeans, NeverProducesNoise) {
    const auto points = two_blobs(15, 5, 9);
    const cl::KMeans kmeans({.k = 3, .metric = cl::Metric::kEuclidean});
    const auto result = cluster(kmeans, points);
    for (const int label : result.labels) {
        EXPECT_GE(label, 0);
        EXPECT_LT(label, result.num_clusters);
    }
}

TEST(KMeans, ClampsKToPointCount) {
    const auto points = two_blobs(2, 0, 10);  // 4 points
    const cl::KMeans kmeans({.k = 10, .metric = cl::Metric::kEuclidean});
    const auto result = cluster(kmeans, points);
    EXPECT_LE(result.num_clusters, 4);
}

TEST(KMeans, DeterministicInSeed) {
    const auto points = two_blobs(20, 0, 11);
    const cl::KMeans a({.k = 2, .metric = cl::Metric::kEuclidean, .seed = 5});
    const cl::KMeans b({.k = 2, .metric = cl::Metric::kEuclidean, .seed = 5});
    EXPECT_EQ(cluster(a, points).labels, cluster(b, points).labels);
}

TEST(Distance, ParallelBuildBitIdenticalToSerial) {
    // The matrix fans rows out across the pool; every entry must be
    // identical under any thread count.
    const auto points = two_blobs(25, 3, 12);  // 53 points, 2 dims
    fairbfl::support::ThreadPool serial(1);
    fairbfl::support::ThreadPool parallel(4);
    for (const auto metric : {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
        const cl::ExactIndex a(metric, points, serial);
        const cl::ExactIndex b(metric, points, parallel);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            for (std::size_t j = 0; j < a.size(); ++j)
                ASSERT_EQ(a.distance(i, j), b.distance(i, j))
                    << i << "," << j;
    }
}

TEST(Distance, TileBuildBitIdenticalToPairKernelAtRealShapes) {
    // The Euclidean build walks row triples against four columns at a time
    // (the 3x4 tile) and finishes the pairs inside each triple, the column
    // tail and a last short triple pair by pair.  At the model's width
    // (7850) and at widths with a 1- and a 3-element tail, every entry
    // must be bitwise the single-pair kernel's, on one worker and on four.
    // n = 33, 34, 35 end on a full triple, a lone row and a pair; n = 2-5
    // and 7 have no tile, one tile and a tile plus tails, and across the
    // triples of n = 33-35 the column tail takes every length 0-3.
    fairbfl::support::ThreadPool serial(1);
    fairbfl::support::ThreadPool parallel(4);
    Rng rng(20);
    for (const std::size_t dim : {7850UL, 4UL * 25 + 1, 4UL * 25 + 3}) {
        for (const std::size_t n :
             {2UL, 3UL, 4UL, 5UL, 7UL, 33UL, 34UL, 35UL}) {
            std::vector<std::vector<float>> points(n);
            for (auto& p : points) {
                p.resize(dim);
                for (auto& v : p) v = static_cast<float>(rng.normal());
            }
            for (auto* pool : {&serial, &parallel}) {
                const cl::ExactIndex m(cl::Metric::kEuclidean, points,
                                       *pool);
                for (std::size_t i = 0; i < n; ++i) {
                    for (std::size_t j = 0; j < n; ++j) {
                        if (i == j) continue;
                        const double want = std::sqrt(
                            fairbfl::support::squared_distance_blocked(
                                points[i], points[j]));
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(
                                      m.distance(i, j)),
                                  std::bit_cast<std::uint64_t>(want))
                            << "dim=" << dim << " n=" << n
                            << " threads=" << pool->size() << " (" << i
                            << "," << j << ")";
                    }
                }
            }
        }
    }
}

TEST(Distance, RaggedWidthsAreRejectedBeforeTheBuild) {
    // Every backend reads both points of a pair at one width, so a
    // narrower or a wider point must be rejected with a typed error, not
    // read past its end: through each index constructor and through the
    // registry, which reach them without Algorithm 2's width check.  The
    // odd point is a fresh vector, so a read past its end is a read past
    // its allocation, where ASan sees it.
    for (const std::size_t odd_width : {3UL, 17UL}) {
        std::vector<std::vector<float>> points(9,
                                               std::vector<float>(16, 1.0F));
        points[4] = std::vector<float>(odd_width, 2.0F);
        for (const auto metric :
             {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
            const cl::IndexParams params{.metric = metric};
            EXPECT_THROW(cl::ExactIndex(metric, points), std::invalid_argument)
                << odd_width;
            EXPECT_THROW(cl::LazyIndex(metric, points), std::invalid_argument)
                << odd_width;
            // Below its break-even the sketch index is the dense matrix.
            EXPECT_THROW(cl::RandomProjectionIndex(points, params),
                         std::invalid_argument)
                << odd_width;
            for (const auto& key : cl::IndexRegistry::global().names()) {
                EXPECT_THROW((void)cl::IndexRegistry::global().build(
                                 key, points, params),
                             std::invalid_argument)
                    << key << " " << odd_width;
            }
        }
    }
    // Engaged (122 points > 2 x 48 sketch dims, width 96 > 48), the sketch
    // reads every point at the first's width too: a narrower point would
    // be read past its end and a wider one silently truncated.
    for (const std::size_t odd_width : {95UL, 97UL}) {
        std::vector<std::vector<float>> points(122,
                                               std::vector<float>(96, 1.0F));
        points[50] = std::vector<float>(odd_width, 2.0F);
        EXPECT_THROW(cl::RandomProjectionIndex(
                         points,
                         cl::IndexParams{.metric = cl::Metric::kEuclidean}),
                     std::invalid_argument)
            << odd_width;
    }
}

TEST(Distance, CosineMatrixCachesNorms) {
    // The cosine build caches one norm per point beside the n x n table;
    // the Euclidean build keeps none.
    const auto points = two_blobs(4, 0, 13);
    const std::size_t n = points.size();
    const cl::ExactIndex cosine(cl::Metric::kCosine, points);
    EXPECT_EQ(cosine.storage_bytes(), (n * n + n) * sizeof(double));
    const cl::ExactIndex euclid(cl::Metric::kEuclidean, points);
    EXPECT_EQ(euclid.storage_bytes(), n * n * sizeof(double));
    // Cached-norm entries must match the plain pairwise kernel exactly.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            if (i != j)
                EXPECT_EQ(cosine.distance(i, j),
                          cl::distance(cl::Metric::kCosine, points[i],
                                       points[j]));
}

TEST(Dbscan, SuggestEpsTooFewPointsReturnsZero) {
    // No k-distance sample exists at n <= min_pts: the heuristic must not
    // invent a radius (the old 0.1 fallback clustered tiny rounds on an
    // arbitrary eps).
    const auto points = two_blobs(1, 1, 19);  // 3 points
    const cl::ExactIndex index(cl::Metric::kEuclidean, points);
    EXPECT_EQ(cl::suggest_eps(index, 3), 0.0);
    const cl::ExactIndex empty(cl::Metric::kEuclidean, {});
    EXPECT_EQ(cl::suggest_eps(empty, 3), 0.0);
}

TEST(Dbscan, SinglePointIsNoise) {
    const std::vector<std::vector<float>> points{{1.0F, 2.0F}};
    const cl::Dbscan dbscan(
        {.eps = 0.5, .min_pts = 3, .metric = cl::Metric::kEuclidean});
    const auto result = cluster(dbscan, points);
    EXPECT_EQ(result.num_clusters, 0);
    ASSERT_EQ(result.labels.size(), 1U);
    EXPECT_EQ(result.labels[0], cl::ClusterResult::kNoise);
}

TEST(Dbscan, FewerPointsThanMinPtsAllNoise) {
    const auto points = two_blobs(1, 0, 20);  // 2 points < min_pts
    const cl::Dbscan dbscan(
        {.eps = 100.0, .min_pts = 3, .metric = cl::Metric::kEuclidean});
    const auto result = cluster(dbscan, points);
    EXPECT_EQ(result.num_clusters, 0);
    for (const int label : result.labels)
        EXPECT_EQ(label, cl::ClusterResult::kNoise);
}

TEST(KMeans, PrebuiltIndexSeedingSeparatesBlobsDeterministically) {
    // Seeding over the dense exact index (the blocked Euclidean kernel)
    // must recover the blobs, and the same index must give the same
    // labels twice.
    const auto points = two_blobs(20, 0, 17);
    const cl::KMeans kmeans({.k = 2,
                             .max_iterations = 50,
                             .metric = cl::Metric::kEuclidean,
                             .seed = 5});
    const cl::ExactIndex index(cl::Metric::kEuclidean, points);
    const auto result =
        kmeans.cluster_with(index, points, ThreadPool::global());
    EXPECT_EQ(result.num_clusters, 2);
    EXPECT_TRUE(result.same_cluster(0, 1));
    EXPECT_TRUE(result.same_cluster(20, 25));
    EXPECT_FALSE(result.same_cluster(0, 20));
    EXPECT_EQ(result.labels,
              kmeans.cluster_with(index, points, ThreadPool::global())
                  .labels);
}

TEST(KMeans, CosineIndexSeedingStillSeparatesDirections) {
    std::vector<std::vector<float>> points;
    Rng rng(18);
    for (int i = 0; i < 10; ++i)
        points.push_back({1.0F + static_cast<float>(0.01 * rng.normal()),
                          0.5F});
    for (int i = 0; i < 10; ++i)
        points.push_back({-1.0F + static_cast<float>(0.01 * rng.normal()),
                          0.5F});
    const cl::KMeans kmeans({.k = 2, .metric = cl::Metric::kCosine,
                             .seed = 3});
    const cl::ExactIndex index(cl::Metric::kCosine, points);
    const auto result =
        kmeans.cluster_with(index, points, ThreadPool::global());
    EXPECT_EQ(result.num_clusters, 2);
    EXPECT_TRUE(result.same_cluster(0, 5));
    EXPECT_FALSE(result.same_cluster(0, 15));
}

TEST(ClusterWith, ClustersInTheIndexMetricNotTheConfiguredOne) {
    // The index owns the geometry: an algorithm configured for the other
    // metric must label exactly as one configured for the index's metric,
    // for DBSCAN (adaptive eps) over the dense index and for k-means over
    // the lazy one, under both metrics.
    const auto points = two_blobs(20, 3, 14);
    for (const auto metric : {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
        const auto other = metric == cl::Metric::kEuclidean
                               ? cl::Metric::kCosine
                               : cl::Metric::kEuclidean;
        SCOPED_TRACE(::testing::Message()
                     << "index metric " << static_cast<int>(metric));
        const cl::ExactIndex exact(metric, points);
        const auto dbscan_labels = [&](cl::Metric configured) {
            return cl::Dbscan({.min_pts = 3,
                               .metric = configured,
                               .adaptive_eps = true})
                .cluster_with(exact, points, ThreadPool::global());
        };
        const auto dbscan_want = dbscan_labels(metric);
        EXPECT_GE(dbscan_want.num_clusters, 2);
        EXPECT_EQ(dbscan_labels(other).labels, dbscan_want.labels);

        const cl::LazyIndex lazy(metric, points);
        const auto kmeans_labels = [&](cl::Metric configured) {
            return cl::KMeans({.k = 3, .metric = configured, .seed = 5})
                .cluster_with(lazy, points, ThreadPool::global());
        };
        const auto kmeans_want = kmeans_labels(metric);
        EXPECT_EQ(kmeans_want.num_clusters, 3);
        EXPECT_EQ(kmeans_labels(other).labels, kmeans_want.labels);
    }
}

TEST(ClusterWith, IndexOverADifferentPointCountThrows) {
    // Point i is ordinal i of the index, so an index over fewer or more
    // points than given is rejected, never silently rebuilt.
    const auto points = two_blobs(10, 0, 22);
    const std::span<const std::vector<float>> all(points);
    const auto fewer = all.first(points.size() - 1);
    const cl::ExactIndex index_of_fewer(cl::Metric::kEuclidean, fewer);
    const cl::ExactIndex index_of_all(cl::Metric::kEuclidean, all);
    const cl::Dbscan dbscan(
        {.eps = 0.3, .min_pts = 3, .metric = cl::Metric::kEuclidean});
    const cl::KMeans kmeans({.k = 2, .metric = cl::Metric::kEuclidean});
    for (const cl::ClusteringAlgorithm* algorithm :
         {static_cast<const cl::ClusteringAlgorithm*>(&dbscan),
          static_cast<const cl::ClusteringAlgorithm*>(&kmeans)}) {
        EXPECT_THROW((void)algorithm->cluster_with(index_of_fewer, all,
                                                   ThreadPool::global()),
                     std::invalid_argument)
            << algorithm->name();
        EXPECT_THROW((void)algorithm->cluster_with(index_of_all, fewer,
                                                   ThreadPool::global()),
                     std::invalid_argument)
            << algorithm->name();
    }
}

TEST(ClusterResult, MembersOfAndSameCluster) {
    cl::ClusterResult result;
    result.labels = {0, 1, 0, cl::ClusterResult::kNoise, 1};
    result.num_clusters = 2;
    EXPECT_EQ(result.members_of(0), (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(result.members_of(1), (std::vector<std::size_t>{1, 4}));
    EXPECT_TRUE(result.same_cluster(1, 4));
    EXPECT_FALSE(result.same_cluster(0, 1));
    // Noise never matches, not even itself.
    EXPECT_FALSE(result.same_cluster(3, 3));
}

TEST(ClusteringRegistry, BuiltinsBuildUnderTheirKeyUnknownThrows) {
    const auto& registry = cl::ClusteringRegistry::global();
    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"dbscan", "kmeans"}));
    for (const auto& name : registry.names()) {
        EXPECT_TRUE(registry.contains(name));
        const auto algorithm = registry.make(name, cl::ClusteringConfig{});
        ASSERT_NE(algorithm, nullptr);
        EXPECT_EQ(std::string(algorithm->name()), name);
    }
    EXPECT_FALSE(registry.contains("optics"));
    try {
        (void)registry.make("optics", cl::ClusteringConfig{});
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range& error) {
        EXPECT_STREQ(error.what(),
                     "unknown clustering algorithm 'optics' (known: dbscan, "
                     "kmeans)");
    }
}

}  // namespace
