// Clustering: distances, DBSCAN separation/noise behaviour, k-means, the
// adaptive-eps heuristic, and the clustering registry.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
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

TEST(Distance, MatrixIsSymmetricZeroDiagonal) {
    const auto points = two_blobs(5, 0, 1);
    const cl::DistanceMatrix m(cl::Metric::kEuclidean, points);
    ASSERT_EQ(m.size(), 10U);
    for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_DOUBLE_EQ(m.at(i, i), 0.0);
        for (std::size_t j = 0; j < m.size(); ++j)
            EXPECT_DOUBLE_EQ(m.at(i, j), m.at(j, i));
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
    const auto result = dbscan.cluster(points);
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
    const auto result = dbscan.cluster(points);
    for (std::size_t i = 40; i < 43; ++i)
        EXPECT_EQ(result.labels[i], cl::ClusterResult::kNoise) << i;
}

TEST(Dbscan, EverythingNoiseWhenEpsTiny) {
    const auto points = two_blobs(10, 0, 4);
    const cl::Dbscan dbscan(
        {.eps = 1e-9, .min_pts = 3, .metric = cl::Metric::kEuclidean});
    const auto result = dbscan.cluster(points);
    EXPECT_EQ(result.num_clusters, 0);
    for (const int label : result.labels)
        EXPECT_EQ(label, cl::ClusterResult::kNoise);
}

TEST(Dbscan, OneClusterWhenEpsHuge) {
    const auto points = two_blobs(10, 2, 5);
    const cl::Dbscan dbscan(
        {.eps = 100.0, .min_pts = 3, .metric = cl::Metric::kEuclidean});
    const auto result = dbscan.cluster(points);
    EXPECT_EQ(result.num_clusters, 1);
    EXPECT_EQ(result.members_of(0).size(), points.size());
}

TEST(Dbscan, EmptyInput) {
    const cl::Dbscan dbscan;
    const auto result = dbscan.cluster({});
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
    const auto result = dbscan.cluster(points);
    EXPECT_EQ(result.num_clusters, 2);
    EXPECT_TRUE(result.same_cluster(0, 5));
    EXPECT_FALSE(result.same_cluster(0, 15));
}

TEST(Dbscan, SuggestEpsSeparatesBlobGapsFromNeighbours) {
    const auto points = two_blobs(20, 0, 7);
    const double eps =
        cl::suggest_eps(points, 3, cl::Metric::kEuclidean);
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
    const auto result = kmeans.cluster(points);
    EXPECT_EQ(result.num_clusters, 2);
    EXPECT_TRUE(result.same_cluster(0, 1));
    EXPECT_TRUE(result.same_cluster(20, 25));
    EXPECT_FALSE(result.same_cluster(0, 20));
}

TEST(KMeans, NeverProducesNoise) {
    const auto points = two_blobs(15, 5, 9);
    const cl::KMeans kmeans({.k = 3, .metric = cl::Metric::kEuclidean});
    const auto result = kmeans.cluster(points);
    for (const int label : result.labels) {
        EXPECT_GE(label, 0);
        EXPECT_LT(label, result.num_clusters);
    }
}

TEST(KMeans, ClampsKToPointCount) {
    const auto points = two_blobs(2, 0, 10);  // 4 points
    const cl::KMeans kmeans({.k = 10, .metric = cl::Metric::kEuclidean});
    const auto result = kmeans.cluster(points);
    EXPECT_LE(result.num_clusters, 4);
}

TEST(KMeans, DeterministicInSeed) {
    const auto points = two_blobs(20, 0, 11);
    const cl::KMeans a({.k = 2, .metric = cl::Metric::kEuclidean, .seed = 5});
    const cl::KMeans b({.k = 2, .metric = cl::Metric::kEuclidean, .seed = 5});
    EXPECT_EQ(a.cluster(points).labels, b.cluster(points).labels);
}

TEST(Distance, ParallelBuildBitIdenticalToSerial) {
    // The matrix fans rows out across the pool; every entry must be
    // identical under any thread count.
    const auto points = two_blobs(25, 3, 12);  // 53 points, 2 dims
    fairbfl::support::ThreadPool serial(1);
    fairbfl::support::ThreadPool parallel(4);
    for (const auto metric : {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
        const cl::DistanceMatrix a(metric, points, serial);
        const cl::DistanceMatrix b(metric, points, parallel);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            for (std::size_t j = 0; j < a.size(); ++j)
                ASSERT_EQ(a.at(i, j), b.at(i, j)) << i << "," << j;
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
                const cl::DistanceMatrix m(cl::Metric::kEuclidean, points,
                                           *pool);
                for (std::size_t i = 0; i < n; ++i) {
                    for (std::size_t j = 0; j < n; ++j) {
                        if (i == j) continue;
                        const double want = std::sqrt(
                            fairbfl::support::squared_distance_blocked(
                                points[i], points[j]));
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(m.at(i, j)),
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
    // Every exact build reads both points of a pair at one width, so a
    // narrower or a wider point must be rejected with a typed error, not
    // read past its end: through the matrix itself and through the entry
    // points that reach it without Algorithm 2's width check.
    for (const std::size_t odd_width : {3UL, 17UL}) {
        std::vector<std::vector<float>> points(9,
                                               std::vector<float>(16, 1.0F));
        points[4].assign(odd_width, 2.0F);
        for (const auto metric :
             {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
            EXPECT_THROW(cl::DistanceMatrix(metric, points),
                         std::invalid_argument)
                << odd_width;
            EXPECT_THROW(cl::ExactIndex(metric, points), std::invalid_argument)
                << odd_width;
            EXPECT_THROW((void)cl::suggest_eps(points, 3, metric),
                         std::invalid_argument)
                << odd_width;
            EXPECT_THROW((void)cl::Dbscan({.eps = 0.3, .min_pts = 3,
                                           .metric = metric})
                             .cluster(points),
                         std::invalid_argument)
                << odd_width;
            // Below its break-even the sketch index is the dense matrix.
            EXPECT_THROW(cl::RandomProjectionIndex(
                             points, cl::IndexParams{.metric = metric}),
                         std::invalid_argument)
                << odd_width;
        }
    }
    // Engaged (122 points > 2 x 48 sketch dims, width 96 > 48), the sketch
    // reads every point at the first's width too: a narrower point would
    // be read past its end and a wider one silently truncated.
    for (const std::size_t odd_width : {95UL, 97UL}) {
        std::vector<std::vector<float>> points(122,
                                               std::vector<float>(96, 1.0F));
        points[50].assign(odd_width, 2.0F);
        EXPECT_THROW(cl::RandomProjectionIndex(
                         points,
                         cl::IndexParams{.metric = cl::Metric::kEuclidean}),
                     std::invalid_argument)
            << odd_width;
    }
}

TEST(Distance, CosineMatrixCachesNorms) {
    const auto points = two_blobs(4, 0, 13);
    const cl::DistanceMatrix cosine(cl::Metric::kCosine, points);
    EXPECT_EQ(cosine.norms().size(), points.size());
    const cl::DistanceMatrix euclid(cl::Metric::kEuclidean, points);
    EXPECT_TRUE(euclid.norms().empty());
    // Cached-norm entries must match the plain pairwise kernel exactly.
    for (std::size_t i = 0; i < points.size(); ++i)
        for (std::size_t j = 0; j < points.size(); ++j)
            if (i != j)
                EXPECT_EQ(cosine.at(i, j),
                          cl::distance(cl::Metric::kCosine, points[i],
                                       points[j]));
}

TEST(Dbscan, PrebuiltIndexMatchesPointsPath) {
    const auto points = two_blobs(20, 3, 14);
    const cl::DbscanParams params{
        .eps = 0.3, .min_pts = 3, .metric = cl::Metric::kEuclidean};
    const cl::Dbscan dbscan(params);
    const cl::ExactIndex index(params.metric, points);
    const auto direct = dbscan.cluster(points);
    const auto reused =
        dbscan.cluster_with(index, points, ThreadPool::global());
    EXPECT_EQ(direct.labels, reused.labels);
    EXPECT_EQ(direct.num_clusters, reused.num_clusters);
}

TEST(Dbscan, MismatchedIndexMetricFallsBackToRebuild) {
    const auto points = two_blobs(20, 0, 15);
    const cl::Dbscan dbscan(
        {.eps = 0.3, .min_pts = 3, .metric = cl::Metric::kEuclidean});
    // Wrong-metric index: correctness demands a rebuild, not reuse.
    const cl::ExactIndex cosine(cl::Metric::kCosine, points);
    const auto reused =
        dbscan.cluster_with(cosine, points, ThreadPool::global());
    EXPECT_EQ(reused.labels, dbscan.cluster(points).labels);
}

TEST(Dbscan, SuggestEpsIndexOverloadMatchesPointsOverload) {
    const auto points = two_blobs(20, 0, 16);
    for (const auto metric : {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
        const cl::ExactIndex index(metric, points);
        EXPECT_EQ(cl::suggest_eps(points, 3, metric),
                  cl::suggest_eps(index, 3));
    }
}

TEST(Dbscan, SuggestEpsTooFewPointsReturnsZero) {
    // No k-distance sample exists at n <= min_pts: the heuristic must not
    // invent a radius (the old 0.1 fallback clustered tiny rounds on an
    // arbitrary eps).
    const auto points = two_blobs(1, 1, 19);  // 3 points
    EXPECT_EQ(cl::suggest_eps(points, 3, cl::Metric::kEuclidean), 0.0);
    EXPECT_EQ(cl::suggest_eps({}, 3, cl::Metric::kEuclidean), 0.0);
    const cl::ExactIndex index(cl::Metric::kEuclidean, points);
    EXPECT_EQ(cl::suggest_eps(index, 3), 0.0);
}

TEST(Dbscan, SinglePointIsNoise) {
    const std::vector<std::vector<float>> points{{1.0F, 2.0F}};
    const cl::Dbscan dbscan(
        {.eps = 0.5, .min_pts = 3, .metric = cl::Metric::kEuclidean});
    const auto result = dbscan.cluster(points);
    EXPECT_EQ(result.num_clusters, 0);
    ASSERT_EQ(result.labels.size(), 1U);
    EXPECT_EQ(result.labels[0], cl::ClusterResult::kNoise);
}

TEST(Dbscan, FewerPointsThanMinPtsAllNoise) {
    const auto points = two_blobs(1, 0, 20);  // 2 points < min_pts
    const cl::Dbscan dbscan(
        {.eps = 100.0, .min_pts = 3, .metric = cl::Metric::kEuclidean});
    const auto result = dbscan.cluster(points);
    EXPECT_EQ(result.num_clusters, 0);
    for (const int label : result.labels)
        EXPECT_EQ(label, cl::ClusterResult::kNoise);
}

TEST(KMeans, PrebuiltIndexSeedingSeparatesBlobsDeterministically) {
    // Index seeding may legitimately pick a different (equally valid)
    // seed than the points path in ulp-tight ties (see kmeans.hpp), so
    // assert the partition structure and the path's own determinism
    // rather than exact label equality across paths.
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
