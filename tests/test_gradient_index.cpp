// GradientIndex: the exact backend's row queries, nearest_of under every
// backend, the string-keyed registry, approximate-backend quality (recall,
// attack detection within 2% of exact), the sketch's small-n break-even
// fallback, the sketch path's bit pins (shared Gaussian matrix, chunked
// projection, sketch contents against a per-point reference), the sketch
// index's behaviour on non-finite points, DBSCAN's pooled queries under
// every backend on 1- and 4-thread pools, and Algorithm 2's rejection of
// ragged point sets before any index is built.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

#include "cluster/dbscan.hpp"
#include "cluster/index.hpp"
#include "core/experiment.hpp"
#include "core/fairbfl.hpp"
#include "crypto/sha256.hpp"
#include "fl/aggregation.hpp"
#include "incentive/contribution.hpp"
#include "incentive/hierarchical.hpp"
#include "support/parallel.hpp"
#include "support/projection.hpp"
#include "support/rng.hpp"
#include "support/vecmath.hpp"
#include "telemetry/decode.hpp"
#include "telemetry/telemetry.hpp"

namespace {

namespace cl = fairbfl::cluster;
namespace core = fairbfl::core;
namespace support = fairbfl::support;
using fairbfl::support::Rng;

/// `groups` tight gradient clusters in `dim` dims: shared random direction
/// per group (near-orthogonal across groups in high dim) plus small noise.
/// The honest-vs-forged structure Algorithm 2 sees: every point's true
/// nearest neighbours are its co-group members.
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

TEST(ExactIndex, KthDistanceIsTheSortedRowEntry) {
    // ExactIndex selects on its stored row: every order statistic of every
    // row must be that row's sorted entry, bit for bit, under both metrics.
    const auto points = grouped_gradients(3, 5, 24, 1);
    for (const auto metric : {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
        const cl::ExactIndex index(metric, points);
        ASSERT_EQ(index.size(), points.size());
        EXPECT_EQ(index.metric(), metric);
        EXPECT_EQ(index.name(), "exact");
        for (std::size_t i = 0; i < index.size(); ++i) {
            std::vector<double> row(index.size());
            for (std::size_t j = 0; j < row.size(); ++j)
                row[j] = index.distance(i, j);
            std::sort(row.begin(), row.end());
            for (std::size_t k = 0; k < row.size(); ++k) {
                const double got = index.kth_distance(i, k);
                EXPECT_EQ(std::memcmp(&got, &row[k], sizeof got), 0)
                    << "metric " << static_cast<int>(metric) << " row " << i
                    << " k " << k;
            }
        }
    }
}

TEST(ExactIndex, NeighborsWithinMatchesRowScan) {
    const auto points = grouped_gradients(2, 6, 16, 2);
    const cl::ExactIndex index(cl::Metric::kEuclidean, points);
    const double eps = 1.0;
    for (std::size_t i = 0; i < index.size(); ++i) {
        const auto neighbors = index.neighbors_within(i, eps);
        // Ascending, self included, exactly the <= eps set.
        EXPECT_TRUE(std::is_sorted(neighbors.begin(), neighbors.end()));
        EXPECT_TRUE(std::binary_search(neighbors.begin(), neighbors.end(), i));
        std::size_t count = 0;
        for (std::size_t j = 0; j < index.size(); ++j)
            if (index.distance(i, j) <= eps) ++count;
        EXPECT_EQ(neighbors.size(), count);
    }
}

TEST(ExactIndex, NearestOfPicksArgminFirstTieWins) {
    // Collinear points: distances from index 0 are 1, 2, 2 -- the first
    // of the tied candidates must win (the fallback's determinism).
    const std::vector<std::vector<float>> points{
        {0.0F}, {1.0F}, {-2.0F}, {2.0F}};
    const cl::ExactIndex index(cl::Metric::kEuclidean, points);
    const std::vector<std::size_t> all{1, 2, 3};
    EXPECT_EQ(index.nearest_of(0, all), 1U);
    const std::vector<std::size_t> tied{2, 3};
    EXPECT_EQ(index.nearest_of(0, tied), 2U);
}

TEST(GradientIndex, NearestOfIsTheFirstArgminUnderEveryBackend) {
    // nearest_of is one query over distance(): under every backend, with
    // the sketch both in its break-even fallback and engaged, it returns
    // the first candidate of least distance.  In both point sets below,
    // point 1 is nearest to point 0 and points 2 and 3 tie from it.
    const auto check = [](const cl::GradientIndex& index) {
        for (const std::size_t i :
             {std::size_t{0}, index.size() / 2, index.size() - 1}) {
            std::vector<std::size_t> others;
            for (std::size_t j = 0; j < index.size(); ++j)
                if (j != i) others.push_back(j);
            std::size_t want = others.front();
            for (const std::size_t j : others)
                if (index.distance(i, j) < index.distance(i, want)) want = j;
            EXPECT_EQ(index.nearest_of(i, others), want) << "query " << i;
            if (i == 0) EXPECT_EQ(want, 1U);
        }
        const std::vector<std::size_t> tied{2, 3};
        EXPECT_EQ(index.nearest_of(0, tied), 2U);
        const std::vector<std::size_t> reversed{3, 2};
        EXPECT_EQ(index.nearest_of(0, reversed), 3U);
    };
    // Collinear points, distances 1, 2, 2 from point 0; width 1 keeps the
    // sketch in its fallback.
    const std::vector<std::vector<float>> line{
        {0.0F}, {1.0F}, {-2.0F}, {2.0F}};
    // 100 points of width 64 engage the sketch (n > 2 x 48, 64 > 48).
    // Points 1-3 are one point a hair from point 0, so from 0 they tie as
    // the nearest in every geometry.
    auto wide = grouped_gradients(4, 25, 64, 31);
    std::vector<float> near = wide[0];
    near[0] += 1e-3F;
    for (const std::size_t copy : {1U, 2U, 3U}) wide[copy] = near;
    const cl::IndexParams euclidean{.metric = cl::Metric::kEuclidean};
    ASSERT_EQ(cl::RandomProjectionIndex(line, euclidean).sketch_dims(), 1U);
    ASSERT_EQ(cl::RandomProjectionIndex(wide, euclidean).sketch_dims(), 48U);

    const auto& registry = cl::IndexRegistry::global();
    for (const auto& key : registry.names()) {
        SCOPED_TRACE(key);
        check(*registry.build(key, line, euclidean));
        for (const auto metric :
             {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
            SCOPED_TRACE(::testing::Message()
                         << "wide, metric " << static_cast<int>(metric));
            check(*registry.build(key, wide,
                                  cl::IndexParams{.metric = metric}));
        }
    }
}

TEST(LazyIndex, ComputesExactMetricWithZeroBuild) {
    const auto points = grouped_gradients(2, 5, 24, 11);
    for (const auto metric : {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
        const cl::LazyIndex index(metric, points);
        EXPECT_EQ(index.name(), "lazy");
        ASSERT_EQ(index.size(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(index.distance(i, i), 0.0);
            for (std::size_t j = 0; j < points.size(); ++j) {
                if (i == j) continue;
                // Per-query evaluation of the exact pairwise kernel.
                EXPECT_EQ(index.distance(i, j),
                          cl::distance(metric, points[i], points[j]));
            }
        }
    }
}

TEST(AutoIndex, ResolvesPerClusteringAlgorithm) {
    // "auto" (the config default) picks the backend matching the
    // algorithm's access pattern: exact for dbscan's dense scan, lazy for
    // kmeans' seed-only touches.
    namespace inc = fairbfl::incentive;
    std::vector<fairbfl::fl::GradientUpdate> updates(6);
    Rng rng(13);
    for (std::size_t i = 0; i < updates.size(); ++i) {
        updates[i].client = static_cast<fairbfl::fl::NodeId>(i);
        updates[i].weights.resize(16);
        for (auto& w : updates[i].weights)
            w = static_cast<float>(rng.normal());
    }
    const auto provisional = fairbfl::fl::simple_average(updates);

    inc::ContributionConfig config;
    ASSERT_EQ(config.index, "auto");
    EXPECT_EQ(inc::identify_contributions(updates, provisional, config)
                  .index_backend,
              "exact");
    config.clustering = "kmeans";
    config.kmeans.k = 2;
    EXPECT_EQ(inc::identify_contributions(updates, provisional, config)
                  .index_backend,
              "lazy");
}

TEST(IndexRegistry, BuiltinsRegisteredUnknownThrows) {
    const auto& registry = cl::IndexRegistry::global();
    EXPECT_TRUE(registry.contains("exact"));
    EXPECT_TRUE(registry.contains("lazy"));
    EXPECT_TRUE(registry.contains("random_projection"));
    EXPECT_FALSE(registry.contains("flat_l2"));
    // Names come in table order, which --list and every unknown-name
    // message print: sorted, each once.
    const auto names = registry.names();
    EXPECT_EQ(names.size(), 3U);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());

    const auto points = grouped_gradients(2, 4, 8, 3);
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    for (const auto& name : names) {
        const auto index = registry.build(name, points, params);
        ASSERT_NE(index, nullptr);
        EXPECT_EQ(index->size(), points.size());
        EXPECT_EQ(index->metric(), cl::Metric::kEuclidean);
    }
    EXPECT_THROW((void)registry.build("flat_l2", points, params),
                 std::out_of_range);
}

// Recall of the sketch-space nearest neighbours against the exact ones,
// averaged over all queries.  k_nn = per_group - 1, so the true NN set of
// every point is exactly its co-group members.
double recall_at(const cl::GradientIndex& approx, const cl::ExactIndex& exact,
                 std::size_t k_nn) {
    const std::size_t n = exact.size();
    auto knn = [&](const cl::GradientIndex& index, std::size_t i) {
        std::vector<std::size_t> order;
        for (std::size_t j = 0; j < n; ++j)
            if (j != i) order.push_back(j);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return index.distance(i, a) < index.distance(i, b);
                  });
        order.resize(k_nn);
        std::sort(order.begin(), order.end());
        return order;
    };
    double hits = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto truth = knn(exact, i);
        const auto found = knn(approx, i);
        std::vector<std::size_t> common;
        std::set_intersection(truth.begin(), truth.end(), found.begin(),
                              found.end(), std::back_inserter(common));
        hits += static_cast<double>(common.size());
    }
    return hits / static_cast<double>(n * k_nn);
}

TEST(RandomProjectionIndex, RecallAtLeastPoint9OnGradientGroups) {
    // 10 groups x 8 gradients in 512 dims; projection_dims = 16 keeps the
    // sketch genuinely engaged (n = 80 > 2k = 32).
    const auto points = grouped_gradients(10, 8, 512, 4);
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    params.projection_dims = 16;
    const cl::RandomProjectionIndex approx(points, params);
    ASSERT_EQ(approx.sketch_dims(), 16U);
    const cl::ExactIndex exact(cl::Metric::kEuclidean, points);
    EXPECT_GE(recall_at(approx, exact, 7), 0.9);
}

TEST(ApproximateIndexes, SmallRoundsFallBackToExactGeometry) {
    // Below the cost break-even (n <= 2k) sketching is pure loss, so the
    // random-projection backend must answer with the exact metric --
    // Table-2 sized rounds decide identically to the "exact" backend.
    const auto points = grouped_gradients(2, 5, 32, 7);  // n = 10
    const cl::ExactIndex exact(cl::Metric::kEuclidean, points);
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;  // default k = 48
    const cl::RandomProjectionIndex projected(points, params);
    EXPECT_EQ(projected.sketch_dims(), 32U);  // the point width, not k
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = 0; j < points.size(); ++j)
            EXPECT_EQ(projected.distance(i, j), exact.distance(i, j));
    }
    // kth_distance on the fallback asks the dense index.
    for (std::size_t k = 0; k < points.size(); ++k)
        EXPECT_EQ(projected.kth_distance(3, k), exact.kth_distance(3, k));
}

TEST(Dbscan, PooledQueriesBitIdenticalOnOneAndFourThreadPools) {
    // suggest_eps's k-distance queries and the scan's neighbourhood queries
    // fan out over the pass's pool, each into its own slot.  Above the
    // query grain (200 points) and below it (5), under every backend --
    // the sketch engaged at 200 points (n > 2k) -- and both metrics, the
    // suggested eps and the labels must not depend on the pool size.
    support::ThreadPool serial(1);
    support::ThreadPool parallel(4);
    for (const std::size_t per_group : {50UL, 1UL}) {
        const std::size_t groups = per_group == 1 ? 5 : 4;
        const auto points = grouped_gradients(groups, per_group, 64, 21);
        for (const auto metric :
             {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
            cl::IndexParams params;
            params.metric = metric;
            for (const char* key : {"exact", "lazy", "random_projection"}) {
                SCOPED_TRACE(::testing::Message()
                             << key << " n=" << points.size() << " metric "
                             << static_cast<int>(metric));
                const auto index =
                    cl::IndexRegistry::global().build(key, points, params);
                if (std::string_view(key) == "random_projection") {
                    const auto& sketch =
                        dynamic_cast<const cl::RandomProjectionIndex&>(*index);
                    EXPECT_EQ(sketch.sketch_dims(),
                              points.size() > 96 ? 48U : 64U);
                }
                const double eps1 = cl::suggest_eps(*index, 3, serial);
                const double eps4 = cl::suggest_eps(*index, 3, parallel);
                EXPECT_EQ(std::memcmp(&eps1, &eps4, sizeof(double)), 0);
                const cl::Dbscan dbscan({.min_pts = 3,
                                         .metric = metric,
                                         .adaptive_eps = true});
                const auto one = dbscan.cluster_with(*index, points, serial);
                const auto four =
                    dbscan.cluster_with(*index, points, parallel);
                EXPECT_EQ(one.labels, four.labels);
                EXPECT_EQ(one.num_clusters, four.num_clusters);
                if (points.size() > 96) EXPECT_GE(one.num_clusters, 1);
            }
        }
    }
}

TEST(ApproximateIndexes, DbscanLabelsMatchExactOnSeparatedGroups) {
    // End-to-end through the scan: adaptive eps from each index's own
    // geometry must recover the same well-separated partition.
    const auto points = grouped_gradients(4, 10, 256, 8);
    const cl::ExactIndex exact(cl::Metric::kEuclidean, points);
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    params.projection_dims = 12;
    const cl::RandomProjectionIndex projected(points, params);

    auto scan = [&](const cl::GradientIndex& index) {
        const double eps = 2.0 * cl::suggest_eps(index, 3);
        const cl::Dbscan dbscan(
            {.eps = eps, .min_pts = 3, .metric = cl::Metric::kEuclidean});
        return dbscan.cluster_with(index, points,
                                   support::ThreadPool::global());
    };
    const auto truth = scan(exact);
    ASSERT_EQ(truth.num_clusters, 4);
    EXPECT_EQ(scan(projected).labels, truth.labels);
}

// The acceptance gate: attack-detection rate under the approximate backend
// stays within 2% of exact, with the sketch *engaged* at its default
// tuning (n = 120 clients > 2k = 96).  Table-2 scale (10 clients) is
// covered by the break-even fallback instead, and pinned by the identical
// bench_table2_attacks output per backend.
TEST(ApproximateIndexes, AttackDetectionWithin2PercentOfExact) {
    core::EnvironmentConfig env_config;
    env_config.data.samples = 1200;
    env_config.data.seed = 9;
    env_config.partition.scheme = fairbfl::ml::PartitionScheme::kLabelShards;
    env_config.partition.num_clients = 120;
    env_config.partition.seed = 9;
    const core::Environment env = core::build_environment(env_config);

    auto detection = [&](const std::string& index) {
        core::FairBflConfig config;
        config.fl.client_ratio = 1.0;
        config.fl.rounds = 10;
        config.fl.seed = 9;
        config.attack.kind = core::AttackKind::kSignFlip;
        config.attack.magnitude = 3.0;
        config.attack.min_attackers = 2;
        config.attack.max_attackers = 6;
        config.incentive.index = index;
        core::FairBfl system(*env.model, env.make_clients(), env.test,
                             config);
        double rate = 0.0;
        for (std::size_t r = 0; r < config.fl.rounds; ++r)
            rate += system.run_round().detection_rate;
        return rate / static_cast<double>(config.fl.rounds);
    };

    const double exact = detection("exact");
    EXPECT_GT(exact, 0.5);  // the defense itself must be working
    EXPECT_NEAR(detection("random_projection"), exact, 0.02);
}

// --- Sketch path bit pins -------------------------------------------------

bool same_bytes(std::span<const float> a, std::span<const float> b) {
    // memcmp may not see the null data() of an empty span.
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(Projection, ProjectRowsEqualsPerPointGemvBitForBit) {
    // Every chunking edge (empty, one point, the chunk size and its
    // neighbours, the stage's 113/129) at every row-tail shape of the
    // kernel's 4-row tiles and every column-tail shape, on 1 and 4
    // threads: each sketch must be the per-point gemv's bytes.
    constexpr std::size_t kChunk = support::kProjectChunk;
    const std::size_t counts[] = {0, 1, kChunk - 1, kChunk, kChunk + 1,
                                  113, 129};
    const std::size_t max_count = 129;
    support::ThreadPool serial(1);
    support::ThreadPool wide(4);
    for (const std::size_t in_dim : {1U, 5U, 784U, 7850U}) {
        Rng rng(in_dim);
        std::vector<std::vector<float>> points(max_count,
                                               std::vector<float>(in_dim));
        std::vector<const float*> rows;
        for (auto& point : points) {
            for (auto& v : point) v = static_cast<float>(rng.normal());
            rows.push_back(point.data());
        }
        for (const std::size_t out_dim : {1U, 3U, 4U, 5U, 17U, 48U}) {
            const auto projection =
                support::gaussian_projection(in_dim, out_dim, 42);
            std::vector<float> want(max_count * out_dim);
            for (std::size_t s = 0; s < max_count; ++s)
                support::gemv(projection->rows, out_dim, in_dim, points[s],
                              {}, std::span(want).subspan(s * out_dim,
                                                          out_dim));
            for (const std::size_t count : counts) {
                for (support::ThreadPool* pool : {&serial, &wide}) {
                    // A NaN fill: a sketch the loop never writes cannot
                    // match the reference by accident.
                    std::vector<float> got(
                        count * out_dim,
                        std::numeric_limits<float>::quiet_NaN());
                    support::project_rows(
                        *projection, std::span(rows).first(count), got,
                        *pool);
                    EXPECT_TRUE(same_bytes(
                        got, std::span(want).first(count * out_dim)))
                        << "in_dim " << in_dim << " out_dim " << out_dim
                        << " count " << count << " threads "
                        << pool->size();
                }
            }
        }
    }
}

TEST(Projection, MemoSharesOneMatrixPerKeyAndRegeneratesTheSameBytes) {
    const auto a = support::gaussian_projection(784, 48, 42);
    EXPECT_EQ(support::gaussian_projection(784, 48, 42), a);  // memo hit
    const auto b = support::gaussian_projection(784, 48, 43);  // seed
    const auto c = support::gaussian_projection(784, 17, 42);  // k
    const auto again = support::gaussian_projection(784, 48, 42);
    EXPECT_EQ(again->in_dim, 784U);
    EXPECT_EQ(again->out_dim, 48U);
    EXPECT_TRUE(same_bytes(again->rows, a->rows));
    EXPECT_FALSE(same_bytes(b->rows, a->rows));
    EXPECT_EQ(c->out_dim, 17U);
    EXPECT_FALSE(same_bytes(c->rows, a->rows));
}

TEST(Projection, StageMatrixBytesArePinned) {
    // The (d = 7850, k = 48, seed = 42) matrix every async_adversarial
    // sketch goes through: its SHA-256 pins the generation loop and its
    // single RNG stream.
    const auto projection = support::gaussian_projection(7850, 48, 42);
    const auto* bytes =
        reinterpret_cast<const std::uint8_t*>(projection->rows.data());
    const auto digest = fairbfl::crypto::Sha256::hash(std::span(
        bytes, projection->rows.size() * sizeof(float)));
    EXPECT_EQ(fairbfl::crypto::to_hex(digest),
              "915be45737ee4b50303511d1536970bd"
              "1470a5a5b6aefec9f3fe9861f9bf4a33");
}

void expect_same_index(const cl::GradientIndex& got,
                       const cl::GradientIndex& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        for (std::size_t j = 0; j < got.size(); ++j)
            ASSERT_EQ(got.distance(i, j), want.distance(i, j))
                << i << "," << j;
}

TEST(RandomProjectionIndex, ConcurrentBuildsOverTwoKeysMatchSerialBuilds) {
    // The shard tree builds its passes concurrently through the matrix
    // memo.  Two keys alternate across pool workers, so the one-entry
    // memo is replaced while other builds hold the matrix it replaced.
    const auto points = grouped_gradients(6, 10, 256, 17);  // n = 60
    cl::IndexParams params_a;
    params_a.metric = cl::Metric::kEuclidean;
    params_a.projection_dims = 12;  // engaged: 60 > 24
    cl::IndexParams params_b = params_a;
    params_b.seed = 7;
    support::ThreadPool serial(1);
    const cl::RandomProjectionIndex want_a(points, params_a, serial);
    const cl::RandomProjectionIndex want_b(points, params_b, serial);

    support::ThreadPool pool(4);
    std::vector<std::unique_ptr<cl::RandomProjectionIndex>> built(8);
    support::parallel_for(
        0, built.size(),
        [&](std::size_t i) {
            built[i] = std::make_unique<cl::RandomProjectionIndex>(
                points, i % 2 == 0 ? params_a : params_b, pool);
        },
        pool);
    for (std::size_t i = 0; i < built.size(); ++i)
        expect_same_index(*built[i], i % 2 == 0 ? want_a : want_b);
}

TEST(RandomProjectionIndex, DistancesEqualExactIndexOverPerPointSketches) {
    // An independent reference for the sketch contents: every point is
    // projected on its own with the per-point gemv through the shared
    // matrix, and the dense exact index over those sketches must hold
    // every distance the index answers, byte for byte.  n = 97 and 113 are
    // above 2k = 96 (engaged) and not multiples of the projection chunk,
    // so a misplaced sketch row or a dropped chunk tail shows.
    constexpr std::size_t kDims = 48;
    constexpr std::size_t kWidth = 203;
    constexpr std::uint64_t kSeed = 42;
    static_assert(97 % support::kProjectChunk != 0);
    static_assert(113 % support::kProjectChunk != 0);
    const auto projection =
        support::gaussian_projection(kWidth, kDims, kSeed);
    for (const std::size_t n : {97U, 113U}) {
        ASSERT_GT(n, 2 * kDims);
        Rng rng(n);
        std::vector<std::vector<float>> points(n, std::vector<float>(kWidth));
        for (auto& point : points)
            for (auto& v : point) v = static_cast<float>(rng.normal());
        std::vector<std::vector<float>> sketches(n,
                                                 std::vector<float>(kDims));
        for (std::size_t i = 0; i < n; ++i)
            support::gemv(projection->rows, kDims, kWidth, points[i], {},
                          sketches[i]);
        for (const cl::Metric metric :
             {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
            cl::IndexParams params;
            params.metric = metric;
            params.projection_dims = kDims;
            params.seed = kSeed;
            const cl::RandomProjectionIndex index(points, params);
            ASSERT_EQ(index.sketch_dims(), kDims);
            const cl::ExactIndex want(metric, sketches);
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    const double got = index.distance(i, j);
                    const double expected = want.distance(i, j);
                    ASSERT_EQ(std::memcmp(&got, &expected, sizeof got), 0)
                        << "n " << n << " metric "
                        << static_cast<int>(metric) << " pair " << i << ","
                        << j << ": " << got << " vs " << expected;
                }
            }
        }
    }
}

// --- Non-finite points -----------------------------------------------------

/// 120 grouped points in 128 dims (engaged at k = 48: 120 > 96) with
/// non-finite coordinates planted per `plant`.  Each point is scaled by
/// one of 40 random levels, so sketch norms spread far beyond the query
/// radii (the norm band is selective) and do not follow point ids.
std::vector<std::vector<float>> planted_points(
    const std::vector<std::pair<std::size_t, float>>& plant) {
    auto points = grouped_gradients(6, 20, 128, 23);
    Rng rng(29);
    for (auto& point : points) {
        const auto scale =
            static_cast<float>(1.0 + 0.25 * static_cast<double>(
                                                rng.uniform_int(0, 39)));
        for (auto& v : point) v *= scale;
    }
    for (std::size_t p = 0; p < plant.size(); ++p)
        points[plant[p].first][3 * p + 1] = plant[p].second;
    return points;
}

/// Every k-distance query returns, and every radius query equals the
/// brute-force distance scan.
void expect_queries_terminate_and_match(const cl::RandomProjectionIndex& index) {
    const std::size_t n = index.size();
    for (std::size_t i = 0; i < n; ++i) {
        for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, n / 2, n - 1})
            static_cast<void>(index.kth_distance(i, k));
        for (const double eps : {0.5, 5.0,
                                 std::numeric_limits<double>::infinity()}) {
            std::vector<std::size_t> brute;
            for (std::size_t j = 0; j < n; ++j)
                if (index.distance(i, j) <= eps) brute.push_back(j);
            EXPECT_EQ(index.neighbors_within(i, eps), brute)
                << "point " << i << " eps " << eps;
        }
    }
}

TEST(RandomProjectionIndex, OneInfinitePointKeepsKthDistanceExact) {
    // One +inf coordinate: its sketch norm is +inf, every other distance
    // stays finite, so the pruned k-distance must still be the exact
    // order statistic -- and the finite point next to it in norm order
    // must not walk the exhausted low side.
    const float inf = std::numeric_limits<float>::infinity();
    const auto points = planted_points({{40, inf}});
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    const cl::RandomProjectionIndex index(points, params);
    ASSERT_EQ(index.sketch_dims(), 48U);
    expect_queries_terminate_and_match(index);
    for (std::size_t i = 0; i < index.size(); ++i) {
        std::vector<double> row(index.size());
        for (std::size_t j = 0; j < row.size(); ++j)
            row[j] = index.distance(i, j);
        std::sort(row.begin(), row.end());
        for (const std::size_t k : {std::size_t{0}, std::size_t{5},
                                    std::size_t{118}, std::size_t{119}})
            EXPECT_EQ(index.kth_distance(i, k), row[k]) << i << "," << k;
    }
}

TEST(RandomProjectionIndex, NonFinitePointsNeverStallQueries) {
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const auto points = planted_points(
        {{3, inf}, {17, -inf}, {40, nan}, {41, inf}, {41, -inf}, {90, nan},
         {119, inf}});
    for (const auto metric : {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
        cl::IndexParams params;
        params.metric = metric;
        const cl::RandomProjectionIndex index(points, params);
        ASSERT_EQ(index.sketch_dims(), 48U);
        expect_queries_terminate_and_match(index);
    }
}

TEST(IdentifyContributions, NonFiniteUpdatesReturnUnderTheSketchIndex) {
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const auto points =
        planted_points({{3, inf}, {17, -inf}, {40, nan}, {119, inf}});
    std::vector<fairbfl::fl::GradientUpdate> updates(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        updates[i].client = static_cast<fairbfl::fl::NodeId>(i);
        updates[i].weights = points[i];
    }
    fairbfl::incentive::ContributionConfig config;
    config.index = "random_projection";
    const auto report = fairbfl::incentive::identify_contributions(
        updates, fairbfl::fl::simple_average(updates), config);
    EXPECT_EQ(report.index_backend, "random_projection");
    EXPECT_EQ(report.entries.size(), updates.size());
}

// One 100-float update among 256-float ones, or a short provisional global
// or reference: every index backend would read past the narrow vector (or
// silently score on its first 100 coordinates), so Algorithm 2 must throw
// -- flat and under the shard tree, at sizes where the sketch falls back
// (n = 20) and where it engages (n = 120) -- and no index build may start.
TEST(IdentifyContributions, RaggedWidthsThrowBeforeAnyIndexIsBuilt) {
    namespace inc = fairbfl::incentive;
    namespace tel = fairbfl::telemetry;
    constexpr std::size_t kWide = 256;
    constexpr std::size_t kNarrow = 100;
    tel::set_enabled(true);
    tel::Session session;
    const tel::ContextScope scope(session.context(0));
    tel::capture_begin();

    for (const std::size_t n : {std::size_t{20}, std::size_t{120}}) {
        const auto points = grouped_gradients(2, n / 2, kWide, 41);
        std::vector<fairbfl::fl::GradientUpdate> wide(n);
        for (std::size_t i = 0; i < n; ++i) {
            wide[i].client = static_cast<fairbfl::fl::NodeId>(i);
            wide[i].weights = points[i];
        }
        const std::vector<float> global = points[1];
        const std::vector<float> narrow(global.begin(),
                                        global.begin() + kNarrow);
        auto narrow_middle = wide;
        narrow_middle[n / 2].weights = narrow;
        auto narrow_first = wide;
        narrow_first[0].weights = narrow;
        for (const char* backend : {"exact", "random_projection"}) {
            for (const std::size_t shards : {1U, 4U}) {
                SCOPED_TRACE(testing::Message()
                             << "n " << n << " " << backend << " shards "
                             << shards);
                inc::ContributionConfig config;
                config.index = backend;
                config.sharding = {.shards = shards, .min_shard_clients = 4};
                const auto run =
                    [&](std::span<const fairbfl::fl::GradientUpdate> updates,
                        std::span<const float> provisional,
                        std::span<const float> reference) {
                        return inc::identify_contributions_hierarchical(
                            updates, provisional, config, reference);
                    };
                EXPECT_THROW((void)run(narrow_middle, global, {}),
                             std::invalid_argument);
                EXPECT_THROW((void)run(narrow_first, global, {}),
                             std::invalid_argument);
                EXPECT_THROW((void)run(wide, global, narrow),
                             std::invalid_argument);
                EXPECT_THROW((void)run(wide, narrow, {}),
                             std::invalid_argument);
            }
        }
    }
    const tel::Dump dump = tel::capture_end();
    const tel::RoundStats stats = tel::dump_round_stats(dump, session.id(), 0);
    EXPECT_EQ(stats.labels.count("cluster.index_build"), 0U);
    EXPECT_EQ(stats.labels.count("cluster.identify"), 0U);
}

}  // namespace
