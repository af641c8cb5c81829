// Engineering micro-benchmarks: DBSCAN / k-means over gradient-like point
// sets (this is the T_gl cost of Procedure IV).  Every algorithm clusters a
// prebuilt index, as Algorithm 2 does.

#include <benchmark/benchmark.h>

#include "cluster/dbscan.hpp"
#include "cluster/kmeans.hpp"
#include "fl/aggregation.hpp"
#include "incentive/contribution.hpp"
#include "support/rng.hpp"
#include "support/vecmath.hpp"

namespace {

using namespace fairbfl;

std::vector<std::vector<float>> gradient_like_points(std::size_t n,
                                                     std::size_t dim) {
    support::Rng rng(7);
    std::vector<float> base(dim);
    for (auto& v : base) v = static_cast<float>(rng.normal());
    std::vector<std::vector<float>> points(n);
    for (auto& p : points) {
        p = base;
        for (auto& v : p) v += static_cast<float>(0.05 * rng.normal());
    }
    // 10% outliers.
    for (std::size_t i = 0; i < n / 10; ++i) {
        for (auto& v : points[i]) v = -v * 3.0F;
    }
    return points;
}

/// The exact index build plus the scan, both timed: DBSCAN's preferred
/// index is the dense matrix, built in its configured metric.
void BM_Dbscan(benchmark::State& state) {
    const auto points =
        gradient_like_points(static_cast<std::size_t>(state.range(0)), 650);
    const cluster::Dbscan dbscan({.eps = 0.05, .min_pts = 3});
    for (auto _ : state) {
        const cluster::ExactIndex index(dbscan.preferred_metric(), points);
        benchmark::DoNotOptimize(dbscan.cluster_with(
            index, points, support::ThreadPool::global()));
    }
}
BENCHMARK(BM_Dbscan)->Arg(10)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

/// k-means over its preferred lazy index, built inside the timed loop
/// (it precomputes nothing): seeding's O(n k) distances plus Lloyd.
void BM_KMeans(benchmark::State& state) {
    const auto points =
        gradient_like_points(static_cast<std::size_t>(state.range(0)), 650);
    const cluster::KMeans kmeans({.k = 2});
    for (auto _ : state) {
        const cluster::LazyIndex index(kmeans.preferred_metric(), points);
        benchmark::DoNotOptimize(kmeans.cluster_with(
            index, points, support::ThreadPool::global()));
    }
}
BENCHMARK(BM_KMeans)->Arg(10)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

/// The adaptive-eps heuristic with its cosine exact index: the build and
/// the k-distance queries, both timed.
void BM_SuggestEps(benchmark::State& state) {
    const auto points =
        gradient_like_points(static_cast<std::size_t>(state.range(0)), 650);
    for (auto _ : state) {
        const cluster::ExactIndex index(cluster::Metric::kCosine, points);
        benchmark::DoNotOptimize(cluster::suggest_eps(index, 3));
    }
}
BENCHMARK(BM_SuggestEps)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

/// GradientIndex build cost per backend (the dominant term of the round's
/// cluster stage).  Arg is the point count; dim matches the logistic
/// model on 64 features.
template <typename Backend>
void BM_IndexBuild(benchmark::State& state) {
    const auto points =
        gradient_like_points(static_cast<std::size_t>(state.range(0)), 650);
    cluster::IndexParams params;
    params.metric = cluster::Metric::kEuclidean;
    for (auto _ : state)
        benchmark::DoNotOptimize(Backend(points, params));
}
/// The exact build takes (points, dim): 193 x 7850 is the cluster_heavy
/// round's shape (192 updates plus the provisional global, the logistic
/// model's 7850 weights), where the 3x4 distance tile does the work.
template <>
void BM_IndexBuild<cluster::ExactIndex>(benchmark::State& state) {
    const auto points =
        gradient_like_points(static_cast<std::size_t>(state.range(0)),
                             static_cast<std::size_t>(state.range(1)));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cluster::ExactIndex(cluster::Metric::kEuclidean, points));
}
BENCHMARK(BM_IndexBuild<cluster::ExactIndex>)
    ->Args({100, 650})
    ->Args({250, 650})
    ->Args({193, 7850})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexBuild<cluster::RandomProjectionIndex>)
    ->Arg(100)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond);

/// Algorithm 2's scan over a prebuilt 193 x 7850 exact index (the
/// cluster_heavy pass's shape) under the round's default DBSCAN
/// configuration: suggest_eps's k-distance queries for the adaptive eps,
/// then the neighbourhood queries and the cluster expansion.  Both query
/// loops fan out over the global pool; the expansion is serial.
void BM_DbscanScan(benchmark::State& state) {
    const auto points =
        gradient_like_points(static_cast<std::size_t>(state.range(0)), 7850);
    const cluster::Dbscan dbscan(incentive::ContributionConfig{}.dbscan);
    const cluster::ExactIndex index(dbscan.preferred_metric(), points);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dbscan.cluster_with(
            index, points, support::ThreadPool::global()));
    }
}
BENCHMARK(BM_DbscanScan)->Arg(193)->Unit(benchmark::kMillisecond);

/// Algorithm 2's theta scores: every update's cosine distance to the
/// provisional global, (rows, dim) = the cluster_heavy shape.
void BM_CosineDistancesTo(benchmark::State& state) {
    const auto rows =
        gradient_like_points(static_cast<std::size_t>(state.range(0)),
                             static_cast<std::size_t>(state.range(1)));
    const std::vector<float> query = rows.back();
    std::vector<double> out(rows.size());
    for (auto _ : state) {
        support::cosine_distances_to(rows, query, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_CosineDistancesTo)
    ->Args({192, 7850})
    ->Unit(benchmark::kMillisecond);

/// Full contribution identification on a round's update set: the point
/// fill, the index build, the scan and theta.  Args are (updates, dim,
/// reference): with a reference (the previous global w_r, one honest draw
/// around the same base) the points are the effective gradients
/// w_i - w_r, as in a FairBfl round; 192 x 7850 with a reference is the
/// cluster_heavy round's shape.
void BM_Algorithm2EndToEnd(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto dim = static_cast<std::size_t>(state.range(1));
    const auto points = gradient_like_points(n, dim);
    std::vector<fl::GradientUpdate> updates(n);
    for (std::size_t i = 0; i < n; ++i) {
        updates[i].client = static_cast<fl::NodeId>(i);
        updates[i].weights = points[i];
    }
    const auto provisional = fl::simple_average(updates);
    const std::vector<float> reference =
        state.range(2) != 0 ? gradient_like_points(1, dim).front()
                            : std::vector<float>{};
    const incentive::ContributionConfig config;
    for (auto _ : state) {
        benchmark::DoNotOptimize(incentive::identify_contributions(
            updates, provisional, config, reference));
    }
}
BENCHMARK(BM_Algorithm2EndToEnd)
    ->Args({10, 650, 0})
    ->Args({50, 650, 0})
    ->Args({100, 650, 0})
    ->Args({192, 7850, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
