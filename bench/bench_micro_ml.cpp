// Engineering micro-benchmarks: the pinned vector kernels behind
// support/simd.hpp, model gradients, SGD epochs, accuracy evaluation and
// aggregation.

#include <benchmark/benchmark.h>

#include "core/strategies.hpp"
#include "fl/aggregation.hpp"
#include "ml/optimizer.hpp"
#include "ml/synthetic_mnist.hpp"
#include "support/projection.hpp"
#include "support/simd.hpp"
#include "support/vecmath.hpp"

namespace {

using namespace fairbfl;

/// CPU-feature report in the JSON header, so an artifact records whether
/// the lane-exact AVX2 + FMA encodings could serve the kernel rows on the
/// producing host.
const bool kContextRegistered = [] {
    benchmark::AddCustomContext(
        "cpu_avx2_fma",
        support::simd::cpu_supports_avx2_fma() ? "true" : "false");
    return true;
}();

std::vector<float> kernel_operand(std::size_t n, std::uint64_t seed) {
    support::Rng rng(seed);
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    return v;
}

void BM_KernelDot(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = kernel_operand(n, 7);
    const auto y = kernel_operand(n, 8);
    for (auto _ : state) benchmark::DoNotOptimize(support::dot(x, y));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_KernelDot)->Arg(784)->Arg(7850);

void BM_KernelAxpy(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = kernel_operand(n, 9);
    auto y = kernel_operand(n, 10);
    for (auto _ : state) {
        support::axpy(0.01F, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_KernelAxpy)->Arg(784)->Arg(7850);

void BM_KernelGemv(benchmark::State& state) {
    // The logistic forward shape: 10 classes x `dim` features.
    const auto dim = static_cast<std::size_t>(state.range(0));
    const std::size_t classes = 10;
    const auto a = kernel_operand(classes * dim, 11);
    const auto x = kernel_operand(dim, 12);
    const auto bias = kernel_operand(classes, 13);
    std::vector<float> out(classes);
    for (auto _ : state) {
        support::gemv(a, classes, dim, x, bias, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(classes) *
                            state.range(0));
}
BENCHMARK(BM_KernelGemv)->Arg(784)->Arg(7850);

/// One logistic mini-batch at the train_heavy shape: a 10 x `dim` weight
/// matrix and 10 samples of `dim` features.
struct MiniBatch {
    static constexpr std::size_t kClasses = 10;
    static constexpr std::size_t kSamples = 10;

    explicit MiniBatch(std::size_t dim)
        : w(kernel_operand(kClasses * dim, 11)),
          bias(kernel_operand(kClasses, 13)),
          d(kernel_operand(kSamples * kClasses, 14)),
          out(kSamples * kClasses) {
        for (std::size_t s = 0; s < kSamples; ++s)
            features.push_back(kernel_operand(dim, 20 + s));
        for (const auto& x : features) xs.push_back(x.data());
    }

    std::vector<float> w;
    std::vector<float> bias;
    std::vector<float> d;
    std::vector<float> out;
    std::vector<std::vector<float>> features;
    std::vector<const float*> xs;
};

void BM_KernelGemvRows(benchmark::State& state) {
    // The batched logistic forward: one call per mini-batch.
    const auto dim = static_cast<std::size_t>(state.range(0));
    MiniBatch batch(dim);
    for (auto _ : state) {
        support::gemv_rows(batch.w, MiniBatch::kClasses, dim, batch.xs,
                           batch.bias, batch.out);
        benchmark::DoNotOptimize(batch.out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(MiniBatch::kSamples));
}
BENCHMARK(BM_KernelGemvRows)->Arg(784);

void BM_KernelOuterRows(benchmark::State& state) {
    // The batched logistic backward, one sweep per mini-batch: the weight
    // gradient written with its L2 term, and with range(1) = 1 the L2 loss
    // chain dot(w, w) carried too (the last epoch's steps).
    const auto dim = static_cast<std::size_t>(state.range(0));
    MiniBatch batch(dim);
    std::vector<float> grad(MiniBatch::kClasses * dim);
    double w_norm2 = 0.0;
    double* const norm_out = state.range(1) != 0 ? &w_norm2 : nullptr;
    for (auto _ : state) {
        support::outer_rows_l2(batch.d, batch.xs, MiniBatch::kClasses, dim,
                               1e-4F, batch.w, grad, norm_out);
        benchmark::DoNotOptimize(grad.data());
        benchmark::DoNotOptimize(w_norm2);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(MiniBatch::kSamples));
}
BENCHMARK(BM_KernelOuterRows)->Args({784, 0})->Args({784, 1});

void BM_KernelSketch(benchmark::State& state) {
    // The GradientIndex build step: project range(1) gradient rows of
    // range(0) dims down to k = 48 through the seeded Gaussian matrix.
    // 113 x 7850 is the sketch async_adversarial builds every round.
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto projection = support::gaussian_projection(dim, 48, 42);
    std::vector<std::vector<float>> points(
        static_cast<std::size_t>(state.range(1)));
    std::vector<const float*> rows;
    for (std::size_t i = 0; i < points.size(); ++i) {
        points[i] = kernel_operand(dim, 100 + i);
        rows.push_back(points[i].data());
    }
    std::vector<float> sketches(points.size() * projection->out_dim);
    for (auto _ : state) {
        support::project_rows(*projection, rows, sketches);
        benchmark::DoNotOptimize(sketches.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(1) * state.range(0));
}
BENCHMARK(BM_KernelSketch)->Args({784, 64})->Args({7850, 113});

void BM_GaussianProjection(benchmark::State& state) {
    // The serial draw of a range(1) x range(0) matrix.  A fresh seed per
    // iteration misses gaussian_projection's memo, so every iteration
    // generates a matrix.
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    std::uint64_t seed = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(support::gaussian_projection(dim, k, ++seed));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0) * state.range(1));
}
BENCHMARK(BM_GaussianProjection)
    ->Args({7850, 48})
    ->Unit(benchmark::kMillisecond);

const ml::Dataset& dataset() {
    static const ml::Dataset data = ml::make_synthetic_mnist(
        {.samples = 2000, .feature_dim = 64, .num_classes = 10, .seed = 1});
    return data;
}

void BM_LogisticGradient(benchmark::State& state) {
    const auto model = ml::make_logistic_regression(64, 10);
    const auto batch = ml::DatasetView::all(dataset())
                           .take(static_cast<std::size_t>(state.range(0)));
    std::vector<float> params(model->param_count(), 0.01F);
    std::vector<float> grad(params.size());
    ml::TrainWorkspace ws;
    for (auto _ : state) {
        support::fill(grad, 0.0F);
        benchmark::DoNotOptimize(
            model->loss_and_gradient(params, batch, ws, grad));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_LogisticGradient)->Arg(10)->Arg(100)->Arg(1000);

void BM_MlpGradient(benchmark::State& state) {
    const auto model = ml::make_mlp(64, 32, 10);
    const auto batch = ml::DatasetView::all(dataset())
                           .take(static_cast<std::size_t>(state.range(0)));
    std::vector<float> params(model->param_count());
    support::Rng rng(2);
    model->init_params(params, rng);
    std::vector<float> grad(params.size());
    ml::TrainWorkspace ws;
    for (auto _ : state) {
        support::fill(grad, 0.0F);
        benchmark::DoNotOptimize(
            model->loss_and_gradient(params, batch, ws, grad));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_MlpGradient)->Arg(10)->Arg(100);

/// The train_heavy shape: 784 features, 10 classes; 100 samples per
/// client shard and 564 test rows.
const ml::Dataset& mnist_shape_dataset() {
    static const ml::Dataset data = ml::make_synthetic_mnist(
        {.samples = 664, .feature_dim = 784, .num_classes = 10, .seed = 1});
    return data;
}

void BM_SgdLocalEpochs(benchmark::State& state) {
    // One train_heavy client's Procedure I, on the path LocalTrainer runs:
    // a 100-sample shard packed once, E = 5, B = 10, workspace reused.
    const auto model = ml::make_logistic_regression(784, 10);
    ml::PackedBatch shard;
    shard.pack(ml::DatasetView::all(mnist_shape_dataset()).take(100));
    ml::SgdParams sgd;
    sgd.epochs = 5;
    sgd.batch_size = 10;
    ml::TrainWorkspace ws;
    std::vector<float> init(model->param_count(), 0.01F);
    std::vector<float> params;
    for (auto _ : state) {
        params = init;
        support::Rng rng(3);
        benchmark::DoNotOptimize(
            ml::sgd_train(*model, params, shard, sgd, rng, ws));
    }
}
BENCHMARK(BM_SgdLocalEpochs)->Unit(benchmark::kMillisecond);

void BM_AccuracyEval(benchmark::State& state) {
    // Args = {feature dim, rows}; {784, 564} is train_heavy's test pass.
    // Evaluation fans out over the global pool.
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto rows = static_cast<std::size_t>(state.range(1));
    const auto model = ml::make_logistic_regression(dim, 10);
    const auto view = ml::DatasetView::all(dim == 784 ? mnist_shape_dataset()
                                                      : dataset())
                          .take(rows);
    std::vector<float> params(model->param_count(), 0.01F);
    for (auto _ : state)
        benchmark::DoNotOptimize(model->accuracy(params, view));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(1));
}
BENCHMARK(BM_AccuracyEval)
    ->Args({64, 100})->Args({64, 1000})->Args({784, 564})
    ->Unit(benchmark::kMicrosecond);

/// A round's two combines, the provisional mean and Eq. 1, over Args =
/// {updates, width}.  Width 7850 is the logistic model's on 784 features:
/// 4 updates is secure_upload's round and 32 train_heavy's (one inline
/// chunk each), 192 cluster_heavy's (six chunks across the global pool).
void BM_Aggregation(benchmark::State& state) {
    std::vector<fl::GradientUpdate> updates(
        static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < updates.size(); ++i) {
        updates[i].client = static_cast<fl::NodeId>(i);
        updates[i].weights.assign(static_cast<std::size_t>(state.range(1)),
                                  static_cast<float>(i));
        updates[i].num_samples = 60;
    }
    std::vector<double> theta(updates.size(), 0.5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(fl::simple_average(updates));
        benchmark::DoNotOptimize(fl::weighted_aggregate(updates, theta));
    }
}
BENCHMARK(BM_Aggregation)
    ->Args({10, 650})
    ->Args({100, 650})
    ->Args({4, 7850})
    ->Args({32, 7850})
    ->Args({192, 7850})
    ->Unit(benchmark::kMicrosecond);

/// The robust rules of the Aggregator strategy API: per-coordinate sorting
/// (trimmed mean) vs selection (median) over a round's update set -- the
/// T_gl cost of swapping line 24 for a Byzantine-robust combine.
void BM_RobustAggregators(benchmark::State& state) {
    std::vector<fl::GradientUpdate> updates(
        static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < updates.size(); ++i) {
        updates[i].client = static_cast<fl::NodeId>(i);
        updates[i].weights.assign(650, static_cast<float>(i));
        updates[i].num_samples = 60;
    }
    const auto trimmed = core::make_aggregator("trimmed_mean", 0.1);
    const auto median = core::make_aggregator("median");
    for (auto _ : state) {
        benchmark::DoNotOptimize(trimmed->aggregate(updates));
        benchmark::DoNotOptimize(median->aggregate(updates));
    }
}
BENCHMARK(BM_RobustAggregators)->Arg(10)->Arg(100);

}  // namespace
