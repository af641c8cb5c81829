// Engineering micro-benchmarks: model gradients, SGD epochs, accuracy
// evaluation, aggregation, and the kernel-table A/B rows (scalar vs the
// runtime-dispatched AVX2+FMA table behind support/simd.hpp).

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

/// CPU-feature report in the JSON header, so an A/B artifact records
/// whether the simd rows could run on the producing host at all.
const bool kContextRegistered = [] {
    namespace simd = support::simd;
    benchmark::AddCustomContext(
        "cpu_avx2_fma", simd::cpu_supports_avx2_fma() ? "true" : "false");
    benchmark::AddCustomContext(
        "simd_table_built",
        simd::detail::avx2_table() != nullptr ? "true" : "false");
    return true;
}();

/// Selects the kernel table for one A/B row (range(1): 0 = scalar,
/// 1 = simd) and restores the pinned scalar default on destruction.
/// Returns false -- after flagging the row skipped -- when the simd leg
/// cannot run on this host.
struct KernelModeRow {
    explicit KernelModeRow(benchmark::State& state)
        : simd_row(state.range(1) != 0) {
        namespace simd = support::simd;
        if (simd_row && (!simd::cpu_supports_avx2_fma() ||
                         simd::detail::avx2_table() == nullptr)) {
            state.SkipWithError("avx2+fma unavailable");
            ok = false;
            return;
        }
        simd::set_mode(simd_row ? simd::Mode::kSimd : simd::Mode::kScalar);
        state.SetLabel(simd_row ? "simd" : "scalar");
    }
    ~KernelModeRow() { support::simd::set_mode(support::simd::Mode::kScalar); }

    bool simd_row;
    bool ok = true;
};

std::vector<float> kernel_operand(std::size_t n, std::uint64_t seed) {
    support::Rng rng(seed);
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    return v;
}

void BM_KernelDot(benchmark::State& state) {
    const KernelModeRow row(state);
    if (!row.ok) return;
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = kernel_operand(n, 7);
    const auto y = kernel_operand(n, 8);
    for (auto _ : state) benchmark::DoNotOptimize(support::dot(x, y));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_KernelDot)
    ->Args({784, 0})->Args({784, 1})->Args({7850, 0})->Args({7850, 1});

void BM_KernelAxpy(benchmark::State& state) {
    const KernelModeRow row(state);
    if (!row.ok) return;
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
BENCHMARK(BM_KernelAxpy)
    ->Args({784, 0})->Args({784, 1})->Args({7850, 0})->Args({7850, 1});

void BM_KernelGemv(benchmark::State& state) {
    // The logistic forward shape: 10 classes x `dim` features.
    const KernelModeRow row(state);
    if (!row.ok) return;
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
BENCHMARK(BM_KernelGemv)
    ->Args({784, 0})->Args({784, 1})->Args({7850, 0})->Args({7850, 1});

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
    const KernelModeRow row(state);
    if (!row.ok) return;
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
BENCHMARK(BM_KernelGemvRows)->Args({784, 0})->Args({784, 1});

void BM_KernelOuterRows(benchmark::State& state) {
    // The batched logistic backward: one call per mini-batch.
    const KernelModeRow row(state);
    if (!row.ok) return;
    const auto dim = static_cast<std::size_t>(state.range(0));
    MiniBatch batch(dim);
    std::vector<float> grad(MiniBatch::kClasses * dim, 0.0F);
    for (auto _ : state) {
        support::outer_accumulate_rows(batch.d, batch.xs, MiniBatch::kClasses,
                                       dim, grad);
        benchmark::DoNotOptimize(grad.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(MiniBatch::kSamples));
}
BENCHMARK(BM_KernelOuterRows)->Args({784, 0})->Args({784, 1});

void BM_KernelSketch(benchmark::State& state) {
    // The GradientIndex build step: project 64 gradient rows of `dim`
    // dims down to k = 48 through the seeded Gaussian matrix.
    const KernelModeRow row(state);
    if (!row.ok) return;
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto projection = support::gaussian_projection(dim, 48, 42);
    std::vector<std::vector<float>> points(64);
    for (std::size_t i = 0; i < points.size(); ++i)
        points[i] = kernel_operand(dim, 100 + i);
    for (auto _ : state)
        benchmark::DoNotOptimize(support::project_rows(projection, points));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(points.size()) *
                            state.range(0));
}
BENCHMARK(BM_KernelSketch)->Args({784, 0})->Args({784, 1});

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
    for (auto _ : state) {
        support::fill(grad, 0.0F);
        benchmark::DoNotOptimize(
            model->loss_and_gradient(params, batch, grad));
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
    for (auto _ : state) {
        support::fill(grad, 0.0F);
        benchmark::DoNotOptimize(
            model->loss_and_gradient(params, batch, grad));
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

void BM_Aggregation(benchmark::State& state) {
    std::vector<fl::GradientUpdate> updates(
        static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < updates.size(); ++i) {
        updates[i].client = static_cast<fl::NodeId>(i);
        updates[i].weights.assign(650, static_cast<float>(i));
        updates[i].num_samples = 60;
    }
    std::vector<double> theta(updates.size(), 0.5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(fl::simple_average(updates));
        benchmark::DoNotOptimize(fl::fair_aggregate(updates, theta));
    }
}
BENCHMARK(BM_Aggregation)->Arg(10)->Arg(100);

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
