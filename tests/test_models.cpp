// Models: gradient correctness (finite differences), loss behaviour,
// trainability on separable data, for both logistic regression and MLP.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "ml/model.hpp"
#include "ml/synthetic_mnist.hpp"
#include "support/parallel.hpp"
#include "support/vecmath.hpp"

namespace {

namespace ml = fairbfl::ml;
using fairbfl::support::Rng;

struct ModelFactory {
    const char* label;
    std::unique_ptr<ml::Model> (*make)(std::size_t dim, std::size_t classes);
};

std::unique_ptr<ml::Model> make_lr(std::size_t dim, std::size_t classes) {
    return ml::make_logistic_regression(dim, classes, 1e-3);
}
std::unique_ptr<ml::Model> make_mlp_small(std::size_t dim,
                                          std::size_t classes) {
    return ml::make_mlp(dim, 8, classes, 1e-3);
}

class ModelTest : public ::testing::TestWithParam<ModelFactory> {
protected:
    static ml::Dataset make_data() {
        return ml::make_synthetic_mnist({.samples = 300,
                                         .feature_dim = 6,
                                         .num_classes = 3,
                                         .noise_sigma = 0.2,
                                         .seed = 21});
    }
};

TEST_P(ModelTest, GradientMatchesFiniteDifferences) {
    const auto data = make_data();
    auto model = GetParam().make(data.feature_dim(), data.num_classes());
    const auto batch = ml::DatasetView::all(data).take(16);

    std::vector<float> params(model->param_count());
    Rng rng(3);
    model->init_params(params, rng);
    // Nudge params off zero-bias so all gradient paths are active.
    for (auto& p : params) p += 0.05F;

    std::vector<float> grad(params.size(), 0.0F);
    (void)model->loss_and_gradient(params, batch, grad);

    // Spot-check a spread of coordinates.
    const double eps = 1e-3;
    for (std::size_t i = 0; i < params.size();
         i += std::max<std::size_t>(1, params.size() / 17)) {
        std::vector<float> plus(params);
        std::vector<float> minus(params);
        plus[i] += static_cast<float>(eps);
        minus[i] -= static_cast<float>(eps);
        const double numeric =
            (model->loss(plus, batch) - model->loss(minus, batch)) /
            (2.0 * eps);
        EXPECT_NEAR(grad[i], numeric, 5e-3)
            << GetParam().label << " coordinate " << i;
    }
}

TEST_P(ModelTest, LossAndGradientAgreeOnLossValue) {
    const auto data = make_data();
    auto model = GetParam().make(data.feature_dim(), data.num_classes());
    const auto batch = ml::DatasetView::all(data).take(32);
    std::vector<float> params(model->param_count());
    Rng rng(4);
    model->init_params(params, rng);
    std::vector<float> grad(params.size(), 0.0F);
    const double from_grad_call = model->loss_and_gradient(params, batch, grad);
    EXPECT_NEAR(from_grad_call, model->loss(params, batch), 1e-9);
}

TEST_P(ModelTest, InitialLossNearLogC) {
    const auto data = make_data();
    auto model = GetParam().make(data.feature_dim(), data.num_classes());
    std::vector<float> params(model->param_count());
    Rng rng(5);
    model->init_params(params, rng);
    const double loss = model->loss(params, ml::DatasetView::all(data));
    EXPECT_NEAR(loss, std::log(3.0), 0.25);  // near-uniform predictions
}

TEST_P(ModelTest, GradientDescentReducesLossAndFits) {
    const auto data = make_data();
    auto model = GetParam().make(data.feature_dim(), data.num_classes());
    const auto view = ml::DatasetView::all(data);
    std::vector<float> params(model->param_count());
    Rng rng(6);
    model->init_params(params, rng);

    const double initial_loss = model->loss(params, view);
    std::vector<float> grad(params.size());
    for (int step = 0; step < 150; ++step) {
        fairbfl::support::fill(grad, 0.0F);
        (void)model->loss_and_gradient(params, view, grad);
        fairbfl::support::axpy(-0.5F, grad, params);
    }
    EXPECT_LT(model->loss(params, view), initial_loss * 0.5);
    EXPECT_GT(model->accuracy(params, view), 0.85) << GetParam().label;
}

TEST_P(ModelTest, PredictIsArgmaxConsistentWithAccuracy) {
    // accuracy() fans fixed chunks out over the pool; at every view size
    // around the chunk boundary, and at train_heavy's 564 test rows, it
    // must equal the serial per-sample count on 1 and 4 threads.
    const auto data = ml::make_synthetic_mnist({.samples = 600,
                                                .feature_dim = 6,
                                                .num_classes = 3,
                                                .noise_sigma = 0.6,
                                                .seed = 21});
    auto model = GetParam().make(data.feature_dim(), data.num_classes());
    std::vector<float> params(model->param_count());
    Rng rng(7);
    model->init_params(params, rng);
    fairbfl::support::ThreadPool pool1(1);
    fairbfl::support::ThreadPool pool4(4);
    constexpr std::size_t chunk = ml::Model::kAccuracyChunk;
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, chunk - 1, chunk, chunk + 1,
          std::size_t{564}}) {
        const auto view = ml::DatasetView::all(data).take(n);
        std::size_t correct = 0;
        for (std::size_t i = 0; i < view.size(); ++i) {
            const auto pred = model->predict(params, view.features_of(i));
            ASSERT_GE(pred, 0);
            ASSERT_LT(pred, 3);
            if (pred == view.label_of(i)) ++correct;
        }
        const double want =
            n == 0 ? 0.0
                   : static_cast<double>(correct) / static_cast<double>(n);
        EXPECT_EQ(model->accuracy(params, view, pool1), want) << n;
        EXPECT_EQ(model->accuracy(params, view, pool4), want) << n;
    }
}

TEST_P(ModelTest, EmptyBatchContributesNothing) {
    const auto data = make_data();
    auto model = GetParam().make(data.feature_dim(), data.num_classes());
    std::vector<float> params(model->param_count(), 0.1F);
    const ml::DatasetView empty(data, {});
    std::vector<float> grad(params.size(), 0.0F);
    EXPECT_DOUBLE_EQ(model->loss_and_gradient(params, empty, grad), 0.0);
    for (const float g : grad) EXPECT_FLOAT_EQ(g, 0.0F);
    EXPECT_DOUBLE_EQ(model->accuracy(params, empty), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Models, ModelTest,
    ::testing::Values(ModelFactory{"logistic", &make_lr},
                      ModelFactory{"mlp", &make_mlp_small}),
    [](const auto& param_info) { return param_info.param.label; });

TEST(ModelShapes, ParamCounts) {
    EXPECT_EQ(ml::make_logistic_regression(64, 10)->param_count(),
              64U * 10U + 10U);
    EXPECT_EQ(ml::make_mlp(64, 32, 10)->param_count(),
              32U * 64U + 32U + 10U * 32U + 10U);
}

TEST(ModelShapes, InitIsDeterministic) {
    auto model = ml::make_logistic_regression(8, 3);
    std::vector<float> a(model->param_count());
    std::vector<float> b(model->param_count());
    Rng ra(9);
    Rng rb(9);
    model->init_params(a, ra);
    model->init_params(b, rb);
    EXPECT_EQ(a, b);
}

}  // namespace
