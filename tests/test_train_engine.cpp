// Batched local-learning engine: bit-equivalence against the per-sample
// reference path, across batch sizes, thread counts, models, and whole
// fixed-seed rounds.
//
// The refactor's contract is exact: packed-batch kernels (support::gemv_rows
// / outer_rows_l2 and friends) preserve per-sample accumulation order, so
// every loss, gradient, weight vector and series point must equal the
// reference path bit for bit -- EXPECT_EQ on floats/doubles, no tolerances.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "core/system.hpp"
#include "fl/local_trainer.hpp"
#include "ml/optimizer.hpp"
#include "ml/synthetic_mnist.hpp"
#include "support/vecmath.hpp"

namespace {

namespace ml = fairbfl::ml;
namespace fl = fairbfl::fl;
namespace core = fairbfl::core;
using fairbfl::support::Rng;
using fairbfl::support::ThreadPool;

struct EngineFactory {
    const char* label;
    std::unique_ptr<ml::Model> (*make)(std::size_t dim, std::size_t classes);
};

std::unique_ptr<ml::Model> make_lr(std::size_t dim, std::size_t classes) {
    return ml::make_logistic_regression(dim, classes, 1e-3);
}
std::unique_ptr<ml::Model> make_mlp_small(std::size_t dim,
                                          std::size_t classes) {
    return ml::make_mlp(dim, 13, classes, 1e-3);
}

class TrainEngineTest : public ::testing::TestWithParam<EngineFactory> {
protected:
    // Odd feature_dim exercises the gemv column-unroll tail; 10 classes
    // exercise the 4+4+2 row blocking; the MLP's 13 hidden units hit the
    // 4+4+4+1 path.
    static ml::Dataset make_data(std::size_t samples = 53) {
        return ml::make_synthetic_mnist({.samples = samples,
                                         .feature_dim = 39,
                                         .num_classes = 10,
                                         .noise_sigma = 0.3,
                                         .seed = 77});
    }

    static std::vector<float> init_params(const ml::Model& model,
                                          std::uint64_t seed) {
        std::vector<float> params(model.param_count());
        Rng rng(seed);
        model.init_params(params, rng);
        return params;
    }
};

TEST_P(TrainEngineTest, BatchedLossAndGradientBitEqualsReference) {
    const auto data = make_data();
    auto model = GetParam().make(data.feature_dim(), data.num_classes());
    const auto view = ml::DatasetView::all(data);
    const auto params = init_params(*model, 5);

    ml::PackedBatch pack;
    pack.pack(view);
    ml::TrainWorkspace ws_ref;
    ml::TrainWorkspace ws_bat;

    for (const std::size_t batch_size :
         {std::size_t{1}, std::size_t{7}, std::size_t{32}, view.size()}) {
        const auto batch = view.take(batch_size);
        // The reference accumulates into a zeroed gradient; the batched
        // kernel writes its gradient, so NaN left in the buffer must not
        // survive.
        std::vector<float> grad_ref(model->param_count(), 0.0F);
        std::vector<float> grad_bat(model->param_count(),
                                    std::numeric_limits<float>::quiet_NaN());
        const double loss_ref =
            model->loss_and_gradient(params, batch, ws_ref, grad_ref);

        std::vector<std::size_t> rows(batch_size);
        for (std::size_t i = 0; i < batch_size; ++i) rows[i] = i;
        const double loss_bat = model->loss_and_gradient_batch(
            params, pack, rows, ws_bat, grad_bat);

        EXPECT_EQ(loss_ref, loss_bat)
            << GetParam().label << " B=" << batch_size;
        ASSERT_EQ(0, std::memcmp(grad_ref.data(), grad_bat.data(),
                                 grad_ref.size() * sizeof(float)))
            << GetParam().label << " B=" << batch_size;
    }
}

TEST_P(TrainEngineTest, BatchedEmptyRowsWritesZeroGradient) {
    const auto data = make_data();
    auto model = GetParam().make(data.feature_dim(), data.num_classes());
    const auto params = init_params(*model, 5);
    ml::PackedBatch pack;
    pack.pack(ml::DatasetView::all(data));
    ml::TrainWorkspace ws;
    std::vector<float> grad(model->param_count(),
                            std::numeric_limits<float>::quiet_NaN());
    EXPECT_EQ(model->loss_and_gradient_batch(params, pack, {}, ws, grad), 0.0)
        << GetParam().label;
    const std::vector<float> zeros(model->param_count(), 0.0F);
    EXPECT_EQ(0, std::memcmp(grad.data(), zeros.data(),
                             grad.size() * sizeof(float)))
        << GetParam().label;
}

TEST_P(TrainEngineTest, BatchedSgdTrainBitEqualsReference) {
    const auto data = make_data();
    auto model = GetParam().make(data.feature_dim(), data.num_classes());
    const auto view = ml::DatasetView::all(data);

    for (const std::size_t batch_size :
         {std::size_t{1}, std::size_t{7}, std::size_t{32}, view.size()}) {
        ml::SgdParams sgd;
        sgd.learning_rate = 0.05;
        sgd.epochs = 3;
        sgd.batch_size = batch_size;

        auto p_ref = init_params(*model, 9);
        auto p_bat = p_ref;
        ml::TrainWorkspace ws_ref;
        ml::TrainWorkspace ws_bat;
        ml::PackedBatch pack;
        pack.pack(view);

        Rng rng_ref(31);
        Rng rng_bat(31);
        const auto res_ref =
            ml::sgd_train(*model, p_ref, view, sgd, rng_ref, ws_ref);
        const auto res_bat =
            ml::sgd_train(*model, p_bat, pack, sgd, rng_bat, ws_bat);

        EXPECT_EQ(res_ref.steps_taken, res_bat.steps_taken);
        EXPECT_EQ(res_ref.final_loss, res_bat.final_loss)
            << GetParam().label << " B=" << batch_size;
        EXPECT_EQ(p_ref, p_bat) << GetParam().label << " B=" << batch_size;
    }
}

TEST_P(TrainEngineTest, BatchedProximalSgdBitEqualsReference) {
    const auto data = make_data();
    auto model = GetParam().make(data.feature_dim(), data.num_classes());
    const auto view = ml::DatasetView::all(data);
    const auto anchor = init_params(*model, 2);

    ml::SgdParams sgd;
    sgd.epochs = 2;
    sgd.batch_size = 10;
    sgd.prox_mu = 0.5;  // FedProx pull, now a fused vecmath kernel

    auto p_ref = anchor;
    auto p_bat = anchor;
    ml::TrainWorkspace ws;
    ml::PackedBatch pack;
    pack.pack(view);
    Rng rng_ref(8);
    Rng rng_bat(8);
    (void)ml::sgd_train(*model, p_ref, view, sgd, rng_ref, ws, anchor);
    (void)ml::sgd_train(*model, p_bat, pack, sgd, rng_bat, ws, anchor);
    EXPECT_EQ(p_ref, p_bat) << GetParam().label;
}

TEST_P(TrainEngineTest, WorkspaceOverloadMatchesAllocatingOverload) {
    // Satellite pin: the reference path reusing workspace scratch must not
    // drift from the historical allocate-per-call overload.
    const auto data = make_data();
    auto model = GetParam().make(data.feature_dim(), data.num_classes());
    const auto view = ml::DatasetView::all(data);
    ml::SgdParams sgd;
    sgd.epochs = 2;
    sgd.batch_size = 10;

    auto p_alloc = init_params(*model, 4);
    auto p_ws = p_alloc;
    Rng rng_a(6);
    Rng rng_b(6);
    const auto res_alloc = ml::sgd_train(*model, p_alloc, view, sgd, rng_a);
    ml::TrainWorkspace ws;
    const auto res_ws = ml::sgd_train(*model, p_ws, view, sgd, rng_b, ws);
    EXPECT_EQ(res_alloc.final_loss, res_ws.final_loss);
    EXPECT_EQ(p_alloc, p_ws);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, TrainEngineTest,
    ::testing::Values(EngineFactory{"logistic", &make_lr},
                      EngineFactory{"mlp", &make_mlp_small}),
    [](const auto& param_info) { return param_info.param.label; });

TEST(PackedBatch, GathersRowsAndValidatesCache) {
    const auto data = ml::make_synthetic_mnist(
        {.samples = 20, .feature_dim = 7, .num_classes = 3, .seed = 3});
    const auto split = ml::train_test_split(data, 0.4, 11);

    ml::PackedBatch pack;
    pack.pack(split.train);
    ASSERT_EQ(pack.size(), split.train.size());
    ASSERT_EQ(pack.feature_dim(), 7U);
    for (std::size_t i = 0; i < pack.size(); ++i) {
        const auto expect = split.train.features_of(i);
        const auto got = pack.row(i);
        ASSERT_EQ(0, std::memcmp(expect.data(), got.data(),
                                 expect.size() * sizeof(float)));
        EXPECT_EQ(pack.label(i), split.train.label_of(i));
    }
    EXPECT_TRUE(pack.packed_from(split.train));
    EXPECT_FALSE(pack.packed_from(split.test));
}

// --- LocalTrainer: batched x thread-count equivalence ----------------------
//
// The oracle is Client::local_update without a workspace or pack: the
// per-sample sgd_train(DatasetView) path.  Every trainer slot must equal
// it bit for bit, on any pool size.

struct TrainerWorld {
    core::Environment env;
    std::vector<fl::Client> clients;
};

TrainerWorld make_world(core::ModelKind kind) {
    core::EnvironmentConfig cfg;
    cfg.data.samples = 240;
    cfg.data.feature_dim = 23;
    cfg.data.seed = 13;
    cfg.partition.num_clients = 12;
    cfg.partition.seed = 13;
    cfg.model = kind;
    cfg.mlp_hidden = 9;
    TrainerWorld world{core::build_environment(cfg), {}};
    world.clients = world.env.make_clients();
    return world;
}

TEST(LocalTrainer, BatchedEqualsReferenceAcrossThreadCountsAndRounds) {
    for (const auto kind :
         {core::ModelKind::kLogistic, core::ModelKind::kMlp}) {
        const TrainerWorld world = make_world(kind);
        std::vector<float> weights(world.env.model->param_count());
        Rng rng(1);
        world.env.model->init_params(weights, rng);
        std::vector<std::size_t> selected{0, 2, 3, 5, 7, 11};
        ml::SgdParams sgd;
        sgd.epochs = 2;
        sgd.batch_size = 6;

        ThreadPool pool1(1);
        ThreadPool pool4(4);
        fl::LocalTrainer batched1(fl::LocalTrainer::Options{.pool = &pool1});
        fl::LocalTrainer batched4(fl::LocalTrainer::Options{.pool = &pool4});

        // Several rounds so the per-client pack/workspace caches are
        // exercised on reuse, not just first touch.
        for (std::uint64_t round = 0; round < 3; ++round) {
            const auto bat1 = batched1.run(world.clients, selected, weights,
                                           sgd, round, 42);
            const auto bat4 = batched4.run(world.clients, selected, weights,
                                           sgd, round, 42);
            ASSERT_EQ(bat1.size(), selected.size());
            ASSERT_EQ(bat4.size(), selected.size());
            for (std::size_t i = 0; i < selected.size(); ++i) {
                const auto ref = world.clients[selected[i]].local_update(
                    weights, sgd, round, 42);
                EXPECT_EQ(ref, bat1[i]) << "round " << round << " i " << i;
                EXPECT_EQ(ref, bat4[i]) << "round " << round << " i " << i;
            }
        }
    }
}

TEST(LocalTrainer, BatchedEqualsReferenceAtTheBenchmarkShape) {
    // The train_heavy client: 784 features x 10 classes (logistic), E = 5,
    // B = 10.  The 100-sample shard runs ten full batches per epoch; the
    // 25-sample shard ends every epoch in a partial batch of 5.
    const auto data = ml::make_synthetic_mnist(
        {.samples = 125, .feature_dim = 784, .num_classes = 10, .seed = 42});
    const auto model = ml::make_logistic_regression(784, 10);
    std::vector<std::size_t> full(100);
    std::vector<std::size_t> partial(25);
    std::iota(full.begin(), full.end(), std::size_t{0});
    std::iota(partial.begin(), partial.end(), std::size_t{100});
    const std::vector<ml::DatasetView> shards{
        ml::DatasetView(data, full), ml::DatasetView(data, partial)};
    const auto clients = fl::make_clients(*model, shards);
    std::vector<float> weights(model->param_count());
    Rng rng(3);
    model->init_params(weights, rng);
    ml::SgdParams sgd;
    sgd.learning_rate = 0.05;
    sgd.epochs = 5;
    sgd.batch_size = 10;
    const std::vector<std::size_t> selected{0, 1};

    ThreadPool pool1(1);
    ThreadPool pool4(4);
    fl::LocalTrainer batched1(fl::LocalTrainer::Options{.pool = &pool1});
    fl::LocalTrainer batched4(fl::LocalTrainer::Options{.pool = &pool4});
    for (std::uint64_t round = 0; round < 2; ++round) {
        const auto bat1 =
            batched1.run(clients, selected, weights, sgd, round, 42);
        const auto bat4 =
            batched4.run(clients, selected, weights, sgd, round, 42);
        ASSERT_EQ(bat1.size(), selected.size());
        ASSERT_EQ(bat4.size(), selected.size());
        const std::size_t bytes = weights.size() * sizeof(float);
        std::vector<fl::GradientUpdate> ref;
        for (const std::size_t id : selected)
            ref.push_back(clients[id].local_update(weights, sgd, round, 42));
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(ref[i], bat1[i]) << "round " << round << " i " << i;
            EXPECT_EQ(ref[i], bat4[i]) << "round " << round << " i " << i;
            EXPECT_EQ(0, std::memcmp(ref[i].weights.data(),
                                     bat1[i].weights.data(), bytes));
            EXPECT_EQ(0, std::memcmp(ref[i].weights.data(),
                                     bat4[i].weights.data(), bytes));
        }
        weights = ref[0].weights;  // the next round starts elsewhere
    }
}

}  // namespace
