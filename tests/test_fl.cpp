// FL primitives: gradient sets (Procedure III semantics), client sampling,
// aggregation rules.

#include <gtest/gtest.h>

#include "fl/aggregation.hpp"
#include "fl/client.hpp"
#include "fl/gradient.hpp"
#include "fl/sampling.hpp"
#include "ml/partition.hpp"
#include "ml/synthetic_mnist.hpp"

namespace {

namespace fl = fairbfl::fl;
namespace ml = fairbfl::ml;

fl::GradientUpdate update_of(fl::NodeId client, std::vector<float> w,
                             std::size_t samples = 10) {
    fl::GradientUpdate u;
    u.client = client;
    u.weights = std::move(w);
    u.num_samples = samples;
    return u;
}

TEST(GradientSet, DeduplicatesByClient) {
    fl::GradientSet set;
    EXPECT_TRUE(set.add(update_of(1, {1.0F})));
    EXPECT_TRUE(set.add(update_of(2, {2.0F})));
    EXPECT_FALSE(set.add(update_of(1, {9.0F})));  // duplicate client
    EXPECT_EQ(set.size(), 2U);
    EXPECT_TRUE(set.contains(1));
    EXPECT_FALSE(set.contains(3));
}

TEST(GradientSet, MergeMirrorsExchangeProcedure) {
    // Two miners with overlapping client sets end up identical after a
    // bidirectional merge (Algorithm 1 lines 16-22).
    fl::GradientSet a;
    a.add(update_of(1, {1.0F}));
    a.add(update_of(2, {2.0F}));
    fl::GradientSet b;
    b.add(update_of(2, {2.0F}));
    b.add(update_of(3, {3.0F}));

    EXPECT_EQ(a.merge(b), 1U);  // only client 3 is new
    EXPECT_EQ(b.merge(a), 1U);  // only client 1 is new
    a.canonicalize();
    b.canonicalize();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.updates()[i].client, b.updates()[i].client);
}

TEST(GradientSet, CanonicalizeSortsById) {
    fl::GradientSet set;
    set.add(update_of(5, {1.0F}));
    set.add(update_of(1, {1.0F}));
    set.add(update_of(3, {1.0F}));
    set.canonicalize();
    EXPECT_EQ(set.updates()[0].client, 1U);
    EXPECT_EQ(set.updates()[1].client, 3U);
    EXPECT_EQ(set.updates()[2].client, 5U);
}

TEST(Sampling, RatioControlsCount) {
    EXPECT_EQ(fl::sample_clients(100, 0.1, 0, 42).size(), 10U);
    EXPECT_EQ(fl::sample_clients(100, 1.0, 0, 42).size(), 100U);
    EXPECT_EQ(fl::sample_clients(100, 0.005, 0, 42).size(), 1U);  // ceil
    EXPECT_EQ(fl::sample_clients(100, 0.0, 0, 42).size(), 1U);    // min 1
}

TEST(Sampling, DistinctSortedInRange) {
    const auto sample = fl::sample_clients(50, 0.3, 7, 42);
    EXPECT_EQ(sample.size(), 15U);
    for (std::size_t i = 1; i < sample.size(); ++i) {
        EXPECT_LT(sample[i - 1], sample[i]);  // sorted and distinct
        EXPECT_LT(sample[i], 50U);
    }
}

TEST(Sampling, DeterministicPerRoundSeedPair) {
    EXPECT_EQ(fl::sample_clients(100, 0.1, 3, 42),
              fl::sample_clients(100, 0.1, 3, 42));
    EXPECT_NE(fl::sample_clients(100, 0.1, 3, 42),
              fl::sample_clients(100, 0.1, 4, 42));
    EXPECT_NE(fl::sample_clients(100, 0.1, 3, 42),
              fl::sample_clients(100, 0.1, 3, 43));
}

TEST(Sampling, ExcludeClientsRemovesBenched) {
    const std::vector<std::size_t> selected{1, 2, 3, 4, 5};
    const auto survivors = fl::exclude_clients(selected, {2, 4, 9});
    EXPECT_EQ(survivors, (std::vector<std::size_t>{1, 3, 5}));
}

TEST(Aggregation, SimpleAverage) {
    std::vector<fl::GradientUpdate> updates{update_of(0, {1.0F, 3.0F}),
                                            update_of(1, {3.0F, 5.0F})};
    const auto avg = fl::simple_average(updates);
    EXPECT_FLOAT_EQ(avg[0], 2.0F);
    EXPECT_FLOAT_EQ(avg[1], 4.0F);
}

TEST(Aggregation, WeightedNormalizesWeights) {
    std::vector<fl::GradientUpdate> updates{update_of(0, {0.0F}),
                                            update_of(1, {10.0F})};
    const auto out = fl::weighted_aggregate(updates, std::vector<double>{1.0, 3.0});
    EXPECT_NEAR(out[0], 7.5F, 1e-5);
}

TEST(Aggregation, SampleWeightedUsesReportedCounts) {
    std::vector<fl::GradientUpdate> updates{update_of(0, {0.0F}, 10),
                                            update_of(1, {10.0F}, 30)};
    const auto out = fl::sample_weighted_average(updates);
    EXPECT_NEAR(out[0], 7.5F, 1e-5);
}

TEST(Aggregation, FairMatchesEquationOne) {
    // p_i = theta_i / sum theta.
    std::vector<fl::GradientUpdate> updates{update_of(0, {1.0F}),
                                            update_of(1, {2.0F}),
                                            update_of(2, {3.0F})};
    const std::vector<double> theta{0.1, 0.2, 0.7};
    const auto out = fl::weighted_aggregate(updates, theta);
    EXPECT_NEAR(out[0], 0.1F * 1.0F + 0.2F * 2.0F + 0.7F * 3.0F, 1e-5);
}

TEST(Aggregation, ErrorsOnBadInput) {
    EXPECT_THROW(
        (void)fl::simple_average(std::span<const fl::GradientUpdate>{}),
        std::invalid_argument);
    EXPECT_THROW(
        (void)fl::simple_average(std::span<const fairbfl::support::RowView>{}),
        std::invalid_argument);
    std::vector<fl::GradientUpdate> ragged{update_of(0, {1.0F}),
                                           update_of(1, {1.0F, 2.0F})};
    EXPECT_THROW((void)fl::simple_average(ragged), std::invalid_argument);
    std::vector<fl::GradientUpdate> ok{update_of(0, {1.0F})};
    EXPECT_THROW((void)fl::weighted_aggregate(ok, std::vector<double>{1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW((void)fl::weighted_aggregate(ok, std::vector<double>{0.0}),
                 std::invalid_argument);
    EXPECT_THROW((void)fl::weighted_aggregate(ok, std::vector<double>{-1.0}),
                 std::invalid_argument);
}

TEST(Client, LocalUpdateImprovesLocalFit) {
    const auto data = ml::make_synthetic_mnist({.samples = 120,
                                                .feature_dim = 6,
                                                .num_classes = 3,
                                                .noise_sigma = 0.2,
                                                .seed = 41});
    auto model = ml::make_logistic_regression(6, 3);
    const fl::Client client(0, *model, ml::DatasetView::all(data));

    std::vector<float> global(model->param_count());
    fairbfl::support::Rng rng(1);
    model->init_params(global, rng);
    const double before = client.local_accuracy(global);

    ml::SgdParams sgd;
    sgd.learning_rate = 0.1;
    sgd.epochs = 10;
    const auto update = client.local_update(global, sgd, /*round=*/0,
                                            /*root_seed=*/42);
    EXPECT_EQ(update.client, 0U);
    EXPECT_EQ(update.num_samples, 120U);
    EXPECT_GT(client.local_accuracy(update.weights), before);
}

TEST(Client, LocalUpdateDeterministicPerRound) {
    const auto data = ml::make_synthetic_mnist({.samples = 60,
                                                .feature_dim = 6,
                                                .num_classes = 3,
                                                .seed = 43});
    auto model = ml::make_logistic_regression(6, 3);
    const fl::Client client(4, *model, ml::DatasetView::all(data));
    std::vector<float> global(model->param_count(), 0.01F);
    ml::SgdParams sgd;
    const auto a = client.local_update(global, sgd, 5, 42);
    const auto b = client.local_update(global, sgd, 5, 42);
    EXPECT_EQ(a.weights, b.weights);
    const auto c = client.local_update(global, sgd, 6, 42);
    EXPECT_NE(a.weights, c.weights);  // new round, new shuffle stream
}

TEST(MakeClients, AssignsSequentialIds) {
    const auto data = ml::make_synthetic_mnist({.samples = 50, .seed = 44});
    auto model = ml::make_logistic_regression(data.feature_dim(), 10);
    const auto view = ml::DatasetView::all(data);
    ml::PartitionParams params;
    params.num_clients = 5;
    params.scheme = ml::PartitionScheme::kIid;
    const auto shards = ml::partition(view, params);
    const auto clients = fl::make_clients(*model, shards);
    ASSERT_EQ(clients.size(), 5U);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(clients[i].id(), i);
        EXPECT_EQ(clients[i].num_samples(), shards[i].size());
    }
}

}  // namespace
