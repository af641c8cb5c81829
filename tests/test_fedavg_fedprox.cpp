// FedAvg / FedProx trainers: learning progress, determinism, straggler
// handling.  FedAvg is the FedProx loop at mu = 0 without stragglers.

#include <gtest/gtest.h>

#include "fl/fedprox.hpp"
#include "fl/local_trainer.hpp"
#include "ml/partition.hpp"
#include "ml/synthetic_mnist.hpp"

namespace {

namespace fl = fairbfl::fl;
namespace ml = fairbfl::ml;

struct World {
    ml::Dataset data;
    std::unique_ptr<ml::Model> model;
    std::vector<ml::DatasetView> shards;
    ml::DatasetView train;
    ml::DatasetView test;

    explicit World(std::size_t clients = 10, std::uint64_t seed = 51,
                   ml::PartitionScheme scheme = ml::PartitionScheme::kIid)
        : data(ml::make_synthetic_mnist({.samples = 600,
                                         .feature_dim = 8,
                                         .num_classes = 4,
                                         .noise_sigma = 0.25,
                                         .seed = seed})) {
        model = ml::make_logistic_regression(8, 4);
        const auto split = ml::train_test_split(data, 0.2, seed);
        train = split.train;
        test = split.test;
        ml::PartitionParams params;
        params.scheme = scheme;
        params.num_clients = clients;
        params.seed = seed;
        shards = ml::partition(train, params);
    }

    [[nodiscard]] std::vector<fl::Client> clients() const {
        return fl::make_clients(*model, shards);
    }
};

fl::FlConfig fast_config() {
    fl::FlConfig config;
    config.client_ratio = 0.5;
    config.rounds = 15;
    config.sgd.learning_rate = 0.1;
    config.sgd.epochs = 3;
    config.sgd.batch_size = 10;
    config.seed = 42;
    return config;
}

/// FedAvg: the FedProx loop at the base config's own mu, no stragglers
/// (what the "fedavg" system runs).
fl::FedProx fedavg(const World& world, const fl::FlConfig& config) {
    return fl::FedProx(*world.model, world.clients(), world.test,
                       fl::FedProxConfig{.base = config,
                                         .prox_mu = config.sgd.prox_mu,
                                         .drop_percent = 0.0});
}

TEST(FedAvg, AccuracyImprovesOverRounds) {
    World world;
    auto trainer = fedavg(world, fast_config());
    const auto history = trainer.run();
    ASSERT_EQ(history.size(), 15U);
    EXPECT_GT(history.back().test_accuracy,
              history.front().test_accuracy + 0.15);
    EXPECT_GT(history.back().test_accuracy, 0.7);
}

TEST(FedAvg, RecordsAreCoherent) {
    World world;
    auto trainer = fedavg(world, fast_config());
    const auto record = trainer.run_round();
    EXPECT_EQ(record.round, 0U);
    EXPECT_EQ(record.selected, 5U);  // 0.5 * 10
    EXPECT_EQ(record.participants, 5U);
    EXPECT_EQ(record.participant_ids.size(), 5U);
    EXPECT_GT(record.mean_local_loss, 0.0);
    EXPECT_EQ(trainer.current_round(), 1U);
}

TEST(FedAvg, DeterministicAcrossInstances) {
    World a;
    World b;
    auto ta = fedavg(a, fast_config());
    auto tb = fedavg(b, fast_config());
    const auto ha = ta.run(5);
    const auto hb = tb.run(5);
    for (std::size_t r = 0; r < 5; ++r)
        EXPECT_DOUBLE_EQ(ha[r].test_accuracy, hb[r].test_accuracy);
    EXPECT_TRUE(std::equal(ta.weights().begin(), ta.weights().end(),
                           tb.weights().begin()));
}

TEST(FedAvg, NonIidIsHarderThanIid) {
    World iid(10, 52, ml::PartitionScheme::kIid);
    World skew(10, 52, ml::PartitionScheme::kLabelShards);
    auto config = fast_config();
    config.rounds = 8;
    auto ti = fedavg(iid, config);
    auto ts = fedavg(skew, config);
    const double acc_iid = ti.run().back().test_accuracy;
    const double acc_skew = ts.run().back().test_accuracy;
    EXPECT_GE(acc_iid, acc_skew - 0.02);  // non-IID never meaningfully wins
}

TEST(FedProx, LearnsComparablyToFedAvg) {
    World world;
    fl::FedProxConfig config;
    config.base = fast_config();
    config.prox_mu = 0.01;
    fl::FedProx trainer(*world.model, world.clients(), world.test, config);
    const auto history = trainer.run();
    EXPECT_GT(history.back().test_accuracy, 0.65);
}

TEST(FedProx, DropPercentZeroKeepsEveryone) {
    World world;
    fl::FedProxConfig config;
    config.base = fast_config();
    config.drop_percent = 0.0;
    fl::FedProx trainer(*world.model, world.clients(), world.test, config);
    const auto record = trainer.run_round();
    EXPECT_EQ(record.participants, record.selected);
    EXPECT_EQ(trainer.total_dropped(), 0U);
}

TEST(FedProx, DropPercentDiscardsStragglers) {
    World world;
    fl::FedProxConfig config;
    config.base = fast_config();
    config.base.rounds = 10;
    config.drop_percent = 0.5;  // aggressive so the effect is visible
    config.keep_partial_work = false;
    fl::FedProx trainer(*world.model, world.clients(), world.test, config);
    std::size_t participants = 0;
    std::size_t selected = 0;
    for (int r = 0; r < 10; ++r) {
        const auto record = trainer.run_round();
        participants += record.participants;
        selected += record.selected;
    }
    EXPECT_LT(participants, selected);
    EXPECT_EQ(trainer.total_dropped(), selected - participants);
}

TEST(FedProx, KeepPartialWorkRetainsStragglers) {
    World world;
    fl::FedProxConfig config;
    config.base = fast_config();
    config.drop_percent = 0.5;
    config.keep_partial_work = true;
    fl::FedProx trainer(*world.model, world.clients(), world.test, config);
    for (int r = 0; r < 5; ++r) {
        const auto record = trainer.run_round();
        EXPECT_EQ(record.participants, record.selected);
    }
    EXPECT_EQ(trainer.total_dropped(), 0U);
}

TEST(FedProx, NeverLosesWholeRound) {
    World world;
    fl::FedProxConfig config;
    config.base = fast_config();
    config.drop_percent = 1.0;  // everyone straggles
    config.keep_partial_work = false;
    fl::FedProx trainer(*world.model, world.clients(), world.test, config);
    const auto record = trainer.run_round();
    EXPECT_GE(record.participants, 1U);
}

TEST(LocalTrainer, ParallelMatchesSerialOrdering) {
    World world;
    const auto clients = world.clients();
    std::vector<float> global(world.model->param_count(), 0.01F);
    const std::vector<std::size_t> selected{1, 3, 5, 7};
    ml::SgdParams sgd;
    fl::LocalTrainer trainer;
    const auto updates = trainer.run(clients, selected, global, sgd, 0, 42);
    ASSERT_EQ(updates.size(), 4U);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(updates[i].client, selected[i]);
        // Must equal a direct serial call (thread count irrelevant).
        const auto direct =
            clients[selected[i]].local_update(global, sgd, 0, 42);
        EXPECT_EQ(updates[i].weights, direct.weights);
    }
}

}  // namespace
