// Experiment harness: environment building, unified runs, metric math, and
// the headline cross-system orderings (the shapes behind Figures 4a/4b).
// Runs go through run_system (core/system.hpp); the deprecated free
// functions are covered by the equivalence tests in test_system.cpp.

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/system.hpp"

namespace {

namespace core = fairbfl::core;
namespace ml = fairbfl::ml;

core::EnvironmentConfig small_env() {
    core::EnvironmentConfig config;
    config.data.samples = 600;
    config.data.feature_dim = 8;
    config.data.num_classes = 4;
    config.data.noise_sigma = 0.25;
    config.data.seed = 71;
    config.partition.scheme = ml::PartitionScheme::kIid;
    config.partition.num_clients = 10;
    config.partition.seed = 71;
    return config;
}

fairbfl::fl::FlConfig small_fl() {
    fairbfl::fl::FlConfig config;
    config.client_ratio = 0.5;
    config.rounds = 10;
    config.sgd.learning_rate = 0.1;
    config.sgd.epochs = 3;
    config.sgd.batch_size = 10;
    config.seed = 42;
    return config;
}

TEST(Environment, BuildsConsistentWorld) {
    const auto env = core::build_environment(small_env());
    EXPECT_EQ(env.dataset->size(), 600U);
    EXPECT_EQ(env.shards.size(), 10U);
    EXPECT_EQ(env.test.size(), 90U);  // 15% default test fraction
    EXPECT_NE(env.model, nullptr);
    std::size_t train_total = 0;
    for (const auto& shard : env.shards) train_total += shard.size();
    EXPECT_EQ(train_total, env.train.size());
    const auto clients = env.make_clients();
    EXPECT_EQ(clients.size(), 10U);
}

TEST(Environment, MlpVariantBuilds) {
    auto config = small_env();
    config.model = core::ModelKind::kMlp;
    config.mlp_hidden = 16;
    const auto env = core::build_environment(config);
    EXPECT_EQ(env.model->name(), "mlp");
}

TEST(SystemRun, FinalizeComputesAggregates) {
    core::SystemRun run;
    run.series = {{0, 2.0, 0.0, 0.5},
                  {1, 4.0, 0.0, 0.7},
                  {2, 6.0, 0.0, 0.9}};
    run.finalize();
    EXPECT_DOUBLE_EQ(run.average_delay, 4.0);
    EXPECT_NEAR(run.average_accuracy, 0.7, 1e-12);
    EXPECT_DOUBLE_EQ(run.final_accuracy, 0.9);
    EXPECT_DOUBLE_EQ(run.series[2].elapsed_seconds, 12.0);
}

TEST(SystemRun, ConvergenceDetected) {
    core::SystemRun run;
    for (std::uint64_t r = 0; r < 10; ++r)
        run.series.push_back({r, 1.0, 0.0, r < 3 ? 0.1 * double(r) : 0.9});
    run.finalize();
    EXPECT_NE(run.converged_round, fairbfl::support::ConvergenceDetector::npos);
    EXPECT_GT(run.converged_elapsed_seconds, 0.0);
}

TEST(SystemRun, FinalizeSafeOnEmptySeries) {
    core::SystemRun run;
    run.finalize();
    EXPECT_EQ(run.average_delay, 0.0);
    EXPECT_EQ(run.average_accuracy, 0.0);
    EXPECT_EQ(run.final_accuracy, 0.0);
    EXPECT_EQ(run.converged_round, fairbfl::support::ConvergenceDetector::npos);
    EXPECT_EQ(run.converged_elapsed_seconds, 0.0);
    run.finalize();  // twice on empty must be just as safe
    EXPECT_EQ(run.average_delay, 0.0);
}

TEST(SystemRun, FinalizeIsIdempotent) {
    core::SystemRun run;
    for (std::uint64_t r = 0; r < 10; ++r)
        run.series.push_back({r, 2.0, 0.0, r < 3 ? 0.1 * double(r) : 0.8});
    run.finalize();
    const core::SystemRun first = run;
    run.finalize();  // a second call must not move any aggregate
    EXPECT_EQ(run.average_delay, first.average_delay);
    EXPECT_EQ(run.average_accuracy, first.average_accuracy);
    EXPECT_EQ(run.final_accuracy, first.final_accuracy);
    EXPECT_EQ(run.converged_round, first.converged_round);
    EXPECT_EQ(run.converged_elapsed_seconds, first.converged_elapsed_seconds);
    for (std::size_t i = 0; i < run.series.size(); ++i)
        EXPECT_EQ(run.series[i].elapsed_seconds,
                  first.series[i].elapsed_seconds);
}

TEST(SystemRun, FinalizeRecomputesAfterSeriesShrinks) {
    core::SystemRun run;
    run.series = {{0, 2.0, 0.0, 0.9}, {1, 4.0, 0.0, 0.9}};
    run.finalize();
    run.series.clear();
    run.finalize();  // stale aggregates must not survive
    EXPECT_EQ(run.average_delay, 0.0);
    EXPECT_EQ(run.final_accuracy, 0.0);
}

TEST(Harness, FedAvgRunProducesLearningSeries) {
    const auto env = core::build_environment(small_env());
    const auto run = core::run_system(env, core::fedavg_spec(small_fl(), core::DelayParams{}));
    ASSERT_EQ(run.series.size(), 10U);
    EXPECT_GT(run.series.back().accuracy, run.series.front().accuracy);
    EXPECT_GT(run.average_delay, 0.0);
    EXPECT_EQ(run.name, "FedAvg");
}

TEST(Harness, FairBflBetweenBlockchainAndFedAvgOnDelay) {
    // The Figure 4a ordering at paper-like scale (shrunk rounds).
    const auto env = core::build_environment([] {
        auto c = small_env();
        c.partition.num_clients = 100;
        c.data.samples = 3000;
        return c;
    }());

    auto fl_config = small_fl();
    fl_config.client_ratio = 0.1;
    fl_config.rounds = 12;

    const core::DelayParams delay;
    const auto fedavg = core::run_system(env, core::fedavg_spec(fl_config, delay));

    core::FairBflConfig fair_config;
    fair_config.fl = fl_config;
    fair_config.miners = 2;
    fair_config.delay = delay;
    const auto fair = core::run_system(env, core::fairbfl_spec(fair_config));

    core::BlockchainBaselineConfig bc_config;
    bc_config.workers = 100;
    bc_config.miners = 2;
    bc_config.rounds = 12;
    bc_config.delay = delay;
    const auto blockchain = core::run_system(env, core::blockchain_spec(bc_config));

    EXPECT_LT(fedavg.average_delay, fair.average_delay);
    EXPECT_LT(fair.average_delay, blockchain.average_delay);
}

TEST(Harness, FairBflAccuracyTracksFedAvg) {
    // Figure 4b: FAIR ~= FedAvg on accuracy.
    const auto env = core::build_environment(small_env());
    const auto fl_config = small_fl();
    const auto fedavg = core::run_system(env, core::fedavg_spec(fl_config, core::DelayParams{}));
    core::FairBflConfig fair_config;
    fair_config.fl = fl_config;
    const auto fair = core::run_system(env, core::fairbfl_spec(fair_config));
    EXPECT_NEAR(fair.final_accuracy, fedavg.final_accuracy, 0.08);
}

TEST(Harness, FedProxRunsUnderSharedProtocol) {
    const auto env = core::build_environment(small_env());
    fairbfl::fl::FedProxConfig config;
    config.base = small_fl();
    config.prox_mu = 0.05;
    config.drop_percent = 0.1;
    const auto run = core::run_system(env, core::fedprox_spec(config, core::DelayParams{}));
    EXPECT_EQ(run.series.size(), 10U);
    EXPECT_GT(run.final_accuracy, 0.5);
}

TEST(Harness, BlockchainRunHasNoAccuracy) {
    core::BlockchainBaselineConfig config;
    config.workers = 10;
    config.rounds = 5;
    const core::Environment none;  // pure ledger ignores the environment
    const auto run = core::run_system(none, core::blockchain_spec(config));
    for (const auto& point : run.series) EXPECT_EQ(point.accuracy, 0.0);
    EXPECT_GT(run.average_delay, 0.0);
}

TEST(Harness, FlRoundDelayScalesWithParticipants) {
    const auto env = core::build_environment(small_env());
    const core::DelayModel delays{core::DelayParams{}};
    const auto sgd = small_fl().sgd;
    const double few = core::fl_round_delay(delays, env, {0, 1}, sgd, 0, 42);
    const double many = core::fl_round_delay(
        delays, env, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, sgd, 0, 42);
    EXPECT_GE(many, few);  // max over more clients dominates
}

}  // namespace
