// The pluggable strategy API: registry lookup and error paths, bit-for-bit
// equivalence between run_system specs and hand-driven round loops,
// run_suite concurrency, and the robust Aggregator rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/system.hpp"

namespace {

namespace core = fairbfl::core;
namespace fl = fairbfl::fl;
namespace ml = fairbfl::ml;

core::EnvironmentConfig small_env() {
    core::EnvironmentConfig config;
    config.data.samples = 600;
    config.data.feature_dim = 8;
    config.data.num_classes = 4;
    config.data.noise_sigma = 0.25;
    config.data.seed = 71;
    config.partition.scheme = ml::PartitionScheme::kLabelShards;
    config.partition.num_clients = 10;
    config.partition.seed = 71;
    return config;
}

fl::FlConfig small_fl() {
    fl::FlConfig config;
    config.client_ratio = 0.5;
    config.rounds = 8;
    config.sgd.learning_rate = 0.1;
    config.sgd.epochs = 3;
    config.sgd.batch_size = 10;
    config.seed = 42;
    return config;
}

void expect_identical(const core::SystemRun& a, const core::SystemRun& b) {
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.series.size(), b.series.size());
    for (std::size_t i = 0; i < a.series.size(); ++i) {
        EXPECT_EQ(a.series[i].round, b.series[i].round);
        EXPECT_EQ(a.series[i].delay_seconds, b.series[i].delay_seconds);
        EXPECT_EQ(a.series[i].elapsed_seconds, b.series[i].elapsed_seconds);
        EXPECT_EQ(a.series[i].accuracy, b.series[i].accuracy);
    }
    EXPECT_EQ(a.average_delay, b.average_delay);
    EXPECT_EQ(a.average_accuracy, b.average_accuracy);
    EXPECT_EQ(a.final_accuracy, b.final_accuracy);
    EXPECT_EQ(a.converged_round, b.converged_round);
    EXPECT_EQ(a.converged_elapsed_seconds, b.converged_elapsed_seconds);
}

// --- Registry -------------------------------------------------------------

TEST(SystemRegistry, GlobalHasTheBuiltins) {
    auto& registry = core::SystemRegistry::global();
    for (const char* name :
         {"fedavg", "fedprox", "fairbfl", "fairbfl_discard", "pure_fl",
          "vanilla_bfl", "blockchain"}) {
        EXPECT_TRUE(registry.contains(name)) << name;
    }
    const auto names = registry.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SystemRegistry, UnknownNameThrowsListingKnownSystems) {
    const auto env = core::build_environment(small_env());
    core::SystemSpec spec;
    spec.system = "does_not_exist";
    try {
        (void)core::run_system(env, spec);
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("does_not_exist"), std::string::npos);
        EXPECT_NE(message.find("fairbfl"), std::string::npos);
        EXPECT_NE(message.find("blockchain"), std::string::npos);
    }
}

TEST(SystemRegistry, DuplicateRegistrationThrowsUnlessReplacing) {
    core::SystemRegistry registry;
    const auto factory = [](const core::Environment&,
                            const core::SystemSpec&) {
        return std::unique_ptr<core::System>();
    };
    registry.add("custom", factory);
    EXPECT_THROW(registry.add("custom", factory), std::invalid_argument);
    EXPECT_NO_THROW(registry.add("custom", factory, /*replace=*/true));
    EXPECT_TRUE(registry.contains("custom"));
    EXPECT_FALSE(registry.contains("fairbfl"));  // locals start empty
}

TEST(SystemRegistry, CustomSystemRunsThroughRunSystem) {
    // A toy constant-delay system registered in a local registry: new
    // scenarios are registrations, not core edits.
    class Constant final : public core::System {
    public:
        [[nodiscard]] std::string_view name() const noexcept override {
            return "constant";
        }
        [[nodiscard]] std::size_t default_rounds() const noexcept override {
            return 4;
        }
        core::SeriesPoint run_round() override {
            core::SeriesPoint point;
            point.round = rounds_++;
            point.delay_seconds = 2.0;
            point.accuracy = 0.5;
            series_.push_back(point);
            return point;
        }
        [[nodiscard]] core::SystemRun finalize() const override {
            core::SystemRun run;
            run.name = "constant";
            run.series = series_;
            run.finalize();
            return run;
        }

    private:
        std::uint64_t rounds_ = 0;
        std::vector<core::SeriesPoint> series_;
    };

    core::SystemRegistry registry;
    registry.add("constant",
                 [](const core::Environment&, const core::SystemSpec&) {
                     return std::make_unique<Constant>();
                 });

    const core::Environment env;  // never touched by the toy system
    core::SystemSpec spec;
    spec.system = "constant";
    const auto run = core::run_system(env, spec, registry);
    ASSERT_EQ(run.series.size(), 4U);
    EXPECT_EQ(run.average_delay, 2.0);
    EXPECT_EQ(run.series.back().elapsed_seconds, 8.0);
}

// --- Equivalence with the hand-driven round loops --------------------------

TEST(Equivalence, FairBflSpecReproducesLegacyRunFairbfl) {
    const auto env = core::build_environment(small_env());
    core::FairBflConfig config;
    config.fl = small_fl();
    config.miners = 2;

    // The round loop, driven by hand (what the "fairbfl" factory runs).
    core::SystemRun manual;
    manual.name = "FAIR";
    core::FairBfl system(*env.model, env.make_clients(), env.test, config);
    for (std::size_t r = 0; r < config.fl.rounds; ++r) {
        const core::BflRoundRecord record = system.run_round();
        manual.series.push_back({record.fl.round, record.delay.total(), 0.0,
                                 record.fl.test_accuracy});
    }
    manual.finalize();

    const auto via_registry =
        core::run_system(env, core::fairbfl_spec(config, "FAIR"));
    expect_identical(via_registry, manual);

    // A second system from the same spec replays the series: nothing
    // carries over between runs.
    const auto rerun =
        core::run_system(env, core::fairbfl_spec(config, "FAIR"));
    expect_identical(rerun, manual);
}

TEST(Equivalence, FedAvgSpecReproducesLegacyRunFedavg) {
    const auto env = core::build_environment(small_env());
    const auto config = small_fl();
    const core::DelayParams delay;

    core::SystemRun manual;
    manual.name = "FedAvg";
    const core::DelayModel delays(delay);
    fl::FedAvg trainer(*env.model, env.make_clients(), env.test, config);
    for (std::size_t r = 0; r < config.rounds; ++r) {
        const fl::RoundRecord record = trainer.run_round();
        manual.series.push_back(
            {record.round,
             core::fl_round_delay(delays, env, record.participant_ids,
                                  config.sgd, record.round, config.seed),
             0.0, record.test_accuracy});
    }
    manual.finalize();

    expect_identical(core::run_system(env, core::fedavg_spec(config, delay)),
                     manual);
}

TEST(Equivalence, BlockchainSpecReproducesLegacyRunBlockchain) {
    core::BlockchainBaselineConfig config;
    config.workers = 20;
    config.miners = 2;
    config.rounds = 6;

    core::SystemRun manual;
    manual.name = "Blockchain";
    core::BlockchainBaseline system(config);
    for (std::size_t r = 0; r < config.rounds; ++r) {
        const core::BlockchainRoundRecord record = system.run_round();
        manual.series.push_back(
            {record.round, record.delay.total(), 0.0, 0.0});
    }
    manual.finalize();

    const core::Environment none;
    expect_identical(
        core::run_system(none, core::blockchain_spec(config)), manual);
}

TEST(Equivalence, PureFlSpecMatchesStageTogglesOff) {
    const auto env = core::build_environment(small_env());
    core::FairBflConfig config;
    config.fl = small_fl();

    auto toggled = config;
    toggled.stage_exchange = false;
    toggled.stage_mining = false;
    const auto via_toggles =
        core::run_system(env, core::fairbfl_spec(toggled, "pure-FL"));

    expect_identical(core::run_system(env, core::pure_fl_spec(config)),
                     via_toggles);
}

// --- run_suite -------------------------------------------------------------

TEST(RunSuite, MatchesSerialRunsInSpecOrder) {
    const auto env = core::build_environment(small_env());
    core::FairBflConfig fair;
    fair.fl = small_fl();

    const std::vector<core::SystemSpec> specs{
        core::fairbfl_spec(fair, "FAIR"),
        core::fedavg_spec(small_fl(), core::DelayParams{}),
        core::pure_fl_spec(fair),
    };
    const auto concurrent = core::run_suite(env, specs);
    ASSERT_EQ(concurrent.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expect_identical(concurrent[i], core::run_system(env, specs[i]));
}

TEST(RunSuite, PropagatesTheFirstFailure) {
    const auto env = core::build_environment(small_env());
    std::vector<core::SystemSpec> specs(2);
    specs[0] = core::fedavg_spec(small_fl(), core::DelayParams{});
    specs[1].system = "no_such_system";
    EXPECT_THROW((void)core::run_suite(env, specs), std::out_of_range);
}

// --- System surface --------------------------------------------------------

TEST(SystemInterface, LedgerAccessorsMatchTheSystemKind) {
    const auto env = core::build_environment(small_env());
    core::FairBflConfig fair;
    fair.fl = small_fl();

    const auto chained = core::SystemRegistry::global().make(
        env, core::fairbfl_spec(fair));
    (void)chained->run_round();
    ASSERT_NE(chained->blockchain(), nullptr);
    EXPECT_GE(chained->blockchain()->height(), 1U);
    EXPECT_NE(chained->reward_ledger(), nullptr);

    const auto chainless = core::SystemRegistry::global().make(
        env, core::fedavg_spec(small_fl(), core::DelayParams{}));
    EXPECT_EQ(chainless->blockchain(), nullptr);
    EXPECT_EQ(chainless->reward_ledger(), nullptr);
}

// --- Robust aggregators ----------------------------------------------------

std::vector<fl::GradientUpdate> column_updates(
    std::initializer_list<float> values) {
    std::vector<fl::GradientUpdate> updates;
    fl::NodeId id = 0;
    for (const float v : values) {
        fl::GradientUpdate update;
        update.client = id++;
        update.weights = {v, -v};
        update.num_samples = 10;
        updates.push_back(update);
    }
    return updates;
}

TEST(RobustAggregators, TrimmedMeanDropsTheTails) {
    const auto aggregator = core::make_aggregator("trimmed_mean", 0.2);
    // ceil(0.2 * 5) = 1 from each tail: the forged 100 never contributes.
    const auto out =
        aggregator->aggregate(column_updates({1.0F, 2.0F, 3.0F, 4.0F, 100.0F}));
    ASSERT_EQ(out.size(), 2U);
    EXPECT_FLOAT_EQ(out[0], 3.0F);
    EXPECT_FLOAT_EQ(out[1], -3.0F);
}

TEST(RobustAggregators, TrimmedMeanKeepsAtLeastOneValue) {
    // With 2 updates even a large trim must leave the middle intact.
    const auto aggregator = core::make_aggregator("trimmed_mean", 0.4);
    const auto out = aggregator->aggregate(column_updates({1.0F, 3.0F}));
    EXPECT_FLOAT_EQ(out[0], 2.0F);
}

TEST(RobustAggregators, CoordinateMedianOddAndEven) {
    const auto aggregator = core::make_aggregator("median");
    const auto odd =
        aggregator->aggregate(column_updates({1.0F, 2.0F, 3.0F, 4.0F, 100.0F}));
    EXPECT_FLOAT_EQ(odd[0], 3.0F);
    const auto even =
        aggregator->aggregate(column_updates({1.0F, 2.0F, 4.0F, 100.0F}));
    EXPECT_FLOAT_EQ(even[0], 3.0F);  // (2 + 4) / 2
}

TEST(RobustAggregators, MedianResistsAForgedMinority) {
    // 7 honest updates near 1.0, 2 forged at -50: the median stays honest
    // while the simple average is dragged far off.
    std::vector<fl::GradientUpdate> updates =
        column_updates({0.9F, 0.95F, 1.0F, 1.0F, 1.05F, 1.1F, 1.0F,
                        -50.0F, -50.0F});
    const auto median = core::make_aggregator("median")->aggregate(updates);
    const auto mean = fl::simple_average(updates);
    EXPECT_NEAR(median[0], 1.0F, 0.1F);
    EXPECT_LT(mean[0], -9.0F);
}

TEST(RobustAggregators, FactoryRejectsBadArguments) {
    EXPECT_THROW((void)core::make_aggregator("nope"), std::invalid_argument);
    EXPECT_THROW((void)core::make_aggregator("trimmed_mean", 0.5),
                 std::invalid_argument);
    EXPECT_THROW((void)core::make_consensus("nope"), std::invalid_argument);
}

TEST(RobustAggregators, FairAggregatorUsesScoresWhenGiven) {
    const auto aggregator = core::make_aggregator("fair");
    const auto updates = column_updates({0.0F, 4.0F});
    const std::vector<double> theta{3.0, 1.0};
    const auto weighted = aggregator->aggregate_weighted(updates, theta);
    EXPECT_FLOAT_EQ(weighted[0], 1.0F);  // 0.75 * 0 + 0.25 * 4
    const auto unweighted = aggregator->aggregate(updates);
    EXPECT_FLOAT_EQ(unweighted[0], 2.0F);
}

TEST(RobustAggregators, ExplicitFairAggregatorMatchesTheDefaultPipeline) {
    // "fair" IS the default behaviour (simple provisional + Eq. 1
    // settlement), so configuring it explicitly must change nothing.
    const auto env = core::build_environment(small_env());
    core::FairBflConfig config;
    config.fl = small_fl();

    auto explicit_fair = config;
    explicit_fair.aggregator = core::make_aggregator("fair");

    expect_identical(core::run_system(env, core::fairbfl_spec(explicit_fair)),
                     core::run_system(env, core::fairbfl_spec(config)));
}

TEST(RobustAggregators, ConfiguredRuleGovernsTheIncentiveSettlementToo) {
    // With Algorithm 2 left ON, a configured rule must still shape the
    // final global update (it used to be silently ignored there).  The
    // series diverging from the default proves the settlement routed
    // through the rule; which rule *wins* on accuracy depends on the data
    // geometry and is covered by the dedicated defense tests.
    const auto env = core::build_environment(small_env());
    core::FairBflConfig config;
    config.fl = small_fl();
    config.fl.client_ratio = 1.0;

    auto routed = config;
    routed.aggregator = core::make_aggregator("median");

    const auto with_median = core::run_system(env, core::fairbfl_spec(routed));
    const auto with_eq1 = core::run_system(env, core::fairbfl_spec(config));
    EXPECT_NE(with_median.final_accuracy, with_eq1.final_accuracy);
}

TEST(RobustAggregators, TrimmedMeanDefendsFairBflWithoutClustering) {
    // End to end: sign-flip attackers, incentive layer off, the robust
    // combine alone keeps the model learning.
    const auto env = core::build_environment(small_env());
    core::FairBflConfig config;
    config.fl = small_fl();
    config.fl.client_ratio = 1.0;
    config.enable_incentive = false;
    config.attack.kind = core::AttackKind::kSignFlip;
    config.attack.min_attackers = 2;
    config.attack.max_attackers = 2;
    config.aggregator = core::make_aggregator("trimmed_mean", 0.25);

    auto undefended = config;
    undefended.aggregator = core::make_aggregator("simple");

    const auto robust = core::run_system(env, core::fairbfl_spec(config));
    const auto naive = core::run_system(env, core::fairbfl_spec(undefended));
    EXPECT_GT(robust.final_accuracy, naive.final_accuracy);
}

}  // namespace
