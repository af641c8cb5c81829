// Async round engine: the virtual-clock event loop, the
// quorum-or-deadline collection state machine, late-gradient policies,
// and -- most load-bearing -- the degenerate-config bit-pin: with full
// participation and no deadline the engine-driven FairBfl must reproduce
// the pre-engine lockstep series bit-for-bit.

#include <gtest/gtest.h>

#include <cstring>

#include "core/event_loop.hpp"
#include "core/fairbfl.hpp"
#include "core/round_engine.hpp"
#include "ml/partition.hpp"
#include "ml/synthetic_mnist.hpp"
#include "support/parallel.hpp"

namespace {

namespace core = fairbfl::core;
namespace fl = fairbfl::fl;
namespace ml = fairbfl::ml;
namespace support = fairbfl::support;

using core::CollectOutcome;
using core::EventLoop;
using core::LatePolicy;
using core::PendingDelivery;
using core::RoundConfig;
using core::RoundEngine;
using core::VirtualTime;

// ---------------------------------------------------------------------------
// EventLoop: deterministic (time, sequence) ordering on a monotone clock.

TEST(EventLoop, FiresInTimeThenSequenceOrder) {
    EventLoop loop;
    std::vector<int> order;
    loop.schedule_at(30, [&](EventLoop&) { order.push_back(3); });
    loop.schedule_at(10, [&](EventLoop&) { order.push_back(1); });
    loop.schedule_at(10, [&](EventLoop&) { order.push_back(2); });  // tie:
    // same time, later sequence -> fires second.
    loop.run_until_idle();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loop.now(), 30U);
    EXPECT_EQ(loop.processed(), 3U);
}

TEST(EventLoop, ClockIsMonotoneEvenForPastSchedules) {
    EventLoop loop;
    std::vector<VirtualTime> observed;
    loop.schedule_at(100, [&](EventLoop& inner) {
        observed.push_back(inner.now());
        // Scheduling "in the past" clamps to now: time never rewinds.
        inner.schedule_at(5, [&](EventLoop& inner2) {
            observed.push_back(inner2.now());
        });
    });
    loop.run_until_idle();
    ASSERT_EQ(observed.size(), 2U);
    EXPECT_EQ(observed[0], 100U);
    EXPECT_EQ(observed[1], 100U);
}

// ---------------------------------------------------------------------------
// RoundConfig: quorum arithmetic and the degenerate predicate.

TEST(RoundConfig, QuorumCountClampsAndRounds) {
    RoundConfig config;
    EXPECT_FALSE(config.engaged());  // full participation, no deadline
    EXPECT_EQ(config.quorum_count(7), 7U);
    config.quorum_fraction = 0.5;
    EXPECT_TRUE(config.engaged());
    EXPECT_EQ(config.quorum_count(7), 4U);  // ceil(3.5)
    EXPECT_EQ(config.quorum_count(0), 0U);
    config.quorum_fraction = 0.01;
    EXPECT_EQ(config.quorum_count(7), 1U);  // never zero when nonempty
    config.quorum_fraction = 1.0;
    config.deadline_ns = 1;
    EXPECT_TRUE(config.engaged());
}

TEST(RoundConfig, LatePolicyNamesRoundTrip) {
    EXPECT_EQ(core::parse_late_policy("next_round"), LatePolicy::kNextRound);
    EXPECT_EQ(core::parse_late_policy("retroactive"),
              LatePolicy::kRetroactive);
    EXPECT_FALSE(core::parse_late_policy("sometime").has_value());
    EXPECT_EQ(core::late_policy_name(LatePolicy::kRetroactive),
              "retroactive");
}

// ---------------------------------------------------------------------------
// Collection state machine over synthetic deliveries.

std::vector<PendingDelivery> four_arrivals() {
    return {{0, 100, false}, {1, 200, false}, {2, 300, false},
            {3, 400, false}};
}

TEST(RoundEngine, DegenerateConfigTriggersAtLastArrival) {
    RoundEngine engine;  // quorum 1.0, no deadline: lockstep semantics
    const CollectOutcome out = engine.collect(four_arrivals());
    EXPECT_EQ(out.on_time.size(), 4U);
    EXPECT_TRUE(out.late.empty());
    EXPECT_TRUE(out.quorum_met);
    EXPECT_FALSE(out.deadline_fired);
    EXPECT_EQ(out.trigger_ns, 400U);
    EXPECT_EQ(out.first_arrival_ns, 100U);
}

TEST(RoundEngine, QuorumBeforeDeadline) {
    RoundEngine engine(RoundConfig{.quorum_fraction = 0.5,
                                   .deadline_ns = 10'000});
    const CollectOutcome out = engine.collect(four_arrivals());
    EXPECT_EQ(out.quorum_needed, 2U);
    EXPECT_TRUE(out.quorum_met);
    EXPECT_FALSE(out.deadline_fired);
    EXPECT_EQ(out.trigger_ns, 200U);  // second arrival closed the quorum
    EXPECT_EQ(out.on_time, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(out.late, (std::vector<std::size_t>{2, 3}));
    EXPECT_DOUBLE_EQ(out.wait_quorum_seconds(), 100e-9);
}

TEST(RoundEngine, DeadlineBeforeQuorum) {
    RoundEngine engine(RoundConfig{.quorum_fraction = 1.0,
                                   .deadline_ns = 250});
    const CollectOutcome out = engine.collect(four_arrivals());
    EXPECT_TRUE(out.deadline_fired);
    EXPECT_FALSE(out.quorum_met);
    EXPECT_EQ(out.trigger_ns, 250U);
    EXPECT_EQ(out.on_time, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(out.late, (std::vector<std::size_t>{2, 3}));
}

TEST(RoundEngine, ArrivalAtExactDeadlineCountsOnTime) {
    RoundEngine engine(RoundConfig{.quorum_fraction = 1.0,
                                   .deadline_ns = 300});
    const CollectOutcome out = engine.collect(four_arrivals());
    // The update at t=300 ties the deadline; the arrival was scheduled
    // first (lower sequence) so it wins the tie.
    EXPECT_EQ(out.on_time, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(out.late, (std::vector<std::size_t>{3}));
}

TEST(RoundEngine, DuplicateDeliveriesAreDroppedNotDoubleCounted) {
    RoundEngine engine(RoundConfig{.quorum_fraction = 0.75,
                                   .deadline_ns = 10'000});
    std::vector<PendingDelivery> deliveries = four_arrivals();
    deliveries.push_back({0, 150, true});  // replay of update 0
    deliveries.push_back({1, 250, true});  // replay of update 1
    const CollectOutcome out = engine.collect(std::move(deliveries));
    EXPECT_EQ(out.quorum_needed, 3U);  // replays don't inflate the quorum
    EXPECT_EQ(out.duplicates_dropped, 2U);
    EXPECT_EQ(out.on_time, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(out.trigger_ns, 300U);
}

TEST(RoundEngine, DrainedWithoutQuorumStillResolves) {
    // Dropouts made the quorum unreachable and no deadline is set: the
    // engine aggregates what exists instead of blocking forever.
    RoundEngine engine(RoundConfig{.quorum_fraction = 0.9,
                                   .deadline_ns = 0});
    const CollectOutcome out =
        engine.collect(std::vector<PendingDelivery>{{0, 100, false}});
    EXPECT_EQ(out.quorum_needed, 1U);
    EXPECT_EQ(out.on_time.size(), 1U);
    EXPECT_TRUE(out.quorum_met);
    EXPECT_FALSE(out.deadline_fired);
}

TEST(RoundEngine, NothingDeliverableResolvesEmpty) {
    RoundEngine engine(RoundConfig{.quorum_fraction = 0.5,
                                   .deadline_ns = 500});
    const CollectOutcome out =
        engine.collect(std::vector<PendingDelivery>{});
    EXPECT_EQ(out.quorum_needed, 0U);
    EXPECT_TRUE(out.on_time.empty());
    EXPECT_FALSE(out.quorum_met);
}

TEST(RoundEngine, AsyncRaceMintsEmptyBlocksUntilTrigger) {
    RoundEngine engine(RoundConfig{.quorum_fraction = 1.0,
                                   .deadline_ns = 2'000'000'000});
    auto rng = support::Rng::fork(7, /*stream=*/0xECE);
    core::MiningRaceSpec race;
    race.mean_solve_seconds = 0.05;  // ~20 solves/virtual second
    race.rng = &rng;
    // One delivery a full virtual second out: the race should land a
    // healthy number of empty solves first.
    const CollectOutcome out = engine.collect(
        std::vector<PendingDelivery>{{0, 1'000'000'000, false}}, &race);
    EXPECT_GT(out.empty_blocks, 5U);
    EXPECT_LT(out.empty_blocks, 100U);
    EXPECT_EQ(out.on_time.size(), 1U);
}

// ---------------------------------------------------------------------------
// FairBfl integration: the degenerate-config bit-pin and late policies.

struct World {
    ml::Dataset data;
    std::unique_ptr<ml::Model> model;
    std::vector<ml::DatasetView> shards;
    ml::DatasetView test;

    explicit World(std::size_t clients = 10, std::uint64_t seed = 61)
        : data(ml::make_synthetic_mnist({.samples = 600,
                                         .feature_dim = 8,
                                         .num_classes = 4,
                                         .noise_sigma = 0.25,
                                         .seed = seed})) {
        model = ml::make_logistic_regression(8, 4);
        const auto split = ml::train_test_split(data, 0.2, seed);
        test = split.test;
        ml::PartitionParams params;
        params.scheme = ml::PartitionScheme::kIid;
        params.num_clients = clients;
        params.seed = seed;
        shards = ml::partition(split.train, params);
    }

    [[nodiscard]] std::vector<fl::Client> clients() const {
        return fl::make_clients(*model, shards);
    }
};

core::FairBflConfig fast_config() {
    core::FairBflConfig config;
    config.fl.client_ratio = 0.5;
    config.fl.rounds = 12;
    config.fl.sgd.learning_rate = 0.1;
    config.fl.sgd.epochs = 3;
    config.fl.sgd.batch_size = 10;
    config.fl.seed = 42;
    config.miners = 2;
    return config;
}

// Captured from the pre-engine lockstep round loop (World(10, 61),
// fast_config(), run(4)): {accuracy, mean_local_loss, t_local, t_up,
// t_ex, t_gl, t_bl} per round, then the final 36 weights.  Hexfloat so
// the pin is exact: the engine's degenerate config must reproduce every
// value bit-for-bit.
struct PinnedRound {
    double accuracy, loss, t_local, t_up, t_ex, t_gl, t_bl;
};

constexpr PinnedRound kLockstepSeries[] = {
    {0x1.aeeeeeeeeeeefp-1, 0x1.4e97df108ab47p+0, 0x1.16d0579fa125bp+2,
     0x1.146072c3395a5p-4, 0x1.4b64750d644f7p-7, 0x1.19ce075f6fd22p-6,
     0x1.2265ce7fcd358p+2},
    {0x1.c888888888889p-1, 0x1.3947d79f9e968p+0, 0x1.01c85cc2ad353p+2,
     0x1.1270c3da51917p-4, 0x1.47854bbda1f9fp-7, 0x1.19ce075f6fd22p-6,
     0x1.ac45ab111c123p-1},
    {0x1.aaaaaaaaaaaabp-1, 0x1.281b2b39834f6p+0, 0x1.359f746569288p+2,
     0x1.c43007df2dfacp-4, 0x1.65b29468e21bfp-7, 0x1.19ce075f6fd22p-6,
     0x1.1af12a69782p+1},
    {0x1.8888888888889p-1, 0x1.123e9446bf0f2p+0, 0x1.359f746569288p+2,
     0x1.2f9e1127e03cep-4, 0x1.47ee9bb18ac6ep-7, 0x1.19ce075f6fd22p-6,
     0x1.429990d51ebf4p+1},
};

constexpr float kLockstepWeights[36] = {
    -0x1.ce2cc8p-3F, -0x1.5ac954p-3F, 0x1.41254ep-2F,  0x1.cefa7cp-4F,
    0x1.20cf1cp-2F,  0x1.9036acp-4F,  0x1.b83868p-3F,  -0x1.c7b9a8p-2F,
    0x1.20187cp-2F,  0x1.68c438p-5F,  0x1.1aacep-6F,   -0x1.4e5086p-1F,
    0x1.580d82p-3F,  -0x1.34bc48p-6F, 0x1.9b6554p-7F,  0x1.6a750ap-3F,
    -0x1.cce9acp-8F, 0x1.60b13cp-2F,  -0x1.5576eap-3F, 0x1.db91d4p-2F,
    -0x1.e6bf66p-3F, -0x1.6bab06p-3F, -0x1.9d1ba8p-3F, 0x1.1f633p-4F,
    -0x1.501836p-5F, -0x1.982c82p-3F, -0x1.8af006p-3F, 0x1.76ac98p-4F,
    -0x1.987fa8p-3F, 0x1.d228ccp-4F,  -0x1.9e0ccap-8F, 0x1.c11f3cp-3F,
    0x1.5af5fcp-4F,  -0x1.7adadap-4F, 0x1.f34aa2p-7F,  -0x1.e846bcp-8F,
};

TEST(RoundEnginePin, DegenerateConfigReproducesLockstepSeriesBitForBit) {
    World world;
    core::FairBflConfig config = fast_config();
    // Spell the degenerate setting out: this is the config the pin holds
    // for, and engaged() must say so.
    config.round.quorum_fraction = 1.0;
    config.round.deadline_ns = 0;
    ASSERT_FALSE(config.round.engaged());
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    const auto history = system.run(4);
    ASSERT_EQ(history.size(), 4U);
    for (std::size_t r = 0; r < history.size(); ++r) {
        const auto& record = history[r];
        const auto& pin = kLockstepSeries[r];
        EXPECT_EQ(record.fl.test_accuracy, pin.accuracy) << "round " << r;
        EXPECT_EQ(record.fl.mean_local_loss, pin.loss) << "round " << r;
        EXPECT_EQ(record.delay.t_local, pin.t_local) << "round " << r;
        EXPECT_EQ(record.delay.t_up, pin.t_up) << "round " << r;
        EXPECT_EQ(record.delay.t_ex, pin.t_ex) << "round " << r;
        EXPECT_EQ(record.delay.t_gl, pin.t_gl) << "round " << r;
        EXPECT_EQ(record.delay.t_bl, pin.t_bl) << "round " << r;
        // Degenerate rounds have no engine residue.
        EXPECT_EQ(record.late_updates, 0U);
        EXPECT_EQ(record.carried_in_updates, 0U);
        EXPECT_FALSE(record.deadline_fired);
        EXPECT_EQ(record.empty_blocks_this_round, 0U);
    }
    const auto weights = system.weights();
    ASSERT_EQ(weights.size(), 36U);
    for (std::size_t i = 0; i < weights.size(); ++i)
        EXPECT_EQ(weights[i], kLockstepWeights[i]) << "weight " << i;
}

TEST(RoundEngineFairBfl, QuorumRoundRunsPartialMembership) {
    World world;
    core::FairBflConfig config = fast_config();
    config.round.quorum_fraction = 0.5;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    const auto record = system.run_round();
    // 5 selected, quorum at ceil(2.5)=3: the trigger left stragglers late.
    EXPECT_EQ(record.quorum_needed, 3U);
    EXPECT_EQ(record.on_time_updates, 3U);
    EXPECT_EQ(record.late_updates, 2U);
    EXPECT_EQ(record.fl.participants, 3U);
    EXPECT_GT(record.wait_quorum_seconds, 0.0);
}

TEST(RoundEngineFairBfl, NextRoundPolicyCarriesLateGradientsForward) {
    World world;
    core::FairBflConfig config = fast_config();
    config.round.quorum_fraction = 0.5;
    config.round.late_policy = LatePolicy::kNextRound;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    const auto first = system.run_round();
    ASSERT_GT(first.late_updates, 0U);
    const auto second = system.run_round();
    // Last round's stragglers joined this round's set...
    EXPECT_EQ(second.carried_in_updates, first.late_updates);
    // ...on top of this round's own on-time arrivals.
    EXPECT_EQ(second.fl.participants,
              second.on_time_updates + second.carried_in_updates);
    // A carried update joins the next round only.  At this seed the second
    // round's two stragglers are carried into the third, where one of
    // their clients is selected again and arrives on time: its fresh
    // update wins, so exactly one stale update joins.  A store that still
    // held the first round's stragglers would add a second one.
    ASSERT_EQ(second.late_updates, 2U);
    const auto third = system.run_round();
    EXPECT_EQ(third.on_time_updates, 3U);
    EXPECT_EQ(third.carried_in_updates, 1U);
    EXPECT_EQ(third.fl.participants, 4U);
}

TEST(RoundEngineFairBfl, RetroactivePolicyResettlesTheRound) {
    World world;
    core::FairBflConfig next_cfg = fast_config();
    next_cfg.round.quorum_fraction = 0.5;
    next_cfg.round.late_policy = LatePolicy::kNextRound;
    core::FairBfl next_system(*world.model, world.clients(), world.test,
                              next_cfg);
    const auto next_rec = next_system.run_round();
    ASSERT_GT(next_rec.late_updates, 0U);

    core::FairBflConfig retro_cfg = next_cfg;
    retro_cfg.round.late_policy = LatePolicy::kRetroactive;
    core::FairBfl retro_system(*world.model, world.clients(), world.test,
                               retro_cfg);
    const auto retro_rec = retro_system.run_round();
    // Same virtual schedule, so the same split...
    EXPECT_EQ(retro_rec.late_updates, next_rec.late_updates);
    // ...but the retroactive settlement folds the late set back in.
    EXPECT_EQ(retro_rec.fl.participants,
              retro_rec.on_time_updates + retro_rec.late_updates);
    EXPECT_GT(retro_rec.fl.participants, next_rec.fl.participants);
    // The weights must differ: more gradients shaped them.
    const auto next_w = next_system.weights();
    const auto retro_w = retro_system.weights();
    ASSERT_EQ(next_w.size(), retro_w.size());
    bool any_differs = false;
    for (std::size_t i = 0; i < next_w.size(); ++i)
        any_differs |= next_w[i] != retro_w[i];
    EXPECT_TRUE(any_differs);
    // Budget conservation survives the amendment: the ledger holds
    // exactly what the (amended) report settled.
    EXPECT_NEAR(retro_system.ledger().grand_total(),
                retro_rec.round_reward_total, 1e-9);
}

TEST(RoundEngineFairBfl, AsyncRaceRunsOnlyForEngagedAsyncPow) {
    World world;
    // Returns the first round's empty-block count.
    const auto empty_blocks = [&](const char* consensus, bool engaged) {
        core::FairBflConfig config = fast_config();
        config.consensus = consensus;
        if (engaged) {
            config.round.quorum_fraction = 0.5;
            config.round.deadline_ns = 20'000'000'000ULL;  // 20 virtual s
        }
        core::FairBfl system(*world.model, world.clients(), world.test,
                             config);
        return system.run_round().empty_blocks_this_round;
    };
    // Only an engaged round without Assumption 1 races empty blocks
    // against collection.
    EXPECT_GT(empty_blocks("async_pow", true), 0U);
    EXPECT_EQ(empty_blocks("async_pow", false), 0U);
    EXPECT_EQ(empty_blocks("sync_pow", true), 0U);
    EXPECT_EQ(empty_blocks("sync_pow", false), 0U);
}

/// Runs `rounds` rounds on an explicit pool and returns the weight bytes.
std::vector<unsigned char> run_weights(const World& world,
                                       core::FairBflConfig config,
                                       unsigned threads,
                                       std::size_t rounds) {
    support::ThreadPool pool(threads);
    config.pool = &pool;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    (void)system.run(rounds);
    const auto weights = system.weights();
    std::vector<unsigned char> bytes(weights.size() * sizeof(float));
    std::memcpy(bytes.data(), weights.data(), bytes.size());
    return bytes;
}

TEST(RoundEngineFairBfl, ThreadCountNeverChangesTheOutcome) {
    World world;
    core::FairBflConfig config = fast_config();
    // An *engaged* config, where the event schedule actually matters.
    config.round.quorum_fraction = 0.6;
    config.round.deadline_ns = 60'000'000'000ULL;  // 60 virtual seconds
    config.round.late_policy = LatePolicy::kNextRound;
    const auto one = run_weights(world, config, 1, 3);
    const auto four = run_weights(world, config, 4, 3);
    EXPECT_EQ(one, four) << "weight bytes differ across 1 vs 4 threads";
}

}  // namespace
