// FAIR-BFL integration: Algorithm 1 end-to-end -- learning progress, chain
// growth, block data scope, rewards, discard strategy, attack defense,
// flexibility toggles, and the RSA path.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/fairbfl.hpp"
#include "crypto/sha256.hpp"
#include "ml/partition.hpp"
#include "ml/synthetic_mnist.hpp"
#include "support/parallel.hpp"

namespace {

namespace core = fairbfl::core;
namespace fl = fairbfl::fl;
namespace ml = fairbfl::ml;
namespace inc = fairbfl::incentive;
namespace ch = fairbfl::chain;

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

/// Weights SHA-256 / ledger total / chain tip: everything a run settled,
/// in one comparable string.
std::string outcome_digest(const core::FairBfl& system) {
    const auto weights = system.weights();
    char ledger_total[40];
    std::snprintf(ledger_total, sizeof ledger_total, "%.17g",
                  system.ledger().grand_total());
    return fairbfl::crypto::to_hex(fairbfl::crypto::Sha256::hash(std::span(
               reinterpret_cast<const std::uint8_t*>(weights.data()),
               weights.size_bytes()))) +
           "/" + ledger_total + "/" +
           fairbfl::crypto::to_hex(system.blockchain().tip().header.hash());
}

/// Runs `config` for four rounds over `clients` clients on a pool of
/// `threads` workers and returns outcome_digest; `flagged` accumulates
/// the low-contribution labels so a pin can show Algorithm 2 engaged.
std::string pinned_run(core::FairBflConfig config, std::size_t clients,
                       unsigned threads, std::size_t& flagged) {
    World world(clients);
    fairbfl::support::ThreadPool pool(threads);
    config.pool = &pool;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    for (const auto& record : system.run(4))
        flagged += record.low_contribution_clients.size();
    EXPECT_TRUE(system.blockchain().validate_full_chain());
    return outcome_digest(system);
}

/// Variant that learns slowly enough to observe progress across rounds.
core::FairBflConfig slow_config() {
    auto config = fast_config();
    config.fl.sgd.learning_rate = 0.01;
    config.fl.sgd.epochs = 1;
    return config;
}

TEST(FairBfl, LearnsAndGrowsChainTogether) {
    World world;
    core::FairBfl system(*world.model, world.clients(), world.test,
                         slow_config());
    const auto history = system.run();
    ASSERT_EQ(history.size(), 12U);
    EXPECT_GT(history.back().fl.test_accuracy,
              history.front().fl.test_accuracy + 0.1);
    // One block per round (Assumptions 1+2): genesis + 12.
    EXPECT_EQ(system.blockchain().height(), 13U);
    EXPECT_EQ(system.blockchain().reorg_count(), 0U);
    EXPECT_TRUE(system.blockchain().validate_full_chain());
}

TEST(FairBfl, BlocksContainOnlyGlobalAndRewards) {
    // Assumption 2: no kLocalGradient transaction ever reaches a block.
    World world;
    core::FairBfl system(*world.model, world.clients(), world.test,
                         fast_config());
    (void)system.run(4);
    const auto& chain = system.blockchain();
    for (std::size_t h = 1; h < chain.height(); ++h) {
        std::size_t globals = 0;
        for (const auto& tx : chain.at(h).transactions) {
            EXPECT_NE(tx.kind, ch::TxKind::kLocalGradient);
            if (tx.kind == ch::TxKind::kGlobalUpdate) ++globals;
        }
        EXPECT_EQ(globals, 1U) << "block " << h;
    }
}

TEST(FairBfl, ChainGlobalGradientMatchesWeights) {
    World world;
    core::FairBfl system(*world.model, world.clients(), world.test,
                         fast_config());
    (void)system.run(3);
    const auto on_chain = system.blockchain().latest_global_gradient();
    ASSERT_TRUE(on_chain.has_value());
    ASSERT_EQ(on_chain->size(), system.weights().size());
    for (std::size_t i = 0; i < on_chain->size(); ++i)
        EXPECT_FLOAT_EQ((*on_chain)[i], system.weights()[i]);
}

TEST(FairBfl, RewardsRecordedOnChainAndLedgerAgree) {
    World world;
    core::FairBfl system(*world.model, world.clients(), world.test,
                         fast_config());
    const auto history = system.run(5);

    double on_chain_total = 0.0;
    const auto& chain = system.blockchain();
    for (std::size_t h = 1; h < chain.height(); ++h) {
        for (const auto& tx : chain.at(h).transactions) {
            if (tx.kind == ch::TxKind::kReward)
                on_chain_total += ch::parse_reward_tx(tx).amount;
        }
    }
    // Ledger totals match the chain's reward transactions (both quantized
    // to milli-units on-chain; allow that rounding).
    EXPECT_NEAR(on_chain_total, system.ledger().grand_total(), 0.01);
    // Every round with high contributors paid out ~base (1.0).
    for (const auto& record : history)
        EXPECT_NEAR(record.round_reward_total, 1.0, 1e-6);
}

TEST(FairBfl, DeterministicAcrossRuns) {
    World a;
    World b;
    core::FairBfl sa(*a.model, a.clients(), a.test, fast_config());
    core::FairBfl sb(*b.model, b.clients(), b.test, fast_config());
    const auto ha = sa.run(5);
    const auto hb = sb.run(5);
    for (std::size_t r = 0; r < 5; ++r) {
        EXPECT_DOUBLE_EQ(ha[r].fl.test_accuracy, hb[r].fl.test_accuracy);
        EXPECT_DOUBLE_EQ(ha[r].delay.total(), hb[r].delay.total());
    }
}

TEST(FairBfl, DelayComponentsAllPresent) {
    World world;
    core::FairBfl system(*world.model, world.clients(), world.test,
                         fast_config());
    const auto record = system.run_round();
    EXPECT_GT(record.delay.t_local, 0.0);
    EXPECT_GT(record.delay.t_up, 0.0);
    EXPECT_GT(record.delay.t_ex, 0.0);   // 2 miners exchange
    EXPECT_GT(record.delay.t_gl, 0.0);
    EXPECT_GT(record.delay.t_bl, 0.0);
    EXPECT_DOUBLE_EQ(record.delay.total(),
                     record.delay.t_local + record.delay.t_up +
                         record.delay.t_ex + record.delay.t_gl +
                         record.delay.t_bl);
}

TEST(FairBfl, PureFlModeSkipsChainAndExchange) {
    World world;
    auto config = slow_config();
    config.stage_exchange = false;
    config.stage_mining = false;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    const auto history = system.run(6);
    EXPECT_EQ(system.blockchain().height(), 1U);  // genesis only
    for (const auto& record : history) {
        EXPECT_DOUBLE_EQ(record.delay.t_bl, 0.0);
        EXPECT_DOUBLE_EQ(record.delay.t_ex, 0.0);
        EXPECT_EQ(record.blocks_this_round, 0U);
    }
    // Still learns.
    EXPECT_GT(history.back().fl.test_accuracy,
              history.front().fl.test_accuracy);
}

TEST(FairBfl, SingleMinerHasNoExchangeDelay) {
    World world;
    auto config = fast_config();
    config.miners = 1;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    const auto record = system.run_round();
    EXPECT_DOUBLE_EQ(record.delay.t_ex, 0.0);
    EXPECT_GT(record.delay.t_bl, 0.0);
}

TEST(FairBfl, DiscardDefendsAgainstPoisoning) {
    // With sign-flip attackers, discard keeps accuracy close to the clean
    // run while keep-all should suffer.
    World clean_world(10, 62);
    World attacked_keep(10, 62);
    World attacked_discard(10, 62);

    auto base = fast_config();
    base.fl.rounds = 10;
    base.fl.client_ratio = 1.0;  // all 10 clients each round

    core::FairBfl clean(*clean_world.model, clean_world.clients(),
                        clean_world.test, base);

    auto attack_cfg = base;
    attack_cfg.attack.kind = core::AttackKind::kSignFlip;
    attack_cfg.attack.magnitude = 3.0;
    attack_cfg.attack.min_attackers = 2;
    attack_cfg.attack.max_attackers = 3;
    core::FairBfl keep(*attacked_keep.model, attacked_keep.clients(),
                       attacked_keep.test, attack_cfg);

    auto discard_cfg = attack_cfg;
    discard_cfg.incentive.strategy =
        inc::LowContributionStrategy::kDiscard;
    core::FairBfl discard(*attacked_discard.model, attacked_discard.clients(),
                          attacked_discard.test, discard_cfg);

    const double acc_clean = clean.run().back().fl.test_accuracy;
    const double acc_keep = keep.run().back().fl.test_accuracy;
    const double acc_discard = discard.run().back().fl.test_accuracy;

    EXPECT_GT(acc_discard, acc_keep);
    EXPECT_GT(acc_discard, acc_clean - 0.15);
}

TEST(FairBfl, DetectionRateReportedUnderAttack) {
    World world;
    auto config = fast_config();
    config.fl.client_ratio = 1.0;
    config.attack.kind = core::AttackKind::kSignFlip;
    config.attack.min_attackers = 1;
    config.attack.max_attackers = 3;
    config.incentive.strategy = inc::LowContributionStrategy::kDiscard;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    const auto history = system.run(10);
    double mean_detection = 0.0;
    for (const auto& record : history) {
        EXPECT_FALSE(record.attacker_clients.empty());
        mean_detection += record.detection_rate;
    }
    mean_detection /= static_cast<double>(history.size());
    EXPECT_GT(mean_detection, 0.5);  // Table 2 territory
}

TEST(FairBfl, DiscardBenchesClientsForNextRound) {
    World world;
    auto config = fast_config();
    config.fl.client_ratio = 1.0;
    config.attack.kind = core::AttackKind::kSignFlip;
    config.attack.min_attackers = 2;
    config.attack.max_attackers = 2;
    config.incentive.strategy = inc::LowContributionStrategy::kDiscard;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    const auto first = system.run_round();
    const auto second = system.run_round();
    if (!first.low_contribution_clients.empty()) {
        // Benched clients cannot appear among the next round's participants.
        for (const auto benched : first.low_contribution_clients) {
            for (const auto id : second.fl.participant_ids)
                EXPECT_NE(id, benched);
        }
        EXPECT_LT(second.fl.selected, 10U);
    }
}

TEST(FairBfl, RsaPathSignsEveryBlockTransaction) {
    World world;
    auto config = fast_config();
    config.key_bits = 384;  // small keys keep the test quick
    config.fl.rounds = 2;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    (void)system.run(2);
    const auto& chain = system.blockchain();
    EXPECT_EQ(chain.height(), 3U);
    for (std::size_t h = 1; h < chain.height(); ++h) {
        for (const auto& tx : chain.at(h).transactions)
            EXPECT_FALSE(tx.signature.empty());
    }
    EXPECT_TRUE(chain.validate_full_chain());
}

TEST(FairBfl, ZeroMinersStillSignsWinnerBlock) {
    // Regression: with config.miners == 0 and mining on, the winner's
    // block is signed by proxy id clients_.size(), which used to be
    // registered only for k < miners -- KeyStore::sign then threw
    // std::out_of_range as soon as crypto was enabled.
    World world;
    auto config = fast_config();
    config.miners = 0;
    config.key_bits = 384;
    config.fl.rounds = 2;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    std::vector<core::BflRoundRecord> records;
    ASSERT_NO_THROW(records = system.run(2));
    EXPECT_EQ(system.blockchain().height(), 3U);  // genesis + 2 rounds
    EXPECT_TRUE(system.blockchain().validate_full_chain());
    for (const auto& record : records)
        EXPECT_EQ(record.chain_height, record.fl.round + 2);
}

TEST(FairBfl, ZeroMinersEncryptedUploadStillDelivers) {
    // The upload stage addresses a proxy miner even when miners == 0; the
    // encrypted path must find that proxy's key pair registered.
    World world(6);
    auto config = fast_config();
    config.miners = 0;
    config.key_bits = 384;
    config.encrypt_gradients = true;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    core::BflRoundRecord record;
    ASSERT_NO_THROW(record = system.run_round());
    EXPECT_GT(record.fl.participants, 0U);  // nothing dropped undecryptable
}

TEST(FairBfl, EncryptedGradientPathLearnsIdentically) {
    // Hybrid encryption is pure transport: the decrypted gradients must
    // produce the same model as the plaintext path, while the wire payload
    // (and hence T_up) grows by the key-wrap + tag overhead.
    World plain_world(6, 63);
    World enc_world(6, 63);
    auto config = fast_config();
    config.fl.rounds = 2;
    config.key_bits = 384;
    core::FairBfl plain(*plain_world.model, plain_world.clients(),
                        plain_world.test, config);
    config.encrypt_gradients = true;
    core::FairBfl encrypted(*enc_world.model, enc_world.clients(),
                            enc_world.test, config);
    const auto rec_plain = plain.run_round();
    const auto rec_enc = encrypted.run_round();
    EXPECT_EQ(rec_plain.fl.test_accuracy, rec_enc.fl.test_accuracy);
    EXPECT_TRUE(std::equal(plain.weights().begin(), plain.weights().end(),
                           encrypted.weights().begin()));
    EXPECT_GT(rec_enc.delay.t_up, rec_plain.delay.t_up);  // bigger payload
}

TEST(FairBfl, SecureRoundsAreThreadCountIndependentAndPinned) {
    // 512-bit keys, encrypted uploads to three miners: the per-client
    // upload crypto, the block signatures, key generation and both
    // accuracy passes (the 120-row test set spans two evaluation chunks)
    // all fan out across the pool.  Weights / ledger total / chain tip
    // were captured from the single-threaded upload and signing loops.
    static constexpr const char* kDigest =
        "3bf12554a53ac285ebd46321a9642012e928ae2c3a5c9d2331c4968a06574214/4/"
        "98a593cf26bb11e4e6117bca824432f377f9d0e80a07c5842a166047d0b9c67e";
    std::vector<std::vector<double>> accuracy;  // per round, per pool
    for (const unsigned threads : {1U, 4U}) {
        World world(8);
        ASSERT_GT(world.test.size(), fairbfl::ml::Model::kAccuracyChunk);
        auto config = fast_config();
        config.fl.client_ratio = 1.0;
        config.key_bits = 512;
        config.encrypt_gradients = true;
        config.miners = 3;
        fairbfl::support::ThreadPool pool(threads);
        config.pool = &pool;
        core::FairBfl system(*world.model, world.clients(), world.test,
                             config);
        accuracy.emplace_back();
        for (const auto& record : system.run(4)) {
            EXPECT_EQ(record.fl.participants, 8U) << threads << " threads";
            accuracy.back().push_back(record.fl.test_accuracy);
        }
        EXPECT_EQ(outcome_digest(system), kDigest) << threads << " threads";
        EXPECT_TRUE(system.blockchain().validate_full_chain());
    }
    EXPECT_EQ(accuracy[0], accuracy[1]);
}

TEST(FairBfl, ShardTreeUnderSignFlipIsThreadCountIndependentAndPinned) {
    // 32 clients split into four shard-level Algorithm 2 passes plus the
    // root pass, fanned out on the system's own pool, against two to four
    // sign-flip attackers per round.
    static constexpr const char* kDigest =
        "92367fc1cc91e92d9f8dba5c2c27594bfba8fe08c2e85f4a63511c5af875f9f2/4/"
        "78e4f5ba628c34ac102fd0e30bb412fd5b56267eb817438fcf81ebc8cc312ca8";
    auto config = fast_config();
    config.fl.client_ratio = 1.0;
    config.incentive.sharding.shards = 4;
    config.attack.kind = core::AttackKind::kSignFlip;
    config.attack.min_attackers = 2;
    config.attack.max_attackers = 4;
    for (const unsigned threads : {1U, 4U}) {
        std::size_t flagged = 0;
        EXPECT_EQ(pinned_run(config, 32, threads, flagged), kDigest)
            << threads << " threads";
        EXPECT_GT(flagged, 0U) << threads << " threads";
    }
}

TEST(FairBfl, MedianSettlementWithAlgorithm2IsThreadCountIndependentAndPinned) {
    // An explicit robust rule settles the round: Algorithm 2 picks the
    // survivors (discard strategy, so flagged clients are also benched)
    // and the coordinate-wise median combines them.
    static constexpr const char* kDigest =
        "f08e1ad0fe3cb8190d23b1a499722cfd1fbfaa298b3ac5fc0d2c39e4b338852e/4/"
        "8f7f6d82b47142648e05686fcdd5101f438e0bddb0372ec61c640e3503511c94";
    auto config = fast_config();
    config.aggregator = core::make_aggregator("median");
    config.incentive.strategy = inc::LowContributionStrategy::kDiscard;
    config.attack.kind = core::AttackKind::kSignFlip;
    for (const unsigned threads : {1U, 4U}) {
        std::size_t flagged = 0;
        EXPECT_EQ(pinned_run(config, 10, threads, flagged), kDigest)
            << threads << " threads";
        EXPECT_GT(flagged, 0U) << threads << " threads";
    }
}

TEST(FairBfl, IncentiveDisabledStillAggregates) {
    World world;
    auto config = fast_config();
    config.enable_incentive = false;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    const auto history = system.run(6);
    EXPECT_GT(history.back().fl.test_accuracy,
              history.front().fl.test_accuracy);
    EXPECT_DOUBLE_EQ(system.ledger().grand_total(), 0.0);
    for (const auto& record : history)
        EXPECT_TRUE(record.low_contribution_clients.empty());
}

TEST(FairBfl, Assumption2AblationPutsGradientsOnChain) {
    World world;
    auto config = fast_config();
    config.record_local_gradients = true;
    // Small blocks force multi-block rounds (queuing).
    config.delay.max_block_bytes = 600;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    const auto record = system.run_round();
    EXPECT_GT(record.blocks_this_round, 1U);
    bool found_local = false;
    const auto& tip = system.blockchain().tip();
    for (const auto& tx : tip.transactions)
        if (tx.kind == ch::TxKind::kLocalGradient) found_local = true;
    EXPECT_TRUE(found_local);
}

TEST(FairBfl, Assumption1AblationCanFork) {
    World world;
    auto config = fast_config();
    config.consensus = "async_pow";
    config.miners = 10;
    // Slow links widen the fork window.
    config.delay.network.miner_bandwidth_Bps = 1e5;
    config.delay.max_block_bytes = 1'000'000;
    config.record_local_gradients = true;
    config.delay.difficulty = 2'000'000;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    std::size_t forks = 0;
    for (int r = 0; r < 8; ++r) forks += system.run_round().forks_this_round;
    EXPECT_GT(forks, 0U);
}

}  // namespace
