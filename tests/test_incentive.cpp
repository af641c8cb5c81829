// Algorithm 2: contribution identification, reward math, strategies, and
// the reward ledger.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "incentive/contribution.hpp"
#include "incentive/reward.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/vecmath.hpp"

namespace {

namespace inc = fairbfl::incentive;
namespace fl = fairbfl::fl;
using fairbfl::support::Rng;

/// Honest updates tightly packed around `base`; forged ones far away.
std::vector<fl::GradientUpdate> make_round(std::size_t honest,
                                           std::size_t forged,
                                           std::uint64_t seed,
                                           std::size_t dim = 12) {
    Rng rng(seed);
    std::vector<float> base(dim);
    for (auto& v : base) v = static_cast<float>(rng.normal());

    std::vector<fl::GradientUpdate> updates;
    fl::NodeId id = 0;
    for (std::size_t i = 0; i < honest; ++i) {
        fl::GradientUpdate u;
        u.client = id++;
        u.weights = base;
        for (auto& v : u.weights)
            v += static_cast<float>(0.02 * rng.normal());
        updates.push_back(std::move(u));
    }
    for (std::size_t i = 0; i < forged; ++i) {
        fl::GradientUpdate u;
        u.client = id++;
        u.weights.resize(dim);
        for (std::size_t d = 0; d < dim; ++d)
            u.weights[d] = -3.0F * base[d] +
                           static_cast<float>(0.5 * rng.normal());
        updates.push_back(std::move(u));
    }
    return updates;
}

inc::ContributionConfig default_config() {
    inc::ContributionConfig config;
    config.dbscan.adaptive_eps = true;
    config.dbscan.min_pts = 3;
    return config;
}

TEST(Contribution, HonestMajorityIsHighForgedIsLow) {
    auto updates = make_round(10, 2, 1);
    const auto provisional = fl::simple_average(updates);
    const auto report =
        inc::identify_contributions(updates, provisional, default_config());

    ASSERT_EQ(report.entries.size(), 12U);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_TRUE(report.entries[i].high) << "honest client " << i;
    for (std::size_t i = 10; i < 12; ++i)
        EXPECT_FALSE(report.entries[i].high) << "forged client " << i;
    EXPECT_EQ(report.high_indices.size(), 10U);
    EXPECT_EQ(report.low_indices.size(), 2U);
}

TEST(Contribution, RewardsSumToBaseAndOnlyHighEarn) {
    auto updates = make_round(8, 2, 2);
    const auto provisional = fl::simple_average(updates);
    auto config = default_config();
    config.reward_base = 5.0;
    const auto report =
        inc::identify_contributions(updates, provisional, config);

    double total = 0.0;
    for (const auto& entry : report.entries) {
        if (!entry.high) {
            EXPECT_DOUBLE_EQ(entry.reward, 0.0);
        }
        total += entry.reward;
    }
    EXPECT_NEAR(total, 5.0, 1e-9);
    EXPECT_NEAR(report.total_reward(), 5.0, 1e-9);
}

TEST(Contribution, RewardProportionalToTheta) {
    auto updates = make_round(6, 0, 3);
    const auto provisional = fl::simple_average(updates);
    const auto report =
        inc::identify_contributions(updates, provisional, default_config());
    // reward_i / reward_j == theta_i / theta_j for high contributors.
    const auto& e = report.entries;
    for (std::size_t i = 1; i < e.size(); ++i) {
        if (e[0].theta > 1e-12 && e[i].theta > 1e-12) {
            EXPECT_NEAR(e[i].reward / e[0].reward, e[i].theta / e[0].theta,
                        1e-6);
        }
    }
}

TEST(Contribution, IdenticalGradientsSplitRewardEvenly) {
    std::vector<fl::GradientUpdate> updates;
    for (fl::NodeId id = 0; id < 4; ++id) {
        fl::GradientUpdate u;
        u.client = id;
        u.weights = {1.0F, 2.0F, 3.0F};
        updates.push_back(std::move(u));
    }
    const auto provisional = fl::simple_average(updates);
    auto config = default_config();
    config.dbscan.adaptive_eps = false;
    config.dbscan.eps = 0.5;
    const auto report =
        inc::identify_contributions(updates, provisional, config);
    for (const auto& entry : report.entries)
        EXPECT_NEAR(entry.reward, 0.25, 1e-9);
}

TEST(Contribution, TinyRoundsDegradeToEveryoneHigh) {
    // With n + 1 points <= min_pts there is no k-distance sample;
    // suggest_eps returns 0, DBSCAN labels everything noise, and
    // Algorithm 2 must degrade to plain fair aggregation (everyone high,
    // rewards still summing to base) -- not cluster on an invented eps.
    for (const std::size_t n : {1U, 2U}) {
        auto updates = make_round(n, 0, 10 + n);
        const auto provisional = fl::simple_average(updates);
        const auto report = inc::identify_contributions(updates, provisional,
                                                        default_config());
        ASSERT_EQ(report.entries.size(), n);
        EXPECT_EQ(report.clustering.num_clusters, 0) << n;
        EXPECT_EQ(report.global_cluster, fairbfl::cluster::ClusterResult::kNoise);
        double total = 0.0;
        for (const auto& entry : report.entries) {
            EXPECT_TRUE(entry.high);
            total += entry.reward;
        }
        EXPECT_NEAR(total, 1.0, 1e-9) << n;
    }
}

TEST(Contribution, EmptyUpdateSetYieldsEmptyReport) {
    const std::vector<fl::GradientUpdate> updates;
    const std::vector<float> provisional{1.0F};
    const auto report =
        inc::identify_contributions(updates, provisional, default_config());
    EXPECT_TRUE(report.entries.empty());
    EXPECT_DOUBLE_EQ(report.total_reward(), 0.0);
}

TEST(Contribution, LowClientsSortedIds) {
    auto updates = make_round(6, 3, 4);
    const auto provisional = fl::simple_average(updates);
    const auto report =
        inc::identify_contributions(updates, provisional, default_config());
    const auto low = report.low_clients();
    EXPECT_EQ(low.size(), 3U);
    for (std::size_t i = 1; i < low.size(); ++i)
        EXPECT_LT(low[i - 1], low[i]);
}

TEST(Contribution, KMeansVariantAlsoSeparates) {
    auto updates = make_round(10, 2, 5);
    const auto provisional = fl::simple_average(updates);
    auto config = default_config();
    config.clustering = "kmeans";
    config.kmeans.k = 2;
    const auto report =
        inc::identify_contributions(updates, provisional, config);
    // The two forged clients must not share the global's cluster.
    EXPECT_FALSE(report.entries[10].high);
    EXPECT_FALSE(report.entries[11].high);
}

TEST(Strategy, KeepAllUsesEveryUpdate) {
    auto updates = make_round(6, 2, 6);
    const auto provisional = fl::simple_average(updates);
    const auto report =
        inc::identify_contributions(updates, provisional, default_config());
    const auto survivors = inc::select_survivors(
        updates, report, inc::LowContributionStrategy::kKeepAll);
    EXPECT_EQ(survivors.indices.size(), updates.size());
    for (std::size_t k = 0; k < survivors.indices.size(); ++k)
        EXPECT_EQ(survivors.indices[k], k);
}

TEST(Strategy, DiscardDropsLowContributors) {
    auto updates = make_round(6, 2, 7);
    const auto provisional = fl::simple_average(updates);
    const auto report =
        inc::identify_contributions(updates, provisional, default_config());
    const auto survivors = inc::select_survivors(
        updates, report, inc::LowContributionStrategy::kDiscard);
    EXPECT_EQ(survivors.indices.size(), 6U);
    for (const std::size_t i : survivors.indices)
        EXPECT_LT(updates[i].client, 6U);
}

TEST(Strategy, DiscardYieldsCleanerGlobalUnderAttack) {
    // The recomputed global (discard) must be closer to the honest mean
    // than the provisional average that includes forged gradients.
    auto updates = make_round(10, 3, 8);
    std::vector<fl::GradientUpdate> honest_only(updates.begin(),
                                                updates.begin() + 10);
    const auto honest_mean = fl::simple_average(honest_only);
    const auto provisional = fl::simple_average(updates);
    const auto report =
        inc::identify_contributions(updates, provisional, default_config());
    const auto cleaned = inc::apply_strategy(
        updates, report, inc::LowContributionStrategy::kDiscard);

    const double dirty_gap = std::sqrt(
        fairbfl::support::squared_distance(provisional, honest_mean));
    const double clean_gap = std::sqrt(
        fairbfl::support::squared_distance(cleaned, honest_mean));
    EXPECT_LT(clean_gap, dirty_gap * 0.5);
}

TEST(Strategy, DiscardWithNoHighFallsBackToAll) {
    auto updates = make_round(4, 0, 9);
    inc::ContributionReport report;
    report.entries.resize(4);
    for (std::size_t i = 0; i < 4; ++i) {
        report.entries[i].client = static_cast<fl::NodeId>(i);
        report.entries[i].theta = 0.1;
        report.entries[i].high = false;
        report.low_indices.push_back(i);
    }
    const auto survivors = inc::select_survivors(
        updates, report, inc::LowContributionStrategy::kDiscard);
    EXPECT_EQ(survivors.indices.size(), 4U);
    const auto aggregated = inc::apply_strategy(
        updates, report, inc::LowContributionStrategy::kDiscard);
    EXPECT_EQ(aggregated.size(), updates[0].weights.size());
}

TEST(Strategy, ApplyStrategyRejectsEmptyAndRaggedSets) {
    // The survivors combine from row views of the caller's updates; the
    // row-view combine must still reject what the copied set was rejected
    // for, under both strategies.
    inc::ContributionReport empty_report;
    for (const auto strategy : {inc::LowContributionStrategy::kKeepAll,
                                inc::LowContributionStrategy::kDiscard}) {
        EXPECT_THROW((void)inc::apply_strategy({}, empty_report, strategy),
                     std::invalid_argument);
    }
    auto updates = make_round(4, 0, 10);
    updates[2].weights.pop_back();
    inc::ContributionReport report;
    report.entries.resize(updates.size());
    for (std::size_t i = 0; i < updates.size(); ++i) {
        report.entries[i].client = updates[i].client;
        report.entries[i].theta = 0.1 * static_cast<double>(i + 1);
        report.entries[i].high = true;
        report.high_indices.push_back(i);
    }
    for (const auto strategy : {inc::LowContributionStrategy::kKeepAll,
                                inc::LowContributionStrategy::kDiscard}) {
        EXPECT_THROW((void)inc::apply_strategy(updates, report, strategy),
                     std::invalid_argument);
        // Degenerate theta takes the simple-average path; it rejects too.
        inc::ContributionReport flat = report;
        for (auto& entry : flat.entries) entry.theta = 0.0;
        EXPECT_THROW((void)inc::apply_strategy(updates, flat, strategy),
                     std::invalid_argument);
    }
}

TEST(Contribution, ReportIsBitIdenticalOnOneAndFourThreadPools) {
    // The index build and the theta rows run on the pool the caller
    // passes.  Labels, theta, high flags and rewards must not
    // depend on its size, under the exact build and under the engaged
    // random-projection sketch (122 points > 2 x 48 sketch dims, each of
    // width 96 > 48).
    const auto updates = make_round(110, 11, 31, /*dim=*/96);
    const auto provisional = fl::simple_average(updates);
    std::vector<float> reference(96);
    Rng rng(32);
    for (auto& v : reference) v = static_cast<float>(0.1 * rng.normal());
    fairbfl::support::ThreadPool serial(1);
    fairbfl::support::ThreadPool parallel(4);
    for (const char* index : {"exact", "random_projection"}) {
        inc::ContributionConfig config = default_config();
        config.index = index;
        const auto a = inc::identify_contributions(updates, provisional,
                                                   config, reference, serial);
        const auto b = inc::identify_contributions(
            updates, provisional, config, reference, parallel);
        EXPECT_EQ(a.index_backend, index);
        EXPECT_EQ(a.index_backend, b.index_backend);
        EXPECT_EQ(a.index_peak_bytes, b.index_peak_bytes);
        EXPECT_EQ(a.clustering.labels, b.clustering.labels) << index;
        EXPECT_EQ(a.clustering.num_clusters, b.clustering.num_clusters);
        EXPECT_EQ(a.global_cluster, b.global_cluster) << index;
        EXPECT_EQ(a.high_indices, b.high_indices) << index;
        EXPECT_EQ(a.low_indices, b.low_indices) << index;
        ASSERT_EQ(a.entries.size(), updates.size());
        ASSERT_EQ(b.entries.size(), updates.size());
        for (std::size_t i = 0; i < updates.size(); ++i) {
            EXPECT_EQ(a.entries[i].client, b.entries[i].client);
            EXPECT_EQ(a.entries[i].high, b.entries[i].high) << index << i;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.entries[i].theta),
                      std::bit_cast<std::uint64_t>(b.entries[i].theta))
                << index << " theta " << i;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.entries[i].reward),
                      std::bit_cast<std::uint64_t>(b.entries[i].reward))
                << index << " reward " << i;
        }
        // The forged tail must actually be separated, or the labels pin
        // nothing.
        EXPECT_FALSE(a.low_indices.empty()) << index;
    }
}

TEST(RewardLedger, AccumulatesAcrossRounds) {
    inc::RewardLedger ledger;
    ledger.record_entry({0, 1, 2.0});
    ledger.record_entry({0, 2, 1.0});
    ledger.record_entry({1, 1, 0.5});
    EXPECT_DOUBLE_EQ(ledger.total_for(1), 2.5);
    EXPECT_DOUBLE_EQ(ledger.total_for(2), 1.0);
    EXPECT_DOUBLE_EQ(ledger.total_for(99), 0.0);
    EXPECT_DOUBLE_EQ(ledger.grand_total(), 3.5);
    EXPECT_EQ(ledger.rounds_recorded(), 2U);
    EXPECT_EQ(ledger.history().size(), 3U);
}

TEST(RewardLedger, LeaderboardSortedByTotal) {
    inc::RewardLedger ledger;
    ledger.record_entry({0, 5, 1.0});
    ledger.record_entry({0, 3, 4.0});
    ledger.record_entry({1, 7, 4.0});  // tie with 3 -> lower id first
    const auto board = ledger.leaderboard();
    ASSERT_EQ(board.size(), 3U);
    EXPECT_EQ(board[0].first, 3U);
    EXPECT_EQ(board[1].first, 7U);
    EXPECT_EQ(board[2].first, 5U);
}

TEST(RewardLedger, RecordSkipsZeroRewards) {
    inc::RewardLedger ledger;
    inc::ContributionReport report;
    report.entries.resize(2);
    report.entries[0] = {.client = 1, .theta = 0.5, .high = true, .reward = 1.0};
    report.entries[1] = {.client = 2, .theta = 0.9, .high = false, .reward = 0.0};
    ledger.record(3, report);
    EXPECT_EQ(ledger.history().size(), 1U);
    EXPECT_DOUBLE_EQ(ledger.total_for(2), 0.0);
}

}  // namespace
