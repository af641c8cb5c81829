// Shard-tree Algorithm 2 (fl/sharding.hpp + incentive/hierarchical.hpp):
//
//   * shards=1 is the flat pipeline bit-for-bit (same pinned theta/reward
//     series as tests/test_contribution_equivalence.cpp);
//   * attack detection at shards=4, n=128 stays within 2% of flat;
//   * per-client rewards conserve the round budget under sharding;
//   * results are independent of the fan-out pool's thread count;
//   * peak per-pass index memory drops >= 3x at the acceptance point
//     (n=256, d=7850, exact backend);
//   * the shard plan itself is balanced, covering, and clamped.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/attacker.hpp"
#include "core/fairbfl.hpp"
#include "incentive/hierarchical.hpp"
#include "ml/partition.hpp"
#include "ml/synthetic_mnist.hpp"
#include "support/rng.hpp"
#include "telemetry/decode.hpp"

namespace {

namespace core = fairbfl::core;
namespace inc = fairbfl::incentive;
namespace fl = fairbfl::fl;
namespace ml = fairbfl::ml;
namespace tel = fairbfl::telemetry;
using fairbfl::support::Rng;
using fairbfl::support::ThreadPool;

// --- Fixtures --------------------------------------------------------------

/// The test_contribution_equivalence generator: two honest blobs plus two
/// outliers.  Kept in sync so the pinned series below stay valid.
std::vector<fl::GradientUpdate> synth_updates(std::size_t n, std::size_t dim,
                                              std::uint64_t seed) {
    Rng rng(seed);
    std::vector<fl::GradientUpdate> updates(n);
    for (std::size_t i = 0; i < n; ++i) {
        updates[i].client = static_cast<fl::NodeId>(i);
        updates[i].num_samples = 10 + i;
        updates[i].weights.resize(dim);
        const bool outlier = i + 2 >= n;
        for (std::size_t d = 0; d < dim; ++d) {
            const double base = outlier ? 5.0 * (d % 2 ? -1.0 : 1.0)
                                        : 0.1 * static_cast<double>(d % 7);
            updates[i].weights[d] =
                static_cast<float>(base + 0.05 * rng.normal());
        }
    }
    return updates;
}

struct Fixture {
    std::vector<fl::GradientUpdate> updates;
    std::vector<float> global;
    std::vector<float> reference;
};

Fixture make_fixture() {
    Fixture f;
    f.updates = synth_updates(10, 16, 1234);
    f.global.assign(16, 0.0F);
    for (const auto& u : f.updates)
        for (std::size_t d = 0; d < 16; ++d)
            f.global[d] += u.weights[d] / 10.0F;
    f.reference.assign(16, 0.01F);
    return f;
}

/// A larger round: n clients in one honest blob, `attackers` of them
/// sign-flip-forged (every 16th index, offset 3 -- scattered across any
/// contiguous shard plan).  Returns the attacked fixture plus the
/// attacker ids.
struct AttackFixture {
    Fixture f;
    std::vector<fl::NodeId> attackers;
};

AttackFixture make_attack_fixture(std::size_t n, std::size_t dim,
                                  std::uint64_t seed) {
    AttackFixture out;
    Rng rng(seed);
    out.f.updates.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto& u = out.f.updates[i];
        u.client = static_cast<fl::NodeId>(i);
        u.num_samples = 20;
        u.weights.resize(dim);
        for (std::size_t d = 0; d < dim; ++d)
            u.weights[d] = static_cast<float>(0.1 * static_cast<double>(d % 7) +
                                              0.05 * rng.normal());
    }
    out.f.reference.assign(dim, 0.01F);
    for (std::size_t i = 3; i < n; i += 16) {
        // Sign-flip forgery around the reference, amplified (the Table 2
        // default attack shape).
        auto& u = out.f.updates[i];
        for (std::size_t d = 0; d < dim; ++d) {
            u.weights[d] = out.f.reference[d] -
                           3.0F * (u.weights[d] - out.f.reference[d]);
        }
        out.attackers.push_back(u.client);
    }
    out.f.global.assign(dim, 0.0F);
    for (const auto& u : out.f.updates)
        for (std::size_t d = 0; d < dim; ++d)
            out.f.global[d] += u.weights[d] / static_cast<float>(n);
    return out;
}

inc::ContributionConfig sharded_config(std::size_t shards) {
    inc::ContributionConfig config;
    config.sharding.shards = shards;
    return config;
}

// Pinned flat series (test_contribution_equivalence.cpp): shards=1 must
// reproduce these bit-for-bit.
const std::vector<double> kExpectedTheta{
    0x1.5c92e1025b6a2p-1, 0x1.6deba89402f4ap-1, 0x1.956cd226546d7p-1,
    0x1.6e4ff7416c15p-1,  0x1.88c0f9ac3a592p-1, 0x1.9c596c4e7eb21p-1,
    0x1.937313f09a0cep-1, 0x1.84ccc6062a99fp-1, 0x1.1b72c4ed1608p-5,
    0x1.2545cc55cac4p-5};

const std::vector<double> kExpectedReward{
    0x1.cf04dc420b47bp-4, 0x1.e60fa7e961227p-4, 0x1.0d449b95f4edbp-3,
    0x1.e694e586013abp-4, 0x1.04da2b11b394ep-3, 0x1.11dde72e607e1p-3,
    0x1.0bf4b65f04b62p-3, 0x1.0239e6f23b76bp-3, 0.0,
    0.0};

double detection_of(const inc::ContributionReport& report,
                    const std::vector<fl::NodeId>& attackers) {
    return core::detection_rate(attackers, report.low_clients());
}

// --- Shard plan ------------------------------------------------------------

TEST(ShardTree, PlanIsBalancedCoveringAndClamped) {
    const fl::ShardTree tree({.shards = 4, .min_shard_clients = 8});
    // 130 clients over 4 shards: sizes 33,33,32,32, covering [0, 130).
    const auto plan = tree.plan(130);
    ASSERT_EQ(plan.size(), 4U);
    std::size_t expect_begin = 0;
    for (std::size_t s = 0; s < plan.size(); ++s) {
        EXPECT_EQ(plan[s].begin, expect_begin);
        EXPECT_EQ(plan[s].size(), s < 2 ? 33U : 32U);
        expect_begin = plan[s].end;
    }
    EXPECT_EQ(expect_begin, 130U);
    // Too few clients to keep every shard at min_shard_clients: clamp.
    EXPECT_EQ(tree.shard_count(20), 2U);
    EXPECT_EQ(tree.shard_count(10), 1U);
    EXPECT_EQ(tree.shard_count(0), 1U);
    // The paper's 10-client Table 2 setting never splits.
    EXPECT_EQ(fl::ShardTree({.shards = 64, .min_shard_clients = 8})
                  .shard_count(10),
              1U);
}

// --- shards=1 equivalence --------------------------------------------------

TEST(ShardTreeEquivalence, ShardsOneBitIdenticalToFlatPinnedSeries) {
    const Fixture f = make_fixture();
    const auto flat = inc::identify_contributions(
        f.updates, f.global, inc::ContributionConfig{}, f.reference);
    const auto report = inc::identify_contributions_hierarchical(
        f.updates, f.global, sharded_config(1), f.reference);

    ASSERT_EQ(report.entries.size(), 10U);
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_DOUBLE_EQ(report.entries[i].theta, kExpectedTheta[i]) << i;
        EXPECT_DOUBLE_EQ(report.entries[i].reward, kExpectedReward[i]) << i;
        EXPECT_EQ(report.entries[i].high, flat.entries[i].high) << i;
    }
    EXPECT_EQ(report.high_indices, flat.high_indices);
    EXPECT_EQ(report.low_indices, flat.low_indices);
    EXPECT_EQ(report.clustering.labels, flat.clustering.labels);
    EXPECT_EQ(report.global_cluster, flat.global_cluster);
    // The flat path leaves the hierarchical extras at their defaults, so
    // the settlement stays the flat Eq. 1 downstream.
    EXPECT_EQ(report.shard_count, 1U);
    EXPECT_TRUE(report.settled_weights.empty());
    // Both strategies settle identically to the flat pipeline.
    for (const auto strategy : {inc::LowContributionStrategy::kKeepAll,
                                inc::LowContributionStrategy::kDiscard}) {
        EXPECT_EQ(inc::apply_strategy(f.updates, report, strategy),
                  inc::apply_strategy(f.updates, flat, strategy));
    }
}

// A round too small for the requested fan-out must clamp back to flat --
// not degrade detection by clustering 2-point shards.
TEST(ShardTreeEquivalence, TinyRoundClampsToFlat) {
    const Fixture f = make_fixture();
    const auto tree = inc::identify_contributions_hierarchical(
        f.updates, f.global, sharded_config(4), f.reference);
    EXPECT_EQ(tree.shard_count, 1U);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(tree.entries[i].theta, kExpectedTheta[i]);
}

// --- Detection parity ------------------------------------------------------

TEST(ShardTreeDetection, ParityWithinTwoPercentOfFlatAtFourShards) {
    const AttackFixture ax = make_attack_fixture(128, 64, 777);
    const auto flat = inc::identify_contributions(
        ax.f.updates, ax.f.global, inc::ContributionConfig{}, ax.f.reference);
    const auto tree = inc::identify_contributions_hierarchical(
        ax.f.updates, ax.f.global, sharded_config(4), ax.f.reference);
    ASSERT_EQ(tree.shard_count, 4U);

    const double flat_rate = detection_of(flat, ax.attackers);
    const double tree_rate = detection_of(tree, ax.attackers);
    // The flat pipeline catches this fixture completely; the tree must
    // stay within 2% of whatever flat achieves.
    EXPECT_EQ(flat_rate, 1.0);
    EXPECT_GE(tree_rate, flat_rate - 0.02);
    // No honest client is falsely discarded by the hierarchy.
    EXPECT_EQ(tree.low_indices.size(), ax.attackers.size());
}

// --- Reward conservation ---------------------------------------------------

TEST(ShardTreeRewards, ConserveTheRoundBudgetUnderSharding) {
    const AttackFixture ax = make_attack_fixture(128, 64, 4242);
    for (const auto strategy : {inc::LowContributionStrategy::kKeepAll,
                                inc::LowContributionStrategy::kDiscard}) {
        auto config = sharded_config(4);
        config.strategy = strategy;
        config.reward_base = 2.5;
        const auto tree = inc::identify_contributions_hierarchical(
            ax.f.updates, ax.f.global, config, ax.f.reference);
        EXPECT_NEAR(tree.total_reward(), 2.5, 1e-9);
        // Attackers earn nothing; every reward is non-negative.
        for (const auto& entry : tree.entries) {
            EXPECT_GE(entry.reward, 0.0);
            if (!entry.high) EXPECT_EQ(entry.reward, 0.0);
        }
    }
}

// --- Determinism -----------------------------------------------------------

TEST(ShardTreeDeterminism, IndependentOfFanOutThreadCount) {
    const AttackFixture ax = make_attack_fixture(96, 32, 99);
    ThreadPool serial(1);
    ThreadPool wide(4);
    const auto a = inc::identify_contributions_hierarchical(
        ax.f.updates, ax.f.global, sharded_config(4), ax.f.reference, serial);
    const auto b = inc::identify_contributions_hierarchical(
        ax.f.updates, ax.f.global, sharded_config(4), ax.f.reference, wide);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        EXPECT_EQ(a.entries[i].theta, b.entries[i].theta) << i;
        EXPECT_EQ(a.entries[i].reward, b.entries[i].reward) << i;
        EXPECT_EQ(a.entries[i].high, b.entries[i].high) << i;
    }
    EXPECT_EQ(a.high_indices, b.high_indices);
    EXPECT_EQ(a.settled_weights, b.settled_weights);
    EXPECT_EQ(a.clustering.labels, b.clustering.labels);
}

// --- Memory ceiling --------------------------------------------------------

// The acceptance point: n=256 clients at the paper's 7850-parameter model,
// exact backend.  Four shards cut the peak per-pass index from (257)^2
// doubles to (65)^2 -- well past the required 3x.
TEST(ShardTreeMemory, PeakIndexBytesDropAtLeastThreeTimes) {
    AttackFixture ax = make_attack_fixture(256, 7850, 31337);
    const auto flat = inc::identify_contributions(
        ax.f.updates, ax.f.global, inc::ContributionConfig{}, ax.f.reference);
    const auto tree = inc::identify_contributions_hierarchical(
        ax.f.updates, ax.f.global, sharded_config(4), ax.f.reference);
    ASSERT_EQ(tree.shard_count, 4U);
    ASSERT_GT(flat.index_peak_bytes, 0U);
    ASSERT_GT(tree.index_peak_bytes, 0U);
    EXPECT_GE(flat.index_peak_bytes, 3 * tree.index_peak_bytes);
    // Exact backend arithmetic: (n+1)^2 doubles flat, (n/S+1)^2 per shard.
    EXPECT_EQ(flat.index_peak_bytes, 257U * 257U * sizeof(double));
    EXPECT_EQ(tree.index_peak_bytes, 65U * 65U * sizeof(double));
}

// --- End-to-end through FairBfl -------------------------------------------

TEST(ShardTreeFairBfl, ShardedRoundsRunDetectAndRecordPerLevelTiming) {
    ml::Dataset data = ml::make_synthetic_mnist({.samples = 800,
                                                 .feature_dim = 8,
                                                 .num_classes = 4,
                                                 .noise_sigma = 0.25,
                                                 .seed = 7});
    const auto model = ml::make_logistic_regression(8, 4);
    const auto split = ml::train_test_split(data, 0.2, 7);
    ml::PartitionParams params;
    params.scheme = ml::PartitionScheme::kIid;
    params.num_clients = 32;
    params.seed = 7;
    const auto shards = ml::partition(split.train, params);

    core::FairBflConfig config;
    config.fl.client_ratio = 1.0;
    config.fl.rounds = 2;
    config.fl.seed = 7;
    config.attack.kind = core::AttackKind::kSignFlip;
    config.incentive.sharding.shards = 4;
    core::FairBfl system(*model, fl::make_clients(*model, shards),
                         split.test, config);
    tel::set_enabled(true);
    tel::capture_begin();
    const auto records = system.run();
    const tel::Dump dump = tel::capture_end();
    ASSERT_EQ(records.size(), 2U);
    for (const auto& record : records) {
        // Per-level timings ride inside the cluster stage.
        const tel::RoundStats stats = tel::dump_round_stats(
            dump, system.telemetry_session().id(),
            static_cast<std::uint32_t>(record.fl.round));
        EXPECT_GT(stats.seconds_of("round.cluster"), 0.0);
        EXPECT_GT(stats.seconds_of("cluster.shard_pass"), 0.0);
        EXPECT_GT(stats.seconds_of("cluster.root_pass"), 0.0);
        EXPECT_GT(stats.max_of("cluster.index_bytes"), 0U);
        // The hierarchy still pays the full budget each round.
        EXPECT_NEAR(record.round_reward_total, 1.0, 1e-9);
        EXPECT_EQ(record.detection_rate, 1.0);
    }
}

}  // namespace
