// Randomized property suites: invariants that must hold for *every* input,
// checked across many seeded random instances (parameterized by seed).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "chain/chain.hpp"
#include "cluster/dbscan.hpp"
#include "core/round_engine.hpp"
#include "crypto/bigint.hpp"
#include "fl/aggregation.hpp"
#include "fl/gradient.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace {

using fairbfl::support::Rng;
namespace ch = fairbfl::chain;
namespace cl = fairbfl::cluster;
namespace core = fairbfl::core;
namespace fl = fairbfl::fl;
using fairbfl::crypto::BigUint;

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

// ---------------------------------------------------------------------------
// Serialization fuzz: random transactions and blocks must round-trip.

ch::Transaction random_tx(Rng& rng) {
    ch::Transaction tx;
    tx.kind = static_cast<ch::TxKind>(rng.uniform_int(0, 3));
    tx.origin = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
    tx.round = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    tx.payload.resize(static_cast<std::size_t>(rng.uniform_int(0, 300)));
    for (auto& b : tx.payload) b = static_cast<std::uint8_t>(rng() & 0xFF);
    tx.signature.resize(static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : tx.signature) b = static_cast<std::uint8_t>(rng() & 0xFF);
    return tx;
}

TEST_P(SeededProperty, TransactionRoundTripAndSizeInvariant) {
    Rng rng(GetParam());
    for (int i = 0; i < 40; ++i) {
        const ch::Transaction tx = random_tx(rng);
        const auto encoded = tx.encode();
        EXPECT_EQ(encoded.size(), tx.size_bytes());
        ch::ByteReader reader(encoded);
        EXPECT_EQ(ch::Transaction::decode(reader), tx);
        EXPECT_TRUE(reader.exhausted());
    }
}

TEST_P(SeededProperty, BlockRoundTripAndMerkleDetectsAnyTamper) {
    Rng rng(GetParam());
    ch::Block block;
    const auto tx_count = static_cast<std::size_t>(rng.uniform_int(1, 12));
    for (std::size_t i = 0; i < tx_count; ++i)
        block.transactions.push_back(random_tx(rng));
    block.header.index = 3;
    block.seal_transactions();

    const auto encoded = block.encode();
    ch::ByteReader reader(encoded);
    EXPECT_EQ(ch::Block::decode(reader), block);

    // Tamper with any single transaction byte: merkle consistency breaks.
    const auto victim = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(tx_count) - 1));
    if (!block.transactions[victim].payload.empty()) {
        block.transactions[victim].payload[0] ^= 0x01;
        EXPECT_FALSE(block.merkle_consistent());
    }
}

// ---------------------------------------------------------------------------
// Blockchain fork torture: submit a random block-tree; the best chain must
// be a longest root-to-leaf path and survive full validation.

TEST_P(SeededProperty, RandomForkTreeResolvesToLongestPath) {
    Rng rng(GetParam());
    ch::Blockchain chain(5);
    chain.set_check_pow(false);

    // Grow a random tree: each new block picks a random known parent.
    std::vector<ch::Block> known{chain.genesis()};
    std::size_t deepest = 1;
    for (int i = 0; i < 40; ++i) {
        const auto parent_index = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(known.size()) - 1));
        const ch::Block& parent = known[parent_index];
        ch::Block child;
        child.header.index = parent.header.index + 1;
        child.header.prev_hash = parent.header.hash();
        child.header.timestamp_ms = static_cast<std::uint64_t>(i) + 1;
        child.seal_transactions();
        const auto verdict = chain.submit(child);
        EXPECT_TRUE(verdict == ch::BlockVerdict::kAccepted ||
                    verdict == ch::BlockVerdict::kAcceptedSideBranch ||
                    verdict == ch::BlockVerdict::kAcceptedReorg)
            << ch::to_string(verdict);
        known.push_back(child);
        deepest = std::max(deepest,
                           static_cast<std::size_t>(child.header.index) + 1);
    }
    EXPECT_EQ(chain.height(), deepest);  // longest-chain rule
    EXPECT_EQ(chain.total_blocks_known(), known.size());
    EXPECT_TRUE(chain.validate_full_chain());
    // Parent links along the best chain are intact by construction of
    // validate_full_chain; additionally indices must be 0..height-1.
    for (std::size_t h = 0; h < chain.height(); ++h)
        EXPECT_EQ(chain.at(h).header.index, h);
}

// ---------------------------------------------------------------------------
// BigUint algebra.

TEST_P(SeededProperty, BigUintRingAxioms) {
    Rng rng(GetParam());
    for (int i = 0; i < 15; ++i) {
        const auto bits_a =
            static_cast<std::size_t>(rng.uniform_int(8, 192));
        const auto bits_b =
            static_cast<std::size_t>(rng.uniform_int(8, 192));
        const BigUint a = BigUint::random_bits(bits_a, rng);
        const BigUint b = BigUint::random_bits(bits_b, rng);
        const BigUint c = BigUint::random_bits(32, rng);

        EXPECT_EQ(a + b, b + a);                    // commutativity
        EXPECT_EQ((a + b) - b, a);                  // additive inverse
        EXPECT_EQ(a * b, b * a);                    // commutativity
        EXPECT_EQ(a * (b + c), a * b + a * c);      // distributivity
        const auto [q, r] = (a * b).divmod(b);
        EXPECT_EQ(q, a);                            // exact division
        EXPECT_TRUE(r.is_zero());
    }
}

TEST_P(SeededProperty, ModExpExponentAdditionLaw) {
    Rng rng(GetParam());
    const BigUint modulus = BigUint::random_bits(64, rng) + BigUint(1);
    for (int i = 0; i < 8; ++i) {
        const BigUint base = BigUint::random_bits(32, rng);
        const BigUint x = BigUint::random_bits(16, rng);
        const BigUint y = BigUint::random_bits(16, rng);
        // a^(x+y) == a^x * a^y (mod m)
        const BigUint lhs = BigUint::mod_pow(base, x + y, modulus);
        const BigUint rhs =
            (BigUint::mod_pow(base, x, modulus) *
             BigUint::mod_pow(base, y, modulus)) %
            modulus;
        EXPECT_EQ(lhs, rhs);
    }
}

// Right-to-left square-and-multiply with division-based reduction: the
// oracle for mod_pow, sharing no code with its Montgomery window scan.
BigUint reference_mod_pow(const BigUint& base, const BigUint& exponent,
                          const BigUint& modulus) {
    BigUint result = BigUint(1) % modulus;
    BigUint acc = base % modulus;
    for (std::size_t i = 0; i < exponent.bit_length(); ++i) {
        if (exponent.bit(i)) result = (result * acc) % modulus;
        acc = (acc * acc) % modulus;
    }
    return result;
}

// A modulus of `limbs` 32-bit limbs (top limb partly filled), at least 2.
BigUint random_modulus(std::int64_t limbs, bool odd, Rng& rng) {
    const auto bits = static_cast<std::size_t>(
        32 * (limbs - 1) + rng.uniform_int(2, 32));
    BigUint modulus = BigUint::random_bits(bits, rng);
    if (modulus.is_odd() != odd) modulus = modulus - BigUint(1);
    return modulus;
}

// Exponents of 0, 1, 17 bits (65537 and a random one) and full width.
std::vector<BigUint> exponents_for(const BigUint& modulus, Rng& rng) {
    return {BigUint{}, BigUint(1), BigUint(65537),
            BigUint::random_bits(17, rng),
            BigUint::random_bits(modulus.bit_length(), rng)};
}

TEST_P(SeededProperty, MultiLimbModPowMatchesDivisionOracle) {
    Rng rng(GetParam());
    for (int i = 0; i < 6; ++i) {
        // Always cover both ends of the 1..64-limb range.
        const std::int64_t limbs =
            i == 0 ? 64 : (i == 1 ? 1 : rng.uniform_int(1, 64));
        const BigUint modulus = random_modulus(limbs, /*odd=*/true, rng);
        const BigUint base =
            modulus + BigUint::random_bits(
                          static_cast<std::size_t>(rng.uniform_int(
                              1, static_cast<std::int64_t>(
                                     modulus.bit_length()) + 40)),
                          rng);
        for (const BigUint& exponent : exponents_for(modulus, rng))
            EXPECT_EQ(BigUint::mod_pow(base, exponent, modulus),
                      reference_mod_pow(base, exponent, modulus))
                << limbs << " limbs, exponent " << exponent.to_hex();
    }
}

TEST_P(SeededProperty, EvenModulusModPowMatchesDivisionOracle) {
    Rng rng(GetParam());
    for (int i = 0; i < 4; ++i) {
        const BigUint modulus =
            random_modulus(rng.uniform_int(1, 16), /*odd=*/false, rng);
        const BigUint base =
            modulus + BigUint::random_bits(
                          static_cast<std::size_t>(rng.uniform_int(1, 80)), rng);
        for (const BigUint& exponent : exponents_for(modulus, rng))
            EXPECT_EQ(BigUint::mod_pow(base, exponent, modulus),
                      reference_mod_pow(base, exponent, modulus))
                << "modulus " << modulus.to_hex();
    }
}

TEST(BigUintPrimality, AgreesOnKnownPrimesAndCarmichaelNumbers) {
    Rng rng(2024);
    const auto mersenne = [](std::size_t p) {
        return (BigUint(1) << p) - BigUint(1);
    };
    // Chernick's (6k+1)(12k+1)(18k+1) is a Carmichael number whenever all
    // three factors are prime: it fools every Fermat base coprime to it,
    // but not Miller-Rabin.  The k values below make all three prime.
    const auto chernick = [](const BigUint& k) {
        return (BigUint(6) * k + BigUint(1)) *
               (BigUint(12) * k + BigUint(1)) *
               (BigUint(18) * k + BigUint(1));
    };

    for (const BigUint& p :
         {BigUint(104729), mersenne(61), mersenne(89), mersenne(107),
          mersenne(127), mersenne(521)})
        EXPECT_TRUE(BigUint::is_probable_prime(p, 20, rng)) << p.to_hex();

    for (const BigUint& c :
         {BigUint(561), BigUint(1105), BigUint(1729), BigUint(8911),
          BigUint(321197185), chernick(BigUint(1048665)),
          chernick(BigUint(1099511628756ULL)),
          chernick((BigUint(1) << 100) + BigUint(8580)),
          mersenne(61) * mersenne(89), mersenne(127) * mersenne(127)})
        EXPECT_FALSE(BigUint::is_probable_prime(c, 20, rng)) << c.to_hex();
}

// ---------------------------------------------------------------------------
// GradientSet (Procedure III) semantics.

fl::GradientUpdate random_update(Rng& rng, std::uint32_t max_client = 20) {
    fl::GradientUpdate u;
    u.client =
        static_cast<fl::NodeId>(rng.uniform_int(0, max_client));
    u.weights = {static_cast<float>(rng.normal()),
                 static_cast<float>(rng.normal())};
    u.num_samples = static_cast<std::size_t>(rng.uniform_int(1, 100));
    return u;
}

TEST_P(SeededProperty, GradientSetMergeIsCommutativeAndIdempotent) {
    Rng rng(GetParam());
    fl::GradientSet a;
    fl::GradientSet b;
    for (int i = 0; i < 15; ++i) (void)a.add(random_update(rng));
    for (int i = 0; i < 15; ++i) (void)b.add(random_update(rng));

    fl::GradientSet ab = a;
    (void)ab.merge(b);
    fl::GradientSet ba = b;
    (void)ba.merge(a);
    ab.canonicalize();
    ba.canonicalize();
    // Same client set either way (payloads may differ for shared clients:
    // first-writer-wins, which is exactly the paper's "append if absent").
    ASSERT_EQ(ab.size(), ba.size());
    for (std::size_t i = 0; i < ab.size(); ++i)
        EXPECT_EQ(ab.updates()[i].client, ba.updates()[i].client);

    // Idempotence: merging again adds nothing.
    EXPECT_EQ(ab.merge(b), 0U);
    EXPECT_EQ(ab.merge(a), 0U);
}

// ---------------------------------------------------------------------------
// Aggregation rules.

TEST_P(SeededProperty, AggregationPermutationInvariance) {
    Rng rng(GetParam());
    std::vector<fl::GradientUpdate> updates;
    std::vector<double> theta;
    for (std::uint32_t i = 0; i < 8; ++i) {
        auto u = random_update(rng);
        u.client = i;
        updates.push_back(std::move(u));
        theta.push_back(rng.uniform(0.1, 1.0));
    }
    const auto mean1 = fl::simple_average(updates);
    const auto fair1 = fl::fair_aggregate(updates, theta);

    // Shuffle both consistently.
    std::vector<std::size_t> order(updates.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(std::span<std::size_t>(order));
    std::vector<fl::GradientUpdate> shuffled;
    std::vector<double> shuffled_theta;
    for (const auto i : order) {
        shuffled.push_back(updates[i]);
        shuffled_theta.push_back(theta[i]);
    }
    const auto mean2 = fl::simple_average(shuffled);
    const auto fair2 = fl::fair_aggregate(shuffled, shuffled_theta);
    for (std::size_t d = 0; d < mean1.size(); ++d) {
        EXPECT_NEAR(mean1[d], mean2[d], 1e-5);
        EXPECT_NEAR(fair1[d], fair2[d], 1e-5);
    }
}

TEST_P(SeededProperty, AggregationConvexHullProperty) {
    // Any normalized-weight aggregate lies inside the coordinate-wise
    // min/max envelope of the inputs.
    Rng rng(GetParam());
    std::vector<fl::GradientUpdate> updates;
    std::vector<double> weights;
    for (std::uint32_t i = 0; i < 6; ++i) {
        auto u = random_update(rng);
        u.client = i;
        updates.push_back(std::move(u));
        weights.push_back(rng.uniform(0.01, 2.0));
    }
    const auto out = fl::weighted_aggregate(updates, weights);
    for (std::size_t d = 0; d < out.size(); ++d) {
        float lo = updates[0].weights[d];
        float hi = lo;
        for (const auto& u : updates) {
            lo = std::min(lo, u.weights[d]);
            hi = std::max(hi, u.weights[d]);
        }
        EXPECT_GE(out[d], lo - 1e-4F);
        EXPECT_LE(out[d], hi + 1e-4F);
    }
}

// ---------------------------------------------------------------------------
// DBSCAN structural invariants.

TEST_P(SeededProperty, DbscanClustersContainACorePoint) {
    Rng rng(GetParam());
    std::vector<std::vector<float>> points;
    const auto n = static_cast<std::size_t>(rng.uniform_int(5, 40));
    for (std::size_t i = 0; i < n; ++i) {
        points.push_back({static_cast<float>(rng.normal()),
                          static_cast<float>(rng.normal())});
    }
    const cl::DbscanParams params{.eps = 0.8,
                                  .min_pts = 3,
                                  .metric = cl::Metric::kEuclidean};
    const cl::Dbscan dbscan(params);
    const auto result = dbscan.cluster(points);

    const cl::DistanceMatrix dist(params.metric, points);
    auto neighbour_count = [&](std::size_t i) {
        std::size_t count = 0;
        for (std::size_t j = 0; j < n; ++j)
            if (dist.at(i, j) <= params.eps) ++count;
        return count;
    };

    for (int cluster_id = 0; cluster_id < result.num_clusters; ++cluster_id) {
        const auto members = result.members_of(cluster_id);
        ASSERT_FALSE(members.empty());
        bool has_core = false;
        for (const auto m : members)
            if (neighbour_count(m) >= params.min_pts) has_core = true;
        EXPECT_TRUE(has_core) << "cluster " << cluster_id;
        // Every member is within eps of some member (connectivity witness).
        for (const auto m : members) {
            bool near_member = members.size() == 1;
            for (const auto other : members) {
                if (other != m && dist.at(m, other) <= params.eps)
                    near_member = true;
            }
            EXPECT_TRUE(near_member);
        }
    }

    // Noise points are never cores.
    for (std::size_t i = 0; i < n; ++i) {
        if (result.labels[i] == cl::ClusterResult::kNoise)
            EXPECT_LT(neighbour_count(i), params.min_pts);
    }
}

// ---------------------------------------------------------------------------
// ConvergenceDetector against a straightforward reference implementation.

TEST_P(SeededProperty, ConvergenceMatchesReference) {
    Rng rng(GetParam());
    std::vector<double> series;
    for (int i = 0; i < 60; ++i) {
        // Mixture of jumps and plateaus.
        series.push_back(rng.bernoulli(0.4) ? rng.uniform()
                                            : 0.9 + 0.001 * rng.normal());
    }

    fairbfl::support::ConvergenceDetector detector(0.005, 5);
    std::size_t detected = fairbfl::support::ConvergenceDetector::npos;
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (detector.add(series[i]) &&
            detected == fairbfl::support::ConvergenceDetector::npos)
            detected = i;
    }

    // Reference: first index with 5 consecutive |delta| <= 0.005.
    std::size_t reference = fairbfl::support::ConvergenceDetector::npos;
    std::size_t streak = 0;
    for (std::size_t i = 1; i < series.size(); ++i) {
        streak = std::abs(series[i] - series[i - 1]) <= 0.005 ? streak + 1 : 0;
        if (streak >= 5) {
            reference = i;
            break;
        }
    }
    EXPECT_EQ(detected, reference);
}

// ---------------------------------------------------------------------------
// Async round engine: for every random (quorum, deadline, arrival
// schedule) draw, collection triggers with at least quorum_needed
// on-time updates unless the deadline fired or the schedule drained, it
// never waits past a configured deadline, and every delivery is
// accounted for exactly once.

TEST_P(SeededProperty, RoundEngineQuorumDeadlineInvariants) {
    Rng rng(GetParam());
    for (int iter = 0; iter < 25; ++iter) {
        const auto n = static_cast<std::size_t>(rng.uniform_int(0, 20));
        core::RoundConfig config;
        config.quorum_fraction = 0.05 * rng.uniform_int(1, 24);  // 0.05..1.2
        config.deadline_ns =
            rng.bernoulli(0.3)
                ? 0
                : static_cast<core::VirtualTime>(
                      rng.uniform_int(1, 1'000'000));

        std::vector<core::PendingDelivery> deliveries;
        std::vector<core::VirtualTime> arrival_of(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            arrival_of[i] = static_cast<core::VirtualTime>(
                rng.uniform_int(0, 1'200'000));
            deliveries.push_back({i, arrival_of[i], false});
            if (rng.bernoulli(0.2))  // occasional replayed upload
                deliveries.push_back(
                    {i,
                     arrival_of[i] + static_cast<core::VirtualTime>(
                                         rng.uniform_int(0, 500'000)),
                     true});
        }
        const std::size_t total = deliveries.size();

        core::RoundEngine engine(config);
        const auto out = engine.collect(std::move(deliveries));

        EXPECT_EQ(out.quorum_needed, config.quorum_count(n));
        // Conservation: every delivery lands in exactly one bucket.
        EXPECT_EQ(out.on_time.size() + out.late.size() +
                      out.duplicates_dropped,
                  total);
        std::set<std::size_t> ids(out.on_time.begin(), out.on_time.end());
        ids.insert(out.late.begin(), out.late.end());
        EXPECT_EQ(ids.size(), out.on_time.size() + out.late.size());

        // Never waits past a configured deadline.
        if (config.deadline_ns > 0)
            EXPECT_LE(out.trigger_ns, config.deadline_ns);
        // Never aggregates fewer than quorum before the deadline: the
        // only ways to trigger short of quorum are the deadline firing
        // or the whole schedule draining.
        if (out.quorum_met)
            EXPECT_GE(out.on_time.size(), out.quorum_needed);
        else
            EXPECT_TRUE(out.deadline_fired || out.on_time.size() == n);

        // On-time/late split is exactly the trigger-time cut.
        EXPECT_LE(out.first_arrival_ns, out.trigger_ns);
        for (const auto id : out.on_time)
            EXPECT_LE(arrival_of[id], out.trigger_ns);
        for (const auto id : out.late)
            EXPECT_GE(arrival_of[id], out.trigger_ns);
        EXPECT_GE(engine.loop().now(), out.trigger_ns);
    }
}

// The virtual clock never runs backwards, even when callbacks schedule
// events at already-elapsed times (they clamp to "now").

TEST_P(SeededProperty, EventLoopVirtualTimeIsMonotone) {
    Rng rng(GetParam());
    core::EventLoop loop;
    std::vector<core::VirtualTime> observed;
    int spawned = 0;
    std::function<void(core::EventLoop&)> visit =
        [&](core::EventLoop& inner) {
            observed.push_back(inner.now());
            if (spawned < 200 && rng.bernoulli(0.6)) {
                ++spawned;
                // Half of these land in the loop's past on purpose.
                inner.schedule_at(static_cast<core::VirtualTime>(
                                      rng.uniform_int(0, 1'000'000)),
                                  visit);
            }
        };
    for (int i = 0; i < 10; ++i)
        loop.schedule_at(
            static_cast<core::VirtualTime>(rng.uniform_int(0, 1'000'000)),
            visit);
    loop.run_until_idle();

    ASSERT_GE(observed.size(), 10U);
    for (std::size_t i = 1; i < observed.size(); ++i)
        EXPECT_GE(observed[i], observed[i - 1]) << "clock ran backwards";
    EXPECT_EQ(loop.pending(), 0U);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
