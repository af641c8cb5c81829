// Blocks (sealing, encoding) and the proof-of-work puzzle (Eq. 4).

#include <gtest/gtest.h>

#include <algorithm>

#include "chain/block.hpp"
#include "chain/pow.hpp"

namespace {

namespace ch = fairbfl::chain;
using fairbfl::support::Rng;

ch::Block make_test_block() {
    ch::Block block;
    block.header.index = 1;
    block.header.difficulty = 1;
    block.transactions.push_back(ch::make_gradient_tx(
        ch::TxKind::kGlobalUpdate, 0, 1, std::vector<float>{1.0F, 2.0F}));
    block.transactions.push_back(ch::make_reward_tx(0, 1, 5, 0.5));
    block.seal_transactions();
    return block;
}

TEST(Block, SealMakesMerkleConsistent) {
    ch::Block block = make_test_block();
    EXPECT_TRUE(block.merkle_consistent());
    block.transactions.push_back(ch::make_reward_tx(0, 1, 6, 0.5));
    EXPECT_FALSE(block.merkle_consistent());  // stale root
    block.seal_transactions();
    EXPECT_TRUE(block.merkle_consistent());
}

TEST(Block, EncodeDecodeRoundTrip) {
    const ch::Block block = make_test_block();
    const auto encoded = block.encode();
    ch::ByteReader reader(encoded);
    EXPECT_EQ(ch::Block::decode(reader), block);
    EXPECT_TRUE(reader.exhausted());
}

TEST(Block, HostileTxCountIsTruncationNotAllocation) {
    // A header, then a transaction count of 0xFFFFFFFF and no transactions:
    // the count must not size an allocation before the bytes back it.
    const ch::Block block = make_test_block();
    auto bytes = block.header.encode();
    bytes.insert(bytes.end(), {0xFF, 0xFF, 0xFF, 0xFF});
    ch::ByteReader reader(bytes);
    EXPECT_THROW((void)ch::Block::decode(reader), std::out_of_range);
    // A real block with its count inflated runs out after the last one.
    auto inflated = block.encode();
    const std::size_t count_at = block.header.encode().size();
    std::fill(inflated.begin() + static_cast<std::ptrdiff_t>(count_at),
              inflated.begin() + static_cast<std::ptrdiff_t>(count_at + 4),
              0xFF);
    ch::ByteReader inflated_reader(inflated);
    EXPECT_THROW((void)ch::Block::decode(inflated_reader), std::out_of_range);
}

TEST(Block, SizeBytesMatchesEncoding) {
    const ch::Block block = make_test_block();
    EXPECT_EQ(block.size_bytes(), block.encode().size());
}

TEST(Block, HeaderHashChangesWithNonce) {
    ch::BlockHeader header = make_test_block().header;
    const auto h1 = header.hash();
    header.nonce++;
    EXPECT_NE(header.hash(), h1);
}

TEST(Block, GenesisIsDeterministicPerChainId) {
    EXPECT_EQ(ch::make_genesis(1).header.hash(),
              ch::make_genesis(1).header.hash());
    EXPECT_NE(ch::make_genesis(1).header.hash(),
              ch::make_genesis(2).header.hash());
    EXPECT_TRUE(ch::make_genesis(0).merkle_consistent());
}

TEST(Pow, TargetShrinksWithDifficulty) {
    EXPECT_EQ(ch::target_for_difficulty(0), ch::kTarget1);
    EXPECT_EQ(ch::target_for_difficulty(1), ch::kTarget1);
    EXPECT_EQ(ch::target_for_difficulty(4), ch::kTarget1 / 4);
    EXPECT_LT(ch::target_for_difficulty(1000),
              ch::target_for_difficulty(10));
}

TEST(Pow, DifficultyOneAcceptsAlmostEverything) {
    // Target is 2^64-1; only an all-ones prefix misses, so any real hash
    // passes.
    ch::BlockHeader header = make_test_block().header;
    header.difficulty = 1;
    const auto result = ch::mine(header, /*max_attempts=*/4);
    ASSERT_TRUE(result.has_value());
    EXPECT_LE(result->attempts, 4U);
}

TEST(Pow, MineFindsNonceAtModerateDifficulty) {
    ch::BlockHeader header = make_test_block().header;
    header.difficulty = 1 << 10;  // ~1024 attempts expected
    const auto result = ch::mine(header, /*max_attempts=*/1 << 17);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(ch::meets_target(result->hash, header.difficulty));
    // Re-verification: plugging the nonce back reproduces the hash.
    header.nonce = result->nonce;
    EXPECT_EQ(header.hash(), result->hash);
}

TEST(Pow, MineExhaustsOnImpossibleBudget) {
    ch::BlockHeader header = make_test_block().header;
    header.difficulty = ~0ULL;  // target 1: essentially impossible
    EXPECT_FALSE(ch::mine(header, /*max_attempts=*/100).has_value());
}

TEST(Pow, SampleMiningSecondsMatchesExpectation) {
    // Mean of Exp(rate) with rate = hashrate / difficulty.
    Rng rng(5);
    const double hashrate = 1e6;
    const std::uint64_t difficulty = 2'000'000;  // mean 2 s
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += ch::sample_mining_seconds(hashrate, difficulty, rng);
    EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Pow, AttemptCountScalesWithDifficulty) {
    // Statistical: attempts at difficulty 2^12 should exceed those at 2^6
    // when averaged over several headers.
    double attempts_low = 0.0;
    double attempts_high = 0.0;
    for (std::uint64_t i = 0; i < 12; ++i) {
        ch::BlockHeader header = make_test_block().header;
        header.timestamp_ms = i;  // vary the header
        header.difficulty = 1 << 6;
        attempts_low +=
            static_cast<double>(ch::mine(header, 1 << 22)->attempts);
        header.difficulty = 1 << 12;
        attempts_high +=
            static_cast<double>(ch::mine(header, 1 << 22)->attempts);
    }
    EXPECT_GT(attempts_high, attempts_low);
}

}  // namespace
