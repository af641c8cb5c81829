// Blockchain: validation verdicts, side branches, longest-chain reorgs,
// signature enforcement, global-gradient lookup, and moves of a chain
// whose best chain points into its block map.

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "chain/chain.hpp"

namespace {

namespace ch = fairbfl::chain;
using fairbfl::crypto::KeyStore;

ch::Block child_of(const ch::Block& parent, std::uint64_t salt = 0) {
    ch::Block block;
    block.header.index = parent.header.index + 1;
    block.header.prev_hash = parent.header.hash();
    block.header.difficulty = 1;
    block.header.timestamp_ms = salt;  // differentiates siblings
    block.seal_transactions();
    return block;
}

TEST(Chain, StartsAtGenesis) {
    ch::Blockchain chain(7);
    EXPECT_EQ(chain.height(), 1U);
    EXPECT_EQ(chain.tip().header.index, 0U);
    EXPECT_TRUE(chain.validate_full_chain());
}

TEST(Chain, AppendsValidBlocks) {
    ch::Blockchain chain(7);
    ch::Block b1 = child_of(chain.tip());
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kAccepted);
    ch::Block b2 = child_of(chain.tip(), 1);
    EXPECT_EQ(chain.submit(b2), ch::BlockVerdict::kAccepted);
    EXPECT_EQ(chain.height(), 3U);
    EXPECT_TRUE(chain.validate_full_chain());
}

TEST(Chain, RejectsDuplicates) {
    ch::Blockchain chain(7);
    const ch::Block b1 = child_of(chain.tip());
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kAccepted);
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kDuplicate);
}

TEST(Chain, RejectsUnknownParent) {
    ch::Blockchain chain(7);
    ch::Block orphan = child_of(chain.tip());
    orphan.header.prev_hash[0] ^= 1;
    EXPECT_EQ(chain.submit(orphan), ch::BlockVerdict::kBadParent);
}

TEST(Chain, RejectsBadIndex) {
    ch::Blockchain chain(7);
    ch::Block b1 = child_of(chain.tip());
    b1.header.index = 5;
    b1.seal_transactions();
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kBadIndex);
}

TEST(Chain, RejectsBadMerkleRoot) {
    ch::Blockchain chain(7);
    ch::Block b1 = child_of(chain.tip());
    b1.transactions.push_back(ch::make_reward_tx(0, 0, 1, 1.0));
    // Deliberately NOT resealed.
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kBadMerkle);
}

TEST(Chain, EnforcesPowWhenEnabled) {
    ch::Blockchain chain(7);
    ch::Block b1 = child_of(chain.tip());
    b1.header.difficulty = ~0ULL;  // impossible target, nonce not mined
    b1.seal_transactions();
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kBadPow);
    chain.set_check_pow(false);
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kAccepted);
}

TEST(Chain, SideBranchThenReorg) {
    ch::Blockchain chain(7);
    const ch::Block genesis = chain.genesis();
    // Main: g -> a1 -> a2.
    const ch::Block a1 = child_of(genesis, 1);
    ASSERT_EQ(chain.submit(a1), ch::BlockVerdict::kAccepted);
    const ch::Block a2 = child_of(a1, 2);
    ASSERT_EQ(chain.submit(a2), ch::BlockVerdict::kAccepted);
    // Fork from genesis: g -> b1 (shorter: side branch).
    const ch::Block b1 = child_of(genesis, 3);
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kAcceptedSideBranch);
    EXPECT_EQ(chain.tip().header.hash(), a2.header.hash());
    EXPECT_EQ(chain.orphaned_blocks(), 1U);
    // Extend the fork past the main chain: b2, b3 -> reorg.
    const ch::Block b2 = child_of(b1, 4);
    EXPECT_EQ(chain.submit(b2), ch::BlockVerdict::kAcceptedSideBranch);
    const ch::Block b3 = child_of(b2, 5);
    EXPECT_EQ(chain.submit(b3), ch::BlockVerdict::kAcceptedReorg);
    EXPECT_EQ(chain.tip().header.hash(), b3.header.hash());
    EXPECT_EQ(chain.height(), 4U);  // g, b1, b2, b3
    EXPECT_EQ(chain.reorg_count(), 1U);
    EXPECT_EQ(chain.orphaned_blocks(), 2U);  // a1, a2 abandoned
    EXPECT_TRUE(chain.validate_full_chain());
}

TEST(Chain, TieKeepsIncumbent) {
    ch::Blockchain chain(7);
    const ch::Block a1 = child_of(chain.genesis(), 1);
    ASSERT_EQ(chain.submit(a1), ch::BlockVerdict::kAccepted);
    const ch::Block b1 = child_of(chain.genesis(), 2);  // same height
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kAcceptedSideBranch);
    EXPECT_EQ(chain.tip().header.hash(), a1.header.hash());
}

TEST(Chain, SignatureEnforcement) {
    KeyStore keys(3, 384);
    keys.register_node(1);
    ch::Blockchain chain(7, &keys);
    ch::Block b1 = child_of(chain.tip());
    ch::Transaction tx = ch::make_gradient_tx(ch::TxKind::kLocalGradient, 1,
                                              0, std::vector<float>{1.0F});
    // Unsigned transaction -> rejected.
    b1.transactions.push_back(tx);
    b1.seal_transactions();
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kBadSignature);
    // Signed -> accepted.
    ch::sign_transaction(b1.transactions[0], keys);
    b1.seal_transactions();
    EXPECT_EQ(chain.submit(b1), ch::BlockVerdict::kAccepted);
}

TEST(Chain, LatestGlobalGradientFindsNewest) {
    ch::Blockchain chain(7);
    EXPECT_FALSE(chain.latest_global_gradient().has_value());

    ch::Block b1 = child_of(chain.tip(), 1);
    b1.transactions.push_back(ch::make_gradient_tx(
        ch::TxKind::kGlobalUpdate, 0, 0, std::vector<float>{1.0F}));
    b1.seal_transactions();
    ASSERT_EQ(chain.submit(b1), ch::BlockVerdict::kAccepted);

    ch::Block b2 = child_of(chain.tip(), 2);  // no gradient in this one
    b2.seal_transactions();
    ASSERT_EQ(chain.submit(b2), ch::BlockVerdict::kAccepted);

    ch::Block b3 = child_of(chain.tip(), 3);
    b3.transactions.push_back(ch::make_gradient_tx(
        ch::TxKind::kGlobalUpdate, 0, 2, std::vector<float>{3.0F, 4.0F}));
    b3.seal_transactions();
    ASSERT_EQ(chain.submit(b3), ch::BlockVerdict::kAccepted);

    const auto gradient = chain.latest_global_gradient();
    ASSERT_TRUE(gradient.has_value());
    EXPECT_EQ(*gradient, (std::vector<float>{3.0F, 4.0F}));
}

/// The best chain holds `expected` block hashes, genesis first.
void expect_best_chain(const ch::Blockchain& chain,
                       const std::vector<fairbfl::crypto::Digest>& expected) {
    ASSERT_EQ(chain.height(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(chain.at(i).header.hash(), expected[i]) << "height " << i;
    EXPECT_EQ(chain.tip().header.hash(), expected.back());
    EXPECT_TRUE(chain.validate_full_chain());
}

TEST(Chain, MovedChainKeepsItsBestChainAfterAReorg) {
    // The best chain points into the block map, so a copy would dangle;
    // only moves, which keep the map's nodes, are allowed.
    static_assert(!std::is_copy_constructible_v<ch::Blockchain>);
    static_assert(!std::is_copy_assignable_v<ch::Blockchain>);
    static_assert(std::is_move_constructible_v<ch::Blockchain>);
    static_assert(std::is_move_assignable_v<ch::Blockchain>);

    ch::Blockchain chain(7);
    const ch::Block genesis = chain.genesis();
    // Main: g -> a1; fork: g -> b1 -> b2 overtakes it.
    const ch::Block a1 = child_of(genesis, 1);
    ASSERT_EQ(chain.submit(a1), ch::BlockVerdict::kAccepted);
    const ch::Block b1 = child_of(genesis, 2);
    ASSERT_EQ(chain.submit(b1), ch::BlockVerdict::kAcceptedSideBranch);
    const ch::Block b2 = child_of(b1, 3);
    ASSERT_EQ(chain.submit(b2), ch::BlockVerdict::kAcceptedReorg);
    std::vector<fairbfl::crypto::Digest> expected{
        genesis.header.hash(), b1.header.hash(), b2.header.hash()};
    expect_best_chain(chain, expected);

    ch::Blockchain moved(std::move(chain));
    expect_best_chain(moved, expected);
    EXPECT_EQ(moved.reorg_count(), 1U);
    EXPECT_EQ(moved.orphaned_blocks(), 1U);  // a1

    // The moved chain keeps growing on its stored tip, and reorgs back
    // onto the abandoned branch it carried over.
    const ch::Block b3 = child_of(moved.tip(), 4);
    ASSERT_EQ(moved.submit(b3), ch::BlockVerdict::kAccepted);
    expected.push_back(b3.header.hash());
    expect_best_chain(moved, expected);

    ch::Blockchain assigned(9);
    assigned = std::move(moved);
    expect_best_chain(assigned, expected);
    const ch::Block a2 = child_of(a1, 5);
    const ch::Block a3 = child_of(a2, 6);
    const ch::Block a4 = child_of(a3, 7);
    ASSERT_EQ(assigned.submit(a2), ch::BlockVerdict::kAcceptedSideBranch);
    ASSERT_EQ(assigned.submit(a3), ch::BlockVerdict::kAcceptedSideBranch);
    ASSERT_EQ(assigned.submit(a4), ch::BlockVerdict::kAcceptedReorg);
    expect_best_chain(assigned,
                      {genesis.header.hash(), a1.header.hash(),
                       a2.header.hash(), a3.header.hash(), a4.header.hash()});
    EXPECT_EQ(assigned.reorg_count(), 2U);
}

}  // namespace
