// Chain persistence: export/parse/import round-trips, tamper rejection,
// file I/O, signature re-validation on import.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "chain/storage.hpp"

namespace {

namespace ch = fairbfl::chain;
using fairbfl::crypto::KeyStore;

ch::Blockchain build_chain(std::size_t blocks, const KeyStore* keys = nullptr) {
    ch::Blockchain chain(77, keys);
    chain.set_check_pow(false);
    for (std::size_t i = 0; i < blocks; ++i) {
        ch::Block block;
        block.header.index = chain.tip().header.index + 1;
        block.header.prev_hash = chain.tip().header.hash();
        block.header.timestamp_ms = i;
        ch::Transaction tx = ch::make_gradient_tx(
            ch::TxKind::kGlobalUpdate, 0, i,
            std::vector<float>{static_cast<float>(i), 2.0F});
        if (keys != nullptr) ch::sign_transaction(tx, *keys);
        block.transactions.push_back(std::move(tx));
        block.seal_transactions();
        EXPECT_EQ(chain.submit(block), ch::BlockVerdict::kAccepted);
    }
    return chain;
}

TEST(Storage, ExportParseRoundTrip) {
    const auto chain = build_chain(5);
    const auto bytes = ch::export_chain(chain);
    const auto blocks = ch::parse_chain(bytes);
    ASSERT_EQ(blocks.size(), 6U);  // genesis + 5
    for (std::size_t h = 0; h < blocks.size(); ++h)
        EXPECT_EQ(blocks[h], chain.at(h));
}

TEST(Storage, ImportRebuildsIdenticalChain) {
    const auto chain = build_chain(5);
    const auto imported = ch::import_chain(ch::export_chain(chain), 77);
    ASSERT_TRUE(imported.has_value());
    EXPECT_EQ(imported->height(), chain.height());
    EXPECT_EQ(imported->tip().header.hash(), chain.tip().header.hash());
    EXPECT_TRUE(imported->validate_full_chain());
}

TEST(Storage, ImportRejectsWrongChainId) {
    const auto chain = build_chain(2);
    EXPECT_FALSE(ch::import_chain(ch::export_chain(chain), 78).has_value());
}

TEST(Storage, ImportRejectsTamperedBlock) {
    const auto chain = build_chain(3);
    auto bytes = ch::export_chain(chain);
    // Flip a byte well inside a block body (immutability check).
    bytes[bytes.size() / 2] ^= 0x01;
    EXPECT_FALSE(ch::import_chain(bytes, 77).has_value());
}

TEST(Storage, ParseRejectsGarbage) {
    const std::vector<std::uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_THROW((void)ch::parse_chain(junk), std::runtime_error);
    // Trailing bytes after a valid chain are also rejected.
    auto bytes = ch::export_chain(build_chain(1));
    bytes.push_back(0);
    EXPECT_THROW((void)ch::parse_chain(bytes), std::runtime_error);
}

TEST(Storage, HostileBlockCountIsTruncationNotAllocation) {
    // Magic and version, then a block count of 0xFFFFFFFF and no blocks:
    // the count must not size an allocation before the bytes back it.
    const auto exported = ch::export_chain(build_chain(2));
    std::vector<std::uint8_t> bytes(exported.begin(), exported.begin() + 8);
    bytes.insert(bytes.end(), {0xFF, 0xFF, 0xFF, 0xFF});
    EXPECT_THROW((void)ch::parse_chain(bytes), std::out_of_range);
    EXPECT_FALSE(ch::import_chain(bytes, 77).has_value());
    // A real chain with its count inflated runs out after the last block.
    auto inflated = exported;
    std::fill(inflated.begin() + 8, inflated.begin() + 12, 0xFF);
    EXPECT_THROW((void)ch::parse_chain(inflated), std::out_of_range);
}

TEST(Storage, UnknownTransactionKindRejected) {
    const ch::Blockchain chain = build_chain(1);
    auto bytes = ch::export_chain(chain);
    // Block 1's only transaction starts after the file header, the
    // genesis block, block 1's header and its transaction count.
    const std::size_t kind_at = 12 + chain.at(0).encode().size() +
                                chain.at(1).header.encode().size() + 4;
    ASSERT_EQ(bytes.at(kind_at),
              static_cast<std::uint8_t>(ch::TxKind::kGlobalUpdate));
    bytes[kind_at] = 0xEE;
    EXPECT_THROW((void)ch::parse_chain(bytes), std::invalid_argument);
    EXPECT_FALSE(ch::import_chain(bytes, 77).has_value());
}

TEST(Storage, SignatureRevalidationOnImport) {
    KeyStore keys(5, 384);
    keys.register_node(0);
    const auto chain = build_chain(2, &keys);
    const auto bytes = ch::export_chain(chain);

    // With the right keystore: accepted.
    EXPECT_TRUE(ch::import_chain(bytes, 77, &keys).has_value());
    // With a different keystore: every signature fails.
    KeyStore other(6, 384);
    other.register_node(0);
    EXPECT_FALSE(ch::import_chain(bytes, 77, &other).has_value());
}

TEST(Storage, FileRoundTrip) {
    const std::string path = "/tmp/fairbfl_test_chain.bin";
    const auto chain = build_chain(4);
    ASSERT_TRUE(ch::save_chain(chain, path));
    const auto loaded = ch::load_chain(path, 77);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->height(), 5U);
    EXPECT_EQ(loaded->tip().header.hash(), chain.tip().header.hash());
    std::remove(path.c_str());
}

TEST(Storage, LoadMissingFileFails) {
    EXPECT_FALSE(ch::load_chain("/nonexistent/chain.bin", 77).has_value());
}

}  // namespace
