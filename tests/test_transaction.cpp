// Transactions: encoding, ids, signing, reward/gradient payload helpers.

#include <gtest/gtest.h>

#include "chain/transaction.hpp"

namespace {

namespace ch = fairbfl::chain;
using fairbfl::crypto::KeyStore;

ch::Transaction sample_tx() {
    return ch::make_gradient_tx(ch::TxKind::kLocalGradient, /*origin=*/3,
                                /*round=*/9, std::vector<float>{1.0F, -2.0F});
}

TEST(Transaction, EncodeDecodeRoundTrip) {
    const ch::Transaction tx = sample_tx();
    const auto encoded = tx.encode();
    ch::ByteReader reader(encoded);
    const ch::Transaction decoded = ch::Transaction::decode(reader);
    EXPECT_EQ(decoded, tx);
    EXPECT_TRUE(reader.exhausted());
}

TEST(Transaction, DecodeRejectsUnknownKinds) {
    // The kind is the encoding's first byte: 0-3 name a TxKind and
    // round-trip, every other value is rejected before it can be hashed,
    // signed or sealed.
    const auto encoded = sample_tx().encode();
    for (int kind = 0; kind < 256; ++kind) {
        auto bytes = encoded;
        bytes[0] = static_cast<std::uint8_t>(kind);
        ch::ByteReader reader(bytes);
        if (kind <= static_cast<int>(ch::TxKind::kPayload)) {
            const ch::Transaction tx = ch::Transaction::decode(reader);
            EXPECT_EQ(static_cast<int>(tx.kind), kind);
            EXPECT_EQ(tx.encode(), bytes);
        } else {
            EXPECT_THROW((void)ch::Transaction::decode(reader),
                         std::invalid_argument)
                << "kind " << kind;
        }
    }
}

TEST(Transaction, SizeBytesMatchesEncoding) {
    const ch::Transaction tx = sample_tx();
    EXPECT_EQ(tx.size_bytes(), tx.encode().size());
}

TEST(Transaction, IdChangesWithContent) {
    ch::Transaction a = sample_tx();
    ch::Transaction b = a;
    b.round = 10;
    EXPECT_NE(a.id(), b.id());
    EXPECT_EQ(a.id(), sample_tx().id());
}

TEST(Transaction, GradientPayloadRoundTrip) {
    const std::vector<float> grad{0.5F, -0.25F, 3.0F};
    const auto tx = ch::make_gradient_tx(ch::TxKind::kGlobalUpdate, 1, 2, grad);
    EXPECT_EQ(ch::parse_gradient_tx(tx), grad);
}

TEST(Transaction, GradientHelpersRejectWrongKind) {
    EXPECT_THROW((void)ch::make_gradient_tx(ch::TxKind::kReward, 0, 0, {}),
                 std::invalid_argument);
    ch::Transaction reward = ch::make_reward_tx(0, 1, 2, 0.5);
    EXPECT_THROW((void)ch::parse_gradient_tx(reward), std::invalid_argument);
}

TEST(Transaction, RewardPayloadRoundTrip) {
    const auto tx = ch::make_reward_tx(/*miner=*/7, /*round=*/3,
                                       /*client=*/12, /*amount=*/0.125);
    const auto info = ch::parse_reward_tx(tx);
    EXPECT_EQ(info.client, 12U);
    EXPECT_DOUBLE_EQ(info.amount, 0.125);
    EXPECT_EQ(tx.origin, 7U);
}

TEST(Transaction, RewardAmountQuantizedToMillis) {
    const auto tx = ch::make_reward_tx(0, 0, 1, 0.0004);  // below 1 milli
    EXPECT_DOUBLE_EQ(ch::parse_reward_tx(tx).amount, 0.0);
    const auto tx2 = ch::make_reward_tx(0, 0, 1, 0.0006);
    EXPECT_DOUBLE_EQ(ch::parse_reward_tx(tx2).amount, 0.001);
}

TEST(Transaction, SignatureVerifiesAndTamperFails) {
    KeyStore keys(11, 384);
    keys.register_node(3);
    ch::Transaction tx = sample_tx();
    ch::sign_transaction(tx, keys);
    EXPECT_TRUE(ch::verify_transaction(tx, keys));

    ch::Transaction forged = tx;
    forged.payload[0] ^= 1;  // flip a payload bit
    EXPECT_FALSE(ch::verify_transaction(forged, keys));

    ch::Transaction impersonated = tx;
    keys.register_node(4);
    impersonated.origin = 4;  // claims another author
    EXPECT_FALSE(ch::verify_transaction(impersonated, keys));
}

TEST(Transaction, DisabledCryptoAlwaysVerifies) {
    KeyStore keys(11, 0);
    ch::Transaction tx = sample_tx();
    ch::sign_transaction(tx, keys);
    EXPECT_TRUE(tx.signature.empty());
    EXPECT_TRUE(ch::verify_transaction(tx, keys));
}

}  // namespace
