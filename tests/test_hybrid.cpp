// Hybrid encryption: round-trips, tamper rejection, wrong-key rejection,
// and gradient-sized payloads.

#include <gtest/gtest.h>

#include "crypto/hybrid.hpp"

namespace {

namespace cr = fairbfl::crypto;
using fairbfl::support::Rng;

struct HybridFixture : ::testing::Test {
    Rng keygen_rng{1};
    cr::RsaKeyPair keys = cr::generate_keypair(512, keygen_rng);
    Rng msg_rng{2};
};

TEST_F(HybridFixture, RoundTripShortMessage) {
    const std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
    const auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    EXPECT_EQ(cr::hybrid_decrypt(keys.priv, ct), msg);
}

TEST_F(HybridFixture, RoundTripGradientSizedMessage) {
    // A 650-float gradient: far beyond raw RSA capacity.
    std::vector<std::uint8_t> msg(650 * 4);
    for (std::size_t i = 0; i < msg.size(); ++i)
        msg[i] = static_cast<std::uint8_t>(i * 31);
    const auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    EXPECT_EQ(ct.body.size(), msg.size());
    EXPECT_EQ(cr::hybrid_decrypt(keys.priv, ct), msg);
}

TEST_F(HybridFixture, EmptyMessage) {
    const std::vector<std::uint8_t> msg;
    const auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    EXPECT_TRUE(cr::hybrid_decrypt(keys.priv, ct).empty());
}

TEST_F(HybridFixture, CiphertextHidesPlaintext) {
    const std::vector<std::uint8_t> msg(256, 0x00);  // all zeros
    const auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    // The body must not be all zeros (keystream applied).
    std::size_t zeros = 0;
    for (const auto b : ct.body)
        if (b == 0) ++zeros;
    EXPECT_LT(zeros, 32U);  // ~1/256 of 256 bytes expected
}

TEST_F(HybridFixture, FreshKeyPerMessage) {
    const std::vector<std::uint8_t> msg{9, 9, 9};
    const auto ct1 = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    const auto ct2 = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    EXPECT_NE(ct1.wrapped_key, ct2.wrapped_key);
    EXPECT_NE(ct1.body, ct2.body);  // different keystream
}

TEST_F(HybridFixture, TamperedBodyRejected) {
    const std::vector<std::uint8_t> msg{1, 2, 3, 4};
    auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    ct.body[0] ^= 0x80;
    EXPECT_THROW((void)cr::hybrid_decrypt(keys.priv, ct),
                 std::runtime_error);
}

TEST_F(HybridFixture, TamperedTagRejected) {
    const std::vector<std::uint8_t> msg{1, 2, 3, 4};
    auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    ct.tag[5] ^= 0x01;
    EXPECT_THROW((void)cr::hybrid_decrypt(keys.priv, ct),
                 std::runtime_error);
}

TEST_F(HybridFixture, WrongPrivateKeyRejected) {
    const std::vector<std::uint8_t> msg{1, 2, 3, 4};
    const auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    Rng other_rng(3);
    const auto other = cr::generate_keypair(512, other_rng);
    EXPECT_THROW((void)cr::hybrid_decrypt(other.priv, ct),
                 std::runtime_error);
}

TEST_F(HybridFixture, OutOfRangeWrappedKeyRejected) {
    // A wrapped key >= n is refused before unwrapping; it used to unwrap
    // like its residue mod n (here n itself, i.e. 0).
    const std::vector<std::uint8_t> msg{1, 2, 3, 4};
    auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    ct.wrapped_key = keys.pub.n.to_bytes_be(keys.pub.modulus_bytes());
    try {
        (void)cr::hybrid_decrypt(keys.priv, ct);
        FAIL() << "out-of-range wrapped key accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "hybrid_decrypt: key unwrap failed");
    }
}

TEST_F(HybridFixture, TotalBytesAccounting) {
    const std::vector<std::uint8_t> msg(100, 7);
    const auto ct = cr::hybrid_encrypt(keys.pub, msg, msg_rng);
    EXPECT_EQ(ct.total_bytes(),
              ct.wrapped_key.size() + ct.body.size() + ct.tag.size());
}

}  // namespace
