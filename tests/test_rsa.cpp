// RSA keygen / sign / verify / encrypt, including tamper rejection, a
// parameterized key-size sweep, and bit pins of the CRT private path
// against textbook m^d mod n.

#include <gtest/gtest.h>

#include "crypto/keystore.hpp"
#include "crypto/rsa.hpp"

namespace {

namespace cr = fairbfl::crypto;
using fairbfl::support::Rng;

std::vector<std::uint8_t> bytes_of(std::string_view s) {
    return {s.begin(), s.end()};
}

TEST(Rsa, SignVerifyRoundTrip) {
    Rng rng(1);
    const auto keys = cr::generate_keypair(512, rng);
    const auto payload = bytes_of("gradient update for round 7");
    const auto signature = cr::sign_payload(keys.priv, payload);
    EXPECT_TRUE(cr::verify_payload(keys.pub, payload, signature));
}

TEST(Rsa, TamperedPayloadRejected) {
    Rng rng(2);
    const auto keys = cr::generate_keypair(512, rng);
    const auto payload = bytes_of("honest gradient");
    const auto signature = cr::sign_payload(keys.priv, payload);
    auto forged = payload;
    forged[0] ^= 1;
    EXPECT_FALSE(cr::verify_payload(keys.pub, forged, signature));
}

TEST(Rsa, TamperedSignatureRejected) {
    Rng rng(3);
    const auto keys = cr::generate_keypair(512, rng);
    const auto payload = bytes_of("honest gradient");
    auto signature = cr::sign_payload(keys.priv, payload);
    signature[signature.size() / 2] ^= 0x40;
    EXPECT_FALSE(cr::verify_payload(keys.pub, payload, signature));
}

TEST(Rsa, WrongKeyRejected) {
    Rng rng(4);
    const auto alice = cr::generate_keypair(512, rng);
    const auto mallory = cr::generate_keypair(512, rng);
    const auto payload = bytes_of("from alice");
    const auto signature = cr::sign_payload(alice.priv, payload);
    EXPECT_FALSE(cr::verify_payload(mallory.pub, payload, signature));
}

TEST(Rsa, WrongLengthSignatureRejected) {
    Rng rng(5);
    const auto keys = cr::generate_keypair(512, rng);
    const auto payload = bytes_of("x");
    auto signature = cr::sign_payload(keys.priv, payload);
    signature.pop_back();
    EXPECT_FALSE(cr::verify_payload(keys.pub, payload, signature));
    signature.push_back(0);
    signature.push_back(0);
    EXPECT_FALSE(cr::verify_payload(keys.pub, payload, signature));
}

TEST(Rsa, SignatureIsDeterministicPerKey) {
    Rng rng(6);
    const auto keys = cr::generate_keypair(512, rng);
    const auto payload = bytes_of("same message");
    EXPECT_EQ(cr::sign_payload(keys.priv, payload),
              cr::sign_payload(keys.priv, payload));
}

TEST(Rsa, EncryptDecryptRoundTrip) {
    Rng rng(7);
    const auto keys = cr::generate_keypair(512, rng);
    const auto message = bytes_of("symmetric session key: 0123456789abcdef");
    const auto ciphertext = cr::encrypt(keys.pub, message);
    EXPECT_EQ(ciphertext.size(), keys.pub.modulus_bytes());
    EXPECT_EQ(cr::decrypt(keys.priv, ciphertext), message);
}

TEST(Rsa, EncryptPreservesLeadingZeroBytes) {
    Rng rng(8);
    const auto keys = cr::generate_keypair(512, rng);
    const std::vector<std::uint8_t> message{0x00, 0x00, 0x01, 0x02};
    EXPECT_EQ(cr::decrypt(keys.priv, cr::encrypt(keys.pub, message)), message);
}

TEST(Rsa, EncryptRejectsOversizedMessage) {
    Rng rng(9);
    const auto keys = cr::generate_keypair(512, rng);
    const std::vector<std::uint8_t> big(keys.pub.modulus_bytes(), 0xAB);
    EXPECT_THROW((void)cr::encrypt(keys.pub, big), std::length_error);
}

TEST(Rsa, KeygenRejectsBadSizes) {
    Rng rng(10);
    EXPECT_THROW((void)cr::generate_keypair(64, rng), std::invalid_argument);
    EXPECT_THROW((void)cr::generate_keypair(513, rng), std::invalid_argument);
}

TEST(Rsa, KeygenIsDeterministicInSeed) {
    Rng a(42);
    Rng b(42);
    const auto ka = cr::generate_keypair(256, a);
    const auto kb = cr::generate_keypair(256, b);
    EXPECT_EQ(ka.pub.n, kb.pub.n);
    EXPECT_EQ(ka.priv.d, kb.priv.d);
}

// Sweep key sizes: modulus width exact, sign/verify works end to end.
class RsaKeySizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaKeySizeTest, RoundTripAtSize) {
    const std::size_t bits = GetParam();
    Rng rng(bits);
    const auto keys = cr::generate_keypair(bits, rng);
    EXPECT_EQ(keys.pub.n.bit_length(), bits);
    const auto payload = bytes_of("sized payload");
    const auto signature = cr::sign_payload(keys.priv, payload);
    EXPECT_EQ(signature.size(), (bits + 7) / 8);
    EXPECT_TRUE(cr::verify_payload(keys.pub, payload, signature));
}

INSTANTIATE_TEST_SUITE_P(KeySizes, RsaKeySizeTest,
                         ::testing::Values(384, 512, 768, 1024));

TEST(Rsa, DecryptRejectsCiphertextAtOrAboveModulus) {
    Rng rng(11);
    const auto keys = cr::generate_keypair(512, rng);
    const std::size_t width = keys.priv.modulus_bytes();
    EXPECT_THROW((void)cr::decrypt(keys.priv, keys.pub.n.to_bytes_be(width)),
                 std::length_error);
    EXPECT_THROW((void)cr::decrypt(keys.priv,
                                   std::vector<std::uint8_t>(width, 0xFF)),
                 std::length_error);

    // c + n used to decrypt exactly like c; find a ciphertext for which
    // c + n still fits the modulus width.
    const auto message = bytes_of("session key");
    bool aliased = false;
    for (int i = 0; i < 64 && !aliased; ++i) {
        auto variant = message;
        variant.push_back(static_cast<std::uint8_t>(i));
        const auto ct = cr::encrypt(keys.pub, variant);
        const auto c_plus_n = cr::BigUint::from_bytes_be(ct) + keys.pub.n;
        if (c_plus_n.bit_length() > 8 * width) continue;
        aliased = true;
        EXPECT_EQ(cr::decrypt(keys.priv, ct), variant);
        EXPECT_THROW((void)cr::decrypt(keys.priv, c_plus_n.to_bytes_be(width)),
                     std::length_error);
    }
    EXPECT_TRUE(aliased);
}

// The EMSA encoding rsa.cpp signs, written out again for the oracle.
cr::BigUint emsa(const cr::Digest& digest, std::size_t width) {
    std::vector<std::uint8_t> em(width, 0xFF);
    em[0] = 0x00;
    em[1] = 0x01;
    em[width - digest.size() - 1] = 0x00;
    std::copy(digest.begin(), digest.end(), em.end() - 32);
    return cr::BigUint::from_bytes_be(em);
}

// The CRT private path must reproduce textbook m^d mod n byte for byte.
class RsaCrtPinTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaCrtPinTest, CrtFieldsAreConsistent) {
    const std::size_t bits = GetParam();
    Rng rng(1000 + bits);
    const auto keys = cr::generate_keypair(bits, rng);
    const auto& k = keys.priv;
    const cr::BigUint one(1);
    EXPECT_EQ(k.p * k.q, k.n);
    EXPECT_EQ(k.n, keys.pub.n);
    EXPECT_EQ(k.dp, k.d % (k.p - one));
    EXPECT_EQ(k.dq, k.d % (k.q - one));
    EXPECT_EQ((k.q * k.qinv) % k.p, one);
    EXPECT_LT(k.qinv, k.p);
}

TEST_P(RsaCrtPinTest, SignAndDecryptMatchTextbookExponentiation) {
    const std::size_t bits = GetParam();
    Rng rng(1000 + bits);
    const auto keys = cr::generate_keypair(bits, rng);
    const std::size_t width = keys.priv.modulus_bytes();
    Rng inputs(bits);
    for (int i = 0; i < 50; ++i) {
        cr::Digest digest;
        for (auto& b : digest) b = static_cast<std::uint8_t>(inputs() & 0xFF);
        const auto textbook_sig =
            cr::BigUint::mod_pow(emsa(digest, width), keys.priv.d, keys.priv.n)
                .to_bytes_be(width);
        EXPECT_EQ(cr::sign_digest(keys.priv, digest), textbook_sig)
            << "digest " << i;

        std::vector<std::uint8_t> message(
            static_cast<std::size_t>(inputs.uniform_int(
                0, static_cast<std::int64_t>(width) - 2)));
        for (auto& b : message) b = static_cast<std::uint8_t>(inputs() & 0xFF);
        const auto ct = cr::encrypt(keys.pub, message);
        const cr::BigUint textbook_m = cr::BigUint::mod_pow(
            cr::BigUint::from_bytes_be(ct), keys.priv.d, keys.priv.n);
        auto textbook_plain =
            textbook_m.to_bytes_be((textbook_m.bit_length() + 7) / 8);
        ASSERT_FALSE(textbook_plain.empty());
        textbook_plain.erase(textbook_plain.begin());  // 0x01 marker
        EXPECT_EQ(cr::decrypt(keys.priv, ct), textbook_plain)
            << "message " << i;
        EXPECT_EQ(textbook_plain, message);
    }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, RsaCrtPinTest,
                         ::testing::Values(384, 512, 768, 1024, 2048));

// KeyStore(42, 1024) keys and one signature per node, captured before the
// CRT fast path existed: SHA-256 of n || d (each 128 bytes big-endian), and
// SHA-256 of the signature over SHA-256("fairbfl-crt-pin").  Equal digests
// prove keygen draws the same randomness and signing returns the same bytes.
TEST(Rsa, KeyStoreKeysAndSignaturesArePinned) {
    static constexpr const char* kKeyPins[] = {
        "703deeaf18325f66526d521de0d55070f97cc1852b2333ba67f32b773a3f0c0a",
        "82679999b2920b7ff53726952c107abdaf005f3bdcb945658f88af099e5719ce",
        "1c0a70a23432792b56d79440b5f7ee96a4031107023af11e11f8275b477b6772",
        "668c56252349a279cbadfbe4f62afdfc907b757f022d3ca8064cd5cc0f8c5da5",
        "040cbb2e500a123dd5d993be200d44b12ee821aae2475626998e8082c36f913d"};
    static constexpr const char* kSignaturePins[] = {
        "4514569016de8fdc43e546495a21175a6d2c4abd273a95e21c72fdc6a690fb7b",
        "b69ec35557d0b23ee28012ecd583aa764d80f351540f27ebba2c2e03f79bb5dd",
        "4fb5880a5ba99cde9cb11245d128b62e9a896f4a1abe8710204bba765b385d29",
        "ce31d6e611ae678fbc5d2de375323f7c1c94797e8e3a79605d4ae173cd800658",
        "712bce302cfc56ae10254e61eea43775bf8c96c335c67850f338575fd1d66476"};
    cr::KeyStore store(42, 1024);
    const cr::Digest digest = cr::Sha256::hash("fairbfl-crt-pin");
    for (cr::NodeId id = 0; id < 5; ++id) {
        store.register_node(id);
        const auto& key = store.private_key(id);
        cr::Sha256 hasher;
        hasher.update(key.n.to_bytes_be(128));
        hasher.update(key.d.to_bytes_be(128));
        EXPECT_EQ(cr::to_hex(hasher.finish()), kKeyPins[id]) << "node " << id;
        EXPECT_EQ(cr::to_hex(cr::Sha256::hash(cr::sign_digest(key, digest))),
                  kSignaturePins[id])
            << "node " << id;
    }
}

}  // namespace
