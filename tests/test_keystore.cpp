// KeyStore: registration (one id and fanned out across a pool), per-node
// signing, disabled-crypto mode.

#include <gtest/gtest.h>

#include "crypto/keystore.hpp"
#include "crypto/sha256.hpp"
#include "support/parallel.hpp"

namespace {

using fairbfl::crypto::KeyStore;
using fairbfl::crypto::NodeId;
using fairbfl::support::ThreadPool;

std::vector<std::uint8_t> bytes_of(std::string_view s) {
    return {s.begin(), s.end()};
}

TEST(KeyStore, RegisterAndSign) {
    KeyStore store(42, 384);
    store.register_node(1);
    store.register_node(2);
    EXPECT_TRUE(store.has_node(1));
    EXPECT_FALSE(store.has_node(3));
    EXPECT_EQ(store.size(), 2U);

    const auto payload = bytes_of("w_{r+1} from client 1");
    const auto sig = store.sign(1, payload);
    EXPECT_TRUE(store.verify(1, payload, sig));
    // Signature from node 1 must not verify as node 2.
    EXPECT_FALSE(store.verify(2, payload, sig));
}

TEST(KeyStore, UnknownNodeVerifyFailsSignThrows) {
    KeyStore store(42, 384);
    const auto payload = bytes_of("x");
    EXPECT_THROW((void)store.sign(9, payload), std::out_of_range);
    EXPECT_FALSE(store.verify(9, payload, {}));
}

TEST(KeyStore, ReRegisterIsIdempotent) {
    KeyStore store(42, 384);
    store.register_node(5);
    const auto payload = bytes_of("stable key");
    const auto sig = store.sign(5, payload);
    store.register_node(5);  // must not rotate the key
    EXPECT_TRUE(store.verify(5, payload, sig));
    EXPECT_EQ(store.size(), 1U);
}

TEST(KeyStore, DeterministicAcrossInstances) {
    KeyStore a(7, 384);
    KeyStore b(7, 384);
    a.register_node(3);
    b.register_node(3);
    const auto payload = bytes_of("same seed, same key");
    EXPECT_TRUE(b.verify(3, payload, a.sign(3, payload)));
}

TEST(KeyStore, DifferentSeedsDifferentKeys) {
    KeyStore a(7, 384);
    KeyStore b(8, 384);
    a.register_node(3);
    b.register_node(3);
    const auto payload = bytes_of("cross-seed");
    EXPECT_FALSE(b.verify(3, payload, a.sign(3, payload)));
}

TEST(KeyStore, DisabledCryptoShortCircuits) {
    KeyStore store(42, 0);
    EXPECT_FALSE(store.crypto_enabled());
    store.register_node(1);  // no-op
    EXPECT_EQ(store.size(), 0U);
    const auto payload = bytes_of("anything");
    EXPECT_TRUE(store.sign(1, payload).empty());
    EXPECT_TRUE(store.verify(1, payload, {}));
    EXPECT_TRUE(store.verify(999, payload, bytes_of("junk")));
}

bool same_pair(const KeyStore& a, const KeyStore& b, NodeId id) {
    const auto& x = a.private_key(id);
    const auto& y = b.private_key(id);
    return x.n == y.n && x.d == y.d && x.p == y.p && x.q == y.q &&
           x.dp == y.dp && x.dq == y.dq && x.qinv == y.qinv &&
           a.public_key(id).e == b.public_key(id).e;
}

TEST(KeyStore, RegisterNodesMatchesSequentialOnAnyPool) {
    // Unordered, with a duplicate, and one id registered beforehand.
    const std::vector<NodeId> ids{7, 2, 11, 0, 5, 2, 9, 3};
    KeyStore sequential(42, 384);
    for (const NodeId id : ids) sequential.register_node(id);
    for (const unsigned threads : {1U, 4U}) {
        ThreadPool pool(threads);
        KeyStore fanned(42, 384);
        fanned.register_node(9);
        const auto payload = bytes_of("kept across registrations");
        const auto sig = fanned.sign(9, payload);
        fanned.register_nodes(ids, pool);
        EXPECT_EQ(fanned.size(), sequential.size()) << threads << " threads";
        for (const NodeId id : ids)
            EXPECT_TRUE(same_pair(fanned, sequential, id))
                << "node " << id << ", " << threads << " threads";
        EXPECT_TRUE(fanned.verify(9, payload, sig));
    }
}

TEST(KeyStore, RegisterNodesKeepsPinnedKeys) {
    // SHA-256 of n || d for KeyStore(42, 1024) nodes 0-4, captured before
    // key generation fanned out (the same pins as tests/test_rsa.cpp).
    static constexpr const char* kKeyPins[] = {
        "703deeaf18325f66526d521de0d55070f97cc1852b2333ba67f32b773a3f0c0a",
        "82679999b2920b7ff53726952c107abdaf005f3bdcb945658f88af099e5719ce",
        "1c0a70a23432792b56d79440b5f7ee96a4031107023af11e11f8275b477b6772",
        "668c56252349a279cbadfbe4f62afdfc907b757f022d3ca8064cd5cc0f8c5da5",
        "040cbb2e500a123dd5d993be200d44b12ee821aae2475626998e8082c36f913d"};
    ThreadPool pool(4);
    KeyStore store(42, 1024);
    store.register_nodes(std::vector<NodeId>{4, 3, 2, 1, 0}, pool);
    ASSERT_EQ(store.size(), 5U);
    for (NodeId id = 0; id < 5; ++id) {
        const auto& key = store.private_key(id);
        fairbfl::crypto::Sha256 hasher;
        hasher.update(key.n.to_bytes_be(128));
        hasher.update(key.d.to_bytes_be(128));
        EXPECT_EQ(fairbfl::crypto::to_hex(hasher.finish()), kKeyPins[id])
            << "node " << id;
    }
}

}  // namespace
