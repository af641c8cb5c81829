#include "crypto/keystore.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace fairbfl::crypto {

KeyStore::KeyStore(std::uint64_t root_seed, std::size_t key_bits)
    : root_seed_(root_seed), key_bits_(key_bits) {}

void KeyStore::register_nodes(std::span<const NodeId> ids,
                              support::ThreadPool& pool) {
    if (!crypto_enabled()) return;
    std::vector<NodeId> missing;
    for (const NodeId id : ids)
        if (!keys_.contains(id)) missing.push_back(id);
    std::sort(missing.begin(), missing.end());
    missing.erase(std::unique(missing.begin(), missing.end()), missing.end());

    std::vector<RsaKeyPair> pairs(missing.size());
    support::parallel_for(
        0, missing.size(),
        [&](std::size_t i) {
            // Stream 0x4B45 ("KE") namespaces key-generation randomness
            // away from the simulation streams.
            auto rng =
                support::Rng::fork(root_seed_, 0x4B450000ULL + missing[i]);
            pairs[i] = generate_keypair(key_bits_, rng);
        },
        pool);
    for (std::size_t i = 0; i < missing.size(); ++i)
        keys_.emplace(missing[i], std::move(pairs[i]));
}

void KeyStore::register_node(NodeId id) { register_nodes({&id, 1}); }

bool KeyStore::has_node(NodeId id) const noexcept {
    return keys_.contains(id);
}

const RsaPublicKey& KeyStore::public_key(NodeId id) const {
    return keys_.at(id).pub;
}

const RsaPrivateKey& KeyStore::private_key(NodeId id) const {
    return keys_.at(id).priv;
}

RsaSignature KeyStore::sign(NodeId id,
                            std::span<const std::uint8_t> payload) const {
    if (!crypto_enabled()) return {};
    const auto it = keys_.find(id);
    if (it == keys_.end())
        throw std::out_of_range("KeyStore::sign: unknown node id");
    return sign_payload(it->second.priv, payload);
}

bool KeyStore::verify(NodeId id, std::span<const std::uint8_t> payload,
                      std::span<const std::uint8_t> signature) const {
    if (!crypto_enabled()) return true;
    const auto it = keys_.find(id);
    if (it == keys_.end()) return false;
    return verify_payload(it->second.pub, payload, signature);
}

}  // namespace fairbfl::crypto
