#include "chain/transaction.hpp"

#include <cmath>

namespace fairbfl::chain {

Bytes Transaction::signing_bytes() const {
    ByteWriter writer;
    writer.u8(static_cast<std::uint8_t>(kind));
    writer.u32(origin);
    writer.u64(round);
    writer.blob(payload);
    return writer.take();
}

Bytes Transaction::encode() const {
    ByteWriter writer;
    writer.u8(static_cast<std::uint8_t>(kind));
    writer.u32(origin);
    writer.u64(round);
    writer.blob(payload);
    writer.blob(signature);
    return writer.take();
}

Transaction Transaction::decode(ByteReader& reader) {
    Transaction tx;
    tx.kind = static_cast<TxKind>(reader.u8());
    tx.origin = reader.u32();
    tx.round = reader.u64();
    tx.payload = reader.blob();
    tx.signature = reader.blob();
    return tx;
}

crypto::Digest Transaction::id() const { return crypto::Sha256::hash(encode()); }

std::size_t Transaction::size_bytes() const {
    // kind + origin + round + two u32 length prefixes + bodies.
    return 1 + 4 + 8 + 4 + payload.size() + 4 + signature.size();
}

Transaction make_reward_tx(NodeId miner, std::uint64_t round, NodeId client,
                           double amount) {
    Transaction tx;
    tx.kind = TxKind::kReward;
    tx.origin = miner;
    tx.round = round;
    ByteWriter body;
    body.u32(client);
    body.u64(static_cast<std::uint64_t>(std::llround(amount * 1000.0)));
    tx.payload = body.take();
    return tx;
}

RewardInfo parse_reward_tx(const Transaction& tx) {
    if (tx.kind != TxKind::kReward)
        throw std::invalid_argument("parse_reward_tx: not a reward tx");
    ByteReader reader(tx.payload);
    RewardInfo info;
    info.client = reader.u32();
    info.amount = static_cast<double>(reader.u64()) / 1000.0;
    return info;
}

Transaction make_gradient_tx(TxKind kind, NodeId origin, std::uint64_t round,
                             std::span<const float> gradient) {
    if (kind != TxKind::kLocalGradient && kind != TxKind::kGlobalUpdate)
        throw std::invalid_argument("make_gradient_tx: wrong kind");
    Transaction tx;
    tx.kind = kind;
    tx.origin = origin;
    tx.round = round;
    ByteWriter body;
    body.f32_vector(gradient);
    tx.payload = body.take();
    return tx;
}

std::vector<float> parse_gradient_tx(const Transaction& tx) {
    if (tx.kind != TxKind::kLocalGradient && tx.kind != TxKind::kGlobalUpdate)
        throw std::invalid_argument("parse_gradient_tx: not a gradient tx");
    ByteReader reader(tx.payload);
    return reader.f32_vector();
}

// With crypto disabled the key store signs empty and accepts everything,
// so neither needs the signing-bytes copy of the payload.

void sign_transaction(Transaction& tx, const crypto::KeyStore& keys) {
    if (!keys.crypto_enabled()) {
        tx.signature.clear();
        return;
    }
    tx.signature = keys.sign(tx.origin, tx.signing_bytes());
}

bool verify_transaction(const Transaction& tx, const crypto::KeyStore& keys) {
    if (!keys.crypto_enabled()) return true;
    return keys.verify(tx.origin, tx.signing_bytes(), tx.signature);
}

}  // namespace fairbfl::chain
