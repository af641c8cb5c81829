#include "chain/block.hpp"

namespace fairbfl::chain {

Bytes BlockHeader::encode() const {
    ByteWriter writer;
    writer.u64(index);
    writer.raw(prev_hash);
    writer.raw(merkle_root);
    writer.u64(timestamp_ms);
    writer.u64(difficulty);
    writer.u64(nonce);
    return writer.take();
}

BlockHeader BlockHeader::decode(ByteReader& reader) {
    BlockHeader header;
    header.index = reader.u64();
    const Bytes prev = reader.raw(32);
    std::copy(prev.begin(), prev.end(), header.prev_hash.begin());
    const Bytes root = reader.raw(32);
    std::copy(root.begin(), root.end(), header.merkle_root.begin());
    header.timestamp_ms = reader.u64();
    header.difficulty = reader.u64();
    header.nonce = reader.u64();
    return header;
}

crypto::Digest BlockHeader::hash() const {
    return crypto::Sha256::hash(encode());
}

void Block::seal_transactions() {
    std::vector<crypto::Digest> leaves;
    leaves.reserve(transactions.size());
    for (const auto& tx : transactions) leaves.push_back(tx.id());
    header.merkle_root = merkle_root(leaves);
}

bool Block::merkle_consistent() const {
    std::vector<crypto::Digest> leaves;
    leaves.reserve(transactions.size());
    for (const auto& tx : transactions) leaves.push_back(tx.id());
    return header.merkle_root == merkle_root(leaves);
}

Bytes Block::encode() const {
    ByteWriter writer;
    writer.raw(header.encode());
    writer.u32(static_cast<std::uint32_t>(transactions.size()));
    for (const auto& tx : transactions) writer.raw(tx.encode());
    return writer.take();
}

Block Block::decode(ByteReader& reader) {
    Block block;
    block.header = BlockHeader::decode(reader);
    // No reserve(count): the count is unchecked input, and a hostile one
    // must end in the reader's std::out_of_range, not a huge allocation.
    const std::uint32_t count = reader.u32();
    for (std::uint32_t i = 0; i < count; ++i)
        block.transactions.push_back(Transaction::decode(reader));
    return block;
}

std::size_t Block::size_bytes() const {
    std::size_t size = 8 + 32 + 32 + 8 + 8 + 8 + 4;  // header + tx count
    for (const auto& tx : transactions) size += tx.size_bytes();
    return size;
}

Block make_genesis(std::uint64_t chain_id) {
    Block genesis;
    genesis.header.index = 0;
    genesis.header.timestamp_ms = 0;
    genesis.header.difficulty = 1;
    genesis.header.nonce = chain_id;
    genesis.seal_transactions();
    return genesis;
}

}  // namespace fairbfl::chain
