#pragma once
// Blocks and block headers.
//
// The PoW puzzle (paper Eq. 4) is: SHA256(header-with-nonce) < Target,
// where Target = Target_1 / difficulty and Target_1 is the maximum target.
// Header hashing covers (index, prev_hash, merkle_root, timestamp_ms,
// difficulty, nonce), so the nonce search re-hashes only the 80-ish header
// bytes, exactly like a real chain.

#include <cstdint>
#include <vector>

#include "chain/merkle.hpp"
#include "chain/transaction.hpp"
#include "crypto/sha256.hpp"

namespace fairbfl::chain {

struct BlockHeader {
    std::uint64_t index = 0;          ///< height of this block
    crypto::Digest prev_hash{};       ///< hash of the parent header
    crypto::Digest merkle_root{};     ///< commitment to the transactions
    std::uint64_t timestamp_ms = 0;   ///< simulated wall-clock of creation
    std::uint64_t difficulty = 1;     ///< Target = Target_1 / difficulty
    std::uint64_t nonce = 0;

    [[nodiscard]] Bytes encode() const;
    [[nodiscard]] static BlockHeader decode(ByteReader& reader);
    /// SHA-256 over the canonical header encoding.
    [[nodiscard]] crypto::Digest hash() const;

    [[nodiscard]] bool operator==(const BlockHeader& rhs) const = default;
};

struct Block {
    BlockHeader header;
    std::vector<Transaction> transactions;

    /// Recomputes header.merkle_root from the transaction set.
    void seal_transactions();
    /// True when header.merkle_root matches the transactions.
    [[nodiscard]] bool merkle_consistent() const;

    [[nodiscard]] Bytes encode() const;
    /// Throws what Transaction::decode throws; a transaction count beyond
    /// the input ends in std::out_of_range.
    [[nodiscard]] static Block decode(ByteReader& reader);
    /// Serialized size (drives propagation delay and block-size limits).
    [[nodiscard]] std::size_t size_bytes() const;

    [[nodiscard]] bool operator==(const Block& rhs) const = default;
};

/// The genesis block for a given chain id (deterministic, difficulty 1,
/// no transactions, zero parent).
[[nodiscard]] Block make_genesis(std::uint64_t chain_id);

}  // namespace fairbfl::chain
