#pragma once
// Chain persistence: canonical serialization of a whole chain, plus
// file-backed save/load with full re-validation on import.
//
// This is the auditability path: an adopter (or regulator) can export the
// ledger, ship it elsewhere, and re-verify every header link, Merkle root,
// PoW target, and transaction signature offline.

#include <optional>
#include <string>
#include <vector>

#include "chain/chain.hpp"

namespace fairbfl::chain {

/// Serializes the best chain (genesis first).
[[nodiscard]] Bytes export_chain(const Blockchain& chain);

/// Parses an exported chain back into its block sequence.  Throws
/// std::out_of_range on truncated input (a block or transaction count
/// beyond the bytes included), std::invalid_argument on an unknown
/// transaction kind, and std::runtime_error on a bad magic, version or
/// trailing bytes.
[[nodiscard]] std::vector<Block> parse_chain(std::span<const std::uint8_t> data);

/// Rebuilds a Blockchain by re-submitting every parsed block in order,
/// re-running full validation (PoW checking per `check_pow`; signature
/// checking when `keys` given).  Returns std::nullopt when any block fails
/// validation or the genesis does not match `chain_id`.
[[nodiscard]] std::optional<Blockchain> import_chain(
    std::span<const std::uint8_t> data, std::uint64_t chain_id,
    const crypto::KeyStore* keys = nullptr, bool check_pow = false);

/// Convenience file wrappers.  save returns false on I/O failure; load
/// returns std::nullopt on I/O failure or validation failure.
bool save_chain(const Blockchain& chain, const std::string& path);
[[nodiscard]] std::optional<Blockchain> load_chain(
    const std::string& path, std::uint64_t chain_id,
    const crypto::KeyStore* keys = nullptr, bool check_pow = false);

}  // namespace fairbfl::chain
