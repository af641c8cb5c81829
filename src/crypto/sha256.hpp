#pragma once
// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for block hashing, the proof-of-work puzzle (paper Eq. 4:
// H(nonce + Block) < Target), Merkle trees, and as the digest inside RSA
// signatures (Figure 2).
//
// Block compression runs through one compressor chosen once per process:
// the SHA-NI body (support/simd_sha.cpp) when CPUID reports the SHA
// extensions and the build carries that TU's ISA, else the portable
// round loop here.  Both compute the same function, so the choice has no
// knob and changes no digest.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "support/simd.hpp"

namespace fairbfl::crypto {

/// A 256-bit digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
public:
    Sha256() noexcept { reset(); }

    void reset() noexcept;
    void update(std::span<const std::uint8_t> data) noexcept;
    void update(std::string_view text) noexcept;
    /// Finalizes and returns the digest.  The hasher must be reset() before
    /// reuse.
    [[nodiscard]] Digest finish() noexcept;

    /// One-shot helpers.
    [[nodiscard]] static Digest hash(std::span<const std::uint8_t> data) noexcept;
    [[nodiscard]] static Digest hash(std::string_view text) noexcept;

private:
    std::array<std::uint32_t, 8> state_{};
    std::array<std::uint8_t, 64> buffer_{};
    std::size_t buffer_len_ = 0;
    std::uint64_t total_bits_ = 0;
};

namespace detail {
/// The portable round loop: what hosts without SHA-NI run, and the
/// reference test_sha256 pins the SHA-NI body to.
[[nodiscard]] support::simd::Sha256Blocks portable_sha256_blocks() noexcept;
/// The compressor Sha256 uses, chosen on first call: the SHA-NI body when
/// support::simd::cpu_supports_sha() holds and its accessor is non-null,
/// portable_sha256_blocks() otherwise.
[[nodiscard]] support::simd::Sha256Blocks sha256_blocks() noexcept;
}  // namespace detail

/// Lowercase hex rendering of a digest.
[[nodiscard]] std::string to_hex(const Digest& digest);

/// Interprets the first 8 bytes of the digest as a big-endian integer;
/// used to compare a block hash against the PoW target (Eq. 4).
[[nodiscard]] std::uint64_t leading64(const Digest& digest) noexcept;

/// Number of leading zero bits of the digest (a convenience for difficulty
/// assertions in tests).
[[nodiscard]] int leading_zero_bits(const Digest& digest) noexcept;

}  // namespace fairbfl::crypto
