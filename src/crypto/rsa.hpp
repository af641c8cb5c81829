#pragma once
// Textbook-RSA identity layer (paper §4.2 / Figure 2).
//
// Each client holds a private key derived from its ID; miners hold the
// matching public keys and verify every gradient transaction's signature
// before accepting it.  Signatures are RSASSA-PKCS1-v1.5-style over a
// SHA-256 digest (EMSA padding 0x00 0x01 0xFF.. 0x00 || digest).
//
// Private keys carry the CRT layout: the primes p and q, the reduced
// exponents dp = d mod (p-1) and dq = d mod (q-1), and qinv = q^{-1} mod p.
// sign_digest and decrypt exponentiate mod p and mod q separately (half
// the width, so about a quarter of the cost of x^d mod n) and recombine
// with Garner's formula.  EMSA-PKCS1-v1.5 signing is deterministic and
// x^d mod n is unique, so the CRT path returns exactly the bytes the
// textbook path would.  `d` stays in the key as the reference those bytes
// are tested against.  The simulator's default key size (KeyStore) is 512
// bits; sizes up to 2048 bits are covered by tests.

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/bigint.hpp"
#include "crypto/sha256.hpp"
#include "support/rng.hpp"

namespace fairbfl::crypto {

struct RsaPublicKey {
    BigUint n;  ///< modulus
    BigUint e;  ///< public exponent (65537)

    /// Modulus size in whole bytes (ceil).
    [[nodiscard]] std::size_t modulus_bytes() const {
        return (n.bit_length() + 7) / 8;
    }
};

/// An RSA private key.  Every field is required: the private operations
/// read only the CRT fields (p, q, dp, dq, qinv).
struct RsaPrivateKey {
    BigUint n;     ///< modulus p * q
    BigUint d;     ///< private exponent e^{-1} mod (p-1)(q-1)
    BigUint p;     ///< first prime drawn by generate_keypair
    BigUint q;     ///< second prime
    BigUint dp;    ///< d mod (p-1)
    BigUint dq;    ///< d mod (q-1)
    BigUint qinv;  ///< q^{-1} mod p

    [[nodiscard]] std::size_t modulus_bytes() const {
        return (n.bit_length() + 7) / 8;
    }
};

struct RsaKeyPair {
    RsaPublicKey pub;
    RsaPrivateKey priv;
};

/// Generates an RSA key pair with a modulus of exactly `bits` bits
/// (p and q are bits/2-bit primes; regenerated until the product has the
/// requested width and e is invertible).  Deterministic given `rng`; the
/// CRT fields are derived after the primes are accepted, without further
/// draws.
[[nodiscard]] RsaKeyPair generate_keypair(std::size_t bits, support::Rng& rng);

/// An RSA signature: the integer s = EMSA(digest)^d mod n, serialized
/// big-endian at modulus width.
using RsaSignature = std::vector<std::uint8_t>;

/// Signs a SHA-256 digest.
[[nodiscard]] RsaSignature sign_digest(const RsaPrivateKey& key,
                                       const Digest& digest);

/// Verifies a signature over a SHA-256 digest.  Constant-shape: returns
/// false on any mismatch (wrong key, tampered message, malformed length).
[[nodiscard]] bool verify_digest(const RsaPublicKey& key, const Digest& digest,
                                 std::span<const std::uint8_t> signature);

/// Convenience: sign/verify a raw byte payload (hashes internally).
[[nodiscard]] RsaSignature sign_payload(const RsaPrivateKey& key,
                                        std::span<const std::uint8_t> payload);
[[nodiscard]] bool verify_payload(const RsaPublicKey& key,
                                  std::span<const std::uint8_t> payload,
                                  std::span<const std::uint8_t> signature);

/// Raw RSA encryption of a short message (must be numerically < n).  The
/// paper mentions gradients "can be encrypted using RSA"; in practice one
/// encrypts a symmetric key -- this primitive models that handshake.
[[nodiscard]] std::vector<std::uint8_t> encrypt(
    const RsaPublicKey& key, std::span<const std::uint8_t> message);
/// Inverse of encrypt.  Throws std::length_error when the ciphertext is not
/// modulus-wide or its value is >= n (c and c + n would otherwise decrypt
/// alike), std::runtime_error when the padding marker is missing.
[[nodiscard]] std::vector<std::uint8_t> decrypt(
    const RsaPrivateKey& key, std::span<const std::uint8_t> ciphertext);

}  // namespace fairbfl::crypto
