#include "crypto/rsa.hpp"

#include <stdexcept>

namespace fairbfl::crypto {

namespace {

constexpr std::uint64_t kPublicExponent = 65537;

/// EMSA-PKCS1-v1.5 style encoding of a SHA-256 digest into `width` bytes:
/// 0x00 0x01 0xFF...0xFF 0x00 || digest.  Requires width >= digest + 11.
BigUint emsa_encode(const Digest& digest, std::size_t width) {
    if (width < digest.size() + 11)
        throw std::length_error("RSA modulus too small for EMSA encoding");
    std::vector<std::uint8_t> em(width, 0xFF);
    em[0] = 0x00;
    em[1] = 0x01;
    em[width - digest.size() - 1] = 0x00;
    std::copy(digest.begin(), digest.end(),
              em.begin() + static_cast<std::ptrdiff_t>(width - digest.size()));
    return BigUint::from_bytes_be(em);
}

/// The private-key operation x^d mod n by CRT: two half-width
/// exponentiations, mod p and mod q, joined by Garner's recombination
/// x^d = m_q + q * (qinv * (m_p - m_q) mod p).  x must be < n.
BigUint private_op(const RsaPrivateKey& key, const BigUint& x) {
    const BigUint mp = BigUint::mod_pow(x, key.dp, key.p);
    const BigUint mq = BigUint::mod_pow(x, key.dq, key.q);
    const BigUint mq_mod_p = mq % key.p;
    const BigUint diff = mp >= mq_mod_p ? mp - mq_mod_p : mp + key.p - mq_mod_p;
    return mq + ((diff * key.qinv) % key.p) * key.q;
}

}  // namespace

RsaKeyPair generate_keypair(std::size_t bits, support::Rng& rng) {
    if (bits < 96 || bits % 2 != 0)
        throw std::invalid_argument(
            "generate_keypair: modulus must be an even bit count >= 96");
    const BigUint e(kPublicExponent);
    const std::size_t half = bits / 2;
    for (;;) {
        const BigUint p = BigUint::generate_prime(half, rng);
        BigUint q = BigUint::generate_prime(half, rng);
        if (p == q) continue;
        const BigUint n = p * q;
        if (n.bit_length() != bits) continue;  // product lost a bit; retry
        const BigUint phi = (p - BigUint(1)) * (q - BigUint(1));
        const auto d = BigUint::mod_inverse(e, phi);
        if (!d.has_value()) continue;  // gcd(e, phi) != 1; retry
        // p and q are distinct primes, so q is invertible mod p.
        BigUint qinv = *BigUint::mod_inverse(q, p);
        RsaPrivateKey priv{n,
                           *d,
                           p,
                           q,
                           *d % (p - BigUint(1)),
                           *d % (q - BigUint(1)),
                           std::move(qinv)};
        return RsaKeyPair{RsaPublicKey{n, e}, std::move(priv)};
    }
}

RsaSignature sign_digest(const RsaPrivateKey& key, const Digest& digest) {
    const std::size_t width = key.modulus_bytes();
    const BigUint m = emsa_encode(digest, width);
    return private_op(key, m).to_bytes_be(width);
}

bool verify_digest(const RsaPublicKey& key, const Digest& digest,
                   std::span<const std::uint8_t> signature) {
    const std::size_t width = key.modulus_bytes();
    if (signature.size() != width) return false;
    const BigUint s = BigUint::from_bytes_be(signature);
    if (s >= key.n) return false;
    const BigUint m = BigUint::mod_pow(s, key.e, key.n);
    try {
        return m == emsa_encode(digest, width);
    } catch (const std::length_error&) {
        return false;
    }
}

RsaSignature sign_payload(const RsaPrivateKey& key,
                          std::span<const std::uint8_t> payload) {
    return sign_digest(key, Sha256::hash(payload));
}

bool verify_payload(const RsaPublicKey& key,
                    std::span<const std::uint8_t> payload,
                    std::span<const std::uint8_t> signature) {
    return verify_digest(key, Sha256::hash(payload), signature);
}

std::vector<std::uint8_t> encrypt(const RsaPublicKey& key,
                                  std::span<const std::uint8_t> message) {
    const std::size_t width = key.modulus_bytes();
    if (message.size() + 1 > width)
        throw std::length_error("RSA encrypt: message too long for modulus");
    // Prefix a 0x01 byte so leading zero bytes of the message survive the
    // integer round-trip.
    std::vector<std::uint8_t> padded;
    padded.reserve(message.size() + 1);
    padded.push_back(0x01);
    padded.insert(padded.end(), message.begin(), message.end());
    const BigUint m = BigUint::from_bytes_be(padded);
    if (m >= key.n) throw std::length_error("RSA encrypt: message >= modulus");
    return BigUint::mod_pow(m, key.e, key.n).to_bytes_be(width);
}

std::vector<std::uint8_t> decrypt(const RsaPrivateKey& key,
                                  std::span<const std::uint8_t> ciphertext) {
    if (ciphertext.size() != key.modulus_bytes())
        throw std::length_error("RSA decrypt: bad ciphertext length");
    const BigUint c = BigUint::from_bytes_be(ciphertext);
    if (c >= key.n)
        throw std::length_error("RSA decrypt: ciphertext >= modulus");
    const BigUint m = private_op(key, c);
    std::vector<std::uint8_t> bytes =
        m.to_bytes_be((m.bit_length() + 7) / 8);
    if (bytes.empty() || bytes[0] != 0x01)
        throw std::runtime_error("RSA decrypt: padding marker missing");
    bytes.erase(bytes.begin());
    return bytes;
}

}  // namespace fairbfl::crypto
