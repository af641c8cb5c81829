#pragma once
// Arbitrary-precision unsigned integers, from scratch.
//
// This is the arithmetic substrate for the RSA identity layer (paper §4.2,
// Figure 2).  Limbs are little-endian uint32 so schoolbook multiplication
// and Knuth Algorithm D division can use 64-bit intermediates.
//
// Modular exponentiation with an odd modulus (always the case for RSA and
// Miller-Rabin) runs on a fixed-width Montgomery kernel: the operands are
// converted once into k-limb buffers of 64-bit limbs (products through
// unsigned __int128), every Montgomery product reuses one accumulator sized
// for the modulus, and nothing allocates between the conversion into and out
// of Montgomery form.  The exponent is scanned left to right in sliding
// windows over a table of odd powers base^1, base^3, .., base^(2^w - 1);
// the width w follows the exponent's bit length: 1 (no table) up to 23
// bits -- so e = 65537 builds none -- then 3, 4, 5 and 6 above 23, 79,
// 239 and 671 bits.  An even modulus takes a division-based
// square-and-multiply.

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

namespace fairbfl::crypto {

class BigUint;

/// Result of BigUint::divmod.
struct BigUintDivMod;

class BigUint {
public:
    /// Zero.
    BigUint() = default;
    /// From a machine word.
    explicit BigUint(std::uint64_t value);

    /// Parses lowercase/uppercase hex (no 0x prefix).  Throws
    /// std::invalid_argument on non-hex input.
    [[nodiscard]] static BigUint from_hex(std::string_view hex);
    /// Big-endian byte import (e.g. a SHA-256 digest).
    [[nodiscard]] static BigUint from_bytes_be(std::span<const std::uint8_t> bytes);

    /// Lowercase hex, no leading zeros ("0" for zero).
    [[nodiscard]] std::string to_hex() const;
    /// Big-endian bytes, exactly `width` long (throws std::length_error when
    /// the value does not fit).
    [[nodiscard]] std::vector<std::uint8_t> to_bytes_be(std::size_t width) const;

    [[nodiscard]] bool is_zero() const noexcept { return limbs_.empty(); }
    [[nodiscard]] bool is_odd() const noexcept {
        return !limbs_.empty() && (limbs_[0] & 1U);
    }
    /// Number of significant bits (0 for zero).
    [[nodiscard]] std::size_t bit_length() const noexcept;
    /// Value of bit i (0 = least significant).
    [[nodiscard]] bool bit(std::size_t i) const noexcept;
    /// Low 64 bits.
    [[nodiscard]] std::uint64_t low_u64() const noexcept;

    [[nodiscard]] std::strong_ordering operator<=>(const BigUint& rhs) const noexcept;
    [[nodiscard]] bool operator==(const BigUint& rhs) const noexcept = default;

    [[nodiscard]] BigUint operator+(const BigUint& rhs) const;
    /// Requires *this >= rhs (asserts in debug; wraps would be a logic bug).
    [[nodiscard]] BigUint operator-(const BigUint& rhs) const;
    [[nodiscard]] BigUint operator*(const BigUint& rhs) const;
    [[nodiscard]] BigUint operator<<(std::size_t bits) const;
    [[nodiscard]] BigUint operator>>(std::size_t bits) const;

    /// Quotient and remainder; divisor must be non-zero.
    [[nodiscard]] BigUintDivMod divmod(const BigUint& divisor) const;
    [[nodiscard]] BigUint operator/(const BigUint& rhs) const;
    [[nodiscard]] BigUint operator%(const BigUint& rhs) const;

    /// (base^exponent) mod modulus; modulus must be non-zero.
    [[nodiscard]] static BigUint mod_pow(const BigUint& base,
                                         const BigUint& exponent,
                                         const BigUint& modulus);

    [[nodiscard]] static BigUint gcd(BigUint a, BigUint b);

    /// Multiplicative inverse of a modulo m, or nullopt when gcd(a,m) != 1.
    [[nodiscard]] static std::optional<BigUint> mod_inverse(const BigUint& a,
                                                            const BigUint& m);

    /// Uniformly random integer with exactly `bits` bits (MSB forced to 1).
    [[nodiscard]] static BigUint random_bits(std::size_t bits,
                                             support::Rng& rng);
    /// Uniform in [0, bound) via rejection; bound must be non-zero.
    [[nodiscard]] static BigUint random_below(const BigUint& bound,
                                              support::Rng& rng);

    /// Miller-Rabin with `rounds` random bases (deterministic trial division
    /// by small primes first).  All rounds share one Montgomery context.
    [[nodiscard]] static bool is_probable_prime(const BigUint& n, int rounds,
                                                support::Rng& rng);
    /// Random odd prime with exactly `bits` bits.
    [[nodiscard]] static BigUint generate_prime(std::size_t bits,
                                                support::Rng& rng,
                                                int mr_rounds = 20);

private:
    friend class Montgomery;
    void trim() noexcept;

    std::vector<std::uint32_t> limbs_;  // little-endian, trimmed
};

struct BigUintDivMod {
    BigUint quotient;
    BigUint remainder;
};

inline BigUint BigUint::operator/(const BigUint& rhs) const {
    return divmod(rhs).quotient;
}
inline BigUint BigUint::operator%(const BigUint& rhs) const {
    return divmod(rhs).remainder;
}

}  // namespace fairbfl::crypto
