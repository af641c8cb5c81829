#include "crypto/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace fairbfl::crypto {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;
}

BigUint::BigUint(std::uint64_t value) {
    if (value != 0) limbs_.push_back(static_cast<std::uint32_t>(value));
    if (value >> 32) limbs_.push_back(static_cast<std::uint32_t>(value >> 32));
}

void BigUint::trim() noexcept {
    while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_hex(std::string_view hex) {
    BigUint out;
    if (hex.empty()) return out;
    out.limbs_.assign((hex.size() + 7) / 8, 0);
    std::size_t bit = 0;
    for (std::size_t i = hex.size(); i-- > 0;) {
        const char c = hex[i];
        std::uint32_t nibble = 0;
        if (c >= '0' && c <= '9') nibble = static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint32_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F') nibble = static_cast<std::uint32_t>(c - 'A' + 10);
        else throw std::invalid_argument("BigUint::from_hex: non-hex digit");
        out.limbs_[bit / 32] |= nibble << (bit % 32);
        bit += 4;
    }
    out.trim();
    return out;
}

BigUint BigUint::from_bytes_be(std::span<const std::uint8_t> bytes) {
    BigUint out;
    out.limbs_.assign((bytes.size() + 3) / 4, 0);
    std::size_t shift = 0;
    for (std::size_t i = bytes.size(); i-- > 0;) {
        out.limbs_[shift / 32] |=
            static_cast<std::uint32_t>(bytes[i]) << (shift % 32);
        shift += 8;
    }
    out.trim();
    return out;
}

std::string BigUint::to_hex() const {
    if (is_zero()) return "0";
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(limbs_.size() * 8);
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        for (int nib = 7; nib >= 0; --nib) {
            out += kHex[(limbs_[i] >> (4 * nib)) & 0xF];
        }
    }
    const auto first = out.find_first_not_of('0');
    return out.substr(first);
}

std::vector<std::uint8_t> BigUint::to_bytes_be(std::size_t width) const {
    if (bit_length() > width * 8)
        throw std::length_error("BigUint::to_bytes_be: value wider than width");
    std::vector<std::uint8_t> bytes(width, 0);
    for (std::size_t i = 0; i < width; ++i) {
        const std::size_t shift = 8 * i;
        const std::size_t limb = shift / 32;
        if (limb >= limbs_.size()) break;
        bytes[width - 1 - i] =
            static_cast<std::uint8_t>(limbs_[limb] >> (shift % 32));
    }
    return bytes;
}

std::size_t BigUint::bit_length() const noexcept {
    if (limbs_.empty()) return 0;
    const std::uint32_t top = limbs_.back();
    std::size_t bits = (limbs_.size() - 1) * 32;
    return bits + (32U - static_cast<std::size_t>(std::countl_zero(top)));
}

bool BigUint::bit(std::size_t i) const noexcept {
    const std::size_t limb = i / 32;
    if (limb >= limbs_.size()) return false;
    return (limbs_[limb] >> (i % 32)) & 1U;
}

std::strong_ordering BigUint::operator<=>(const BigUint& rhs) const noexcept {
    if (limbs_.size() != rhs.limbs_.size())
        return limbs_.size() <=> rhs.limbs_.size();
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        if (limbs_[i] != rhs.limbs_[i]) return limbs_[i] <=> rhs.limbs_[i];
    }
    return std::strong_ordering::equal;
}

BigUint BigUint::operator+(const BigUint& rhs) const {
    BigUint out;
    const std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
    out.limbs_.reserve(n + 1);
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum = carry;
        if (i < limbs_.size()) sum += limbs_[i];
        if (i < rhs.limbs_.size()) sum += rhs.limbs_[i];
        out.limbs_.push_back(static_cast<std::uint32_t>(sum));
        carry = sum >> 32;
    }
    if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
    return out;
}

BigUint BigUint::operator-(const BigUint& rhs) const {
    assert(*this >= rhs && "BigUint subtraction would underflow");
    BigUint out;
    out.limbs_.reserve(limbs_.size());
    std::int64_t borrow = 0;
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
        if (i < rhs.limbs_.size())
            diff -= static_cast<std::int64_t>(rhs.limbs_[i]);
        if (diff < 0) {
            diff += static_cast<std::int64_t>(kBase);
            borrow = 1;
        } else {
            borrow = 0;
        }
        out.limbs_.push_back(static_cast<std::uint32_t>(diff));
    }
    out.trim();
    return out;
}

BigUint BigUint::operator*(const BigUint& rhs) const {
    if (is_zero() || rhs.is_zero()) return {};
    BigUint out;
    out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        std::uint64_t carry = 0;
        const std::uint64_t a = limbs_[i];
        for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
            std::uint64_t cur = out.limbs_[i + j] + a * rhs.limbs_[j] + carry;
            out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
            carry = cur >> 32;
        }
        std::size_t k = i + rhs.limbs_.size();
        while (carry) {
            const std::uint64_t cur = out.limbs_[k] + carry;
            out.limbs_[k] = static_cast<std::uint32_t>(cur);
            carry = cur >> 32;
            ++k;
        }
    }
    out.trim();
    return out;
}

BigUint BigUint::operator<<(std::size_t bits) const {
    if (is_zero() || bits == 0) {
        BigUint out = *this;
        return out;
    }
    const std::size_t limb_shift = bits / 32;
    const std::size_t bit_shift = bits % 32;
    BigUint out;
    out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i])
                                << bit_shift;
        out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
        out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
    }
    out.trim();
    return out;
}

BigUint BigUint::operator>>(std::size_t bits) const {
    const std::size_t limb_shift = bits / 32;
    if (limb_shift >= limbs_.size()) return {};
    const std::size_t bit_shift = bits % 32;
    BigUint out;
    out.limbs_.assign(limbs_.size() - limb_shift, 0);
    for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
        std::uint64_t v =
            static_cast<std::uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
        if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
            v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
                 << (32 - bit_shift);
        }
        out.limbs_[i] = static_cast<std::uint32_t>(v);
    }
    out.trim();
    return out;
}

BigUintDivMod BigUint::divmod(const BigUint& divisor) const {
    if (divisor.is_zero()) throw std::domain_error("BigUint division by zero");
    if (*this < divisor) return {BigUint{}, *this};

    // Single-limb divisor fast path.
    if (divisor.limbs_.size() == 1) {
        const std::uint64_t d = divisor.limbs_[0];
        BigUint quotient;
        quotient.limbs_.assign(limbs_.size(), 0);
        std::uint64_t rem = 0;
        for (std::size_t i = limbs_.size(); i-- > 0;) {
            const std::uint64_t cur = (rem << 32) | limbs_[i];
            quotient.limbs_[i] = static_cast<std::uint32_t>(cur / d);
            rem = cur % d;
        }
        quotient.trim();
        return {std::move(quotient), BigUint(rem)};
    }

    // Knuth TAOCP vol.2 Algorithm D with base 2^32.
    const int shift = std::countl_zero(divisor.limbs_.back());
    const BigUint u = *this << static_cast<std::size_t>(shift);
    const BigUint v = divisor << static_cast<std::size_t>(shift);
    const std::size_t n = v.limbs_.size();
    const std::size_t m = u.limbs_.size() - n;

    std::vector<std::uint32_t> un(u.limbs_);
    un.push_back(0);  // u has m+n+1 digits after normalization
    const std::vector<std::uint32_t>& vn = v.limbs_;

    BigUint quotient;
    quotient.limbs_.assign(m + 1, 0);

    for (std::size_t j = m + 1; j-- > 0;) {
        // Estimate qhat = (un[j+n]*B + un[j+n-1]) / vn[n-1].
        const std::uint64_t numerator =
            (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
        std::uint64_t qhat = numerator / vn[n - 1];
        std::uint64_t rhat = numerator % vn[n - 1];
        while (qhat >= kBase ||
               qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
            --qhat;
            rhat += vn[n - 1];
            if (rhat >= kBase) break;
        }

        // Multiply-subtract qhat * v from u[j .. j+n].
        std::int64_t borrow = 0;
        std::uint64_t carry = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t product = qhat * vn[i] + carry;
            carry = product >> 32;
            std::int64_t diff = static_cast<std::int64_t>(un[i + j]) -
                                static_cast<std::int64_t>(product & 0xFFFFFFFF) -
                                borrow;
            if (diff < 0) {
                diff += static_cast<std::int64_t>(kBase);
                borrow = 1;
            } else {
                borrow = 0;
            }
            un[i + j] = static_cast<std::uint32_t>(diff);
        }
        std::int64_t top = static_cast<std::int64_t>(un[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
        if (top < 0) {
            // qhat was one too large: add v back once.
            --qhat;
            std::uint64_t carry2 = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t sum = static_cast<std::uint64_t>(un[i + j]) +
                                          vn[i] + carry2;
                un[i + j] = static_cast<std::uint32_t>(sum);
                carry2 = sum >> 32;
            }
            top += static_cast<std::int64_t>(carry2) +
                   static_cast<std::int64_t>(kBase);
        }
        un[j + n] = static_cast<std::uint32_t>(top);
        quotient.limbs_[j] = static_cast<std::uint32_t>(qhat);
    }
    quotient.trim();

    BigUint remainder;
    remainder.limbs_.assign(un.begin(),
                            un.begin() + static_cast<std::ptrdiff_t>(n));
    remainder.trim();
    remainder = remainder >> static_cast<std::size_t>(shift);
    return {std::move(quotient), std::move(remainder)};
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic (odd modulus), used by mod_pow and Miller-Rabin.

namespace {

using Limb = std::uint64_t;
__extension__ typedef unsigned __int128 Wide;

/// 192-bit column accumulator of the product-scanning multiply.  A column
/// of k-limb operands sums at most 2k products below 2^128 plus the carry
/// out of the column before, which fits for any k below 2^63.
struct Column {
    Wide low = 0;   // bits 0..127
    Limb high = 0;  // bits 128..191

    void add(Limb x, Limb y) noexcept {
        const Wide p = static_cast<Wide>(x) * y;
        low += p;
        high += low < p;
    }
    [[nodiscard]] Limb bottom() const noexcept {
        return static_cast<Limb>(low);
    }
    /// Returns the bottom limb and shifts the rest down into the next
    /// column's carry.
    Limb shift() noexcept {
        const Limb out = bottom();
        low = (low >> 64) | (static_cast<Wide>(high) << 64);
        high = 0;
        return out;
    }
};

/// out = T mod N for T = top * 2^(64k) + r < 2N: one conditional
/// subtraction.  out may alias neither r nor n.
inline void subtract_if_ge(const Limb* r, Limb top, const Limb* n,
                           std::size_t k, Limb* out) noexcept {
    bool ge = top != 0;
    if (!ge) {
        ge = true;
        for (std::size_t j = k; j-- > 0;) {
            if (r[j] != n[j]) {
                ge = r[j] > n[j];
                break;
            }
        }
    }
    if (ge) {
        Limb borrow = 0;
        for (std::size_t j = 0; j < k; ++j) {
            const Wide diff = static_cast<Wide>(r[j]) - n[j] - borrow;
            out[j] = static_cast<Limb>(diff);
            borrow = static_cast<Limb>(diff >> 64) & 1U;
        }
    } else {
        std::copy(r, r + k, out);
    }
}

}  // namespace

/// Montgomery context for a fixed odd modulus N with R = 2^(64*k).  The
/// modulus, R^2 mod N and the multiply's scratch are buffers sized here
/// once; every product of an exponentiation reuses them, so the kernel
/// never allocates.  Operands are fully reduced (< N), which makes
/// Montgomery representations unique and comparable limb by limb.  The
/// scratch makes a context single-threaded.
class Montgomery {
public:
    explicit Montgomery(const BigUint& modulus)
        : modulus_(modulus),
          k_((modulus.limbs_.size() + 1) / 2),
          n_(k_),
          r2_(k_),
          scratch_(2 * k_) {
        load(modulus, n_.data());
        // -N^{-1} mod 2^64 by Newton iteration: an odd n0 is its own
        // inverse mod 8, and each step doubles the correct low bits.
        Limb inv = n_[0];
        for (int i = 0; i < 5; ++i) inv *= 2 - n_[0] * inv;
        ninv_ = ~inv + 1;
        load((BigUint(1) << (128 * k_)) % modulus, r2_.data());
    }

    [[nodiscard]] std::size_t limbs() const noexcept { return k_; }

    /// out = a * b * R^{-1} mod N.  a, b < N; out may alias either.  8
    /// limbs, the CRT halves of 1024-bit keys that carry every private-key
    /// operation, run an instance of fixed width; every other width runs
    /// the same body at k_.
    void mul(const Limb* a, const Limb* b, Limb* out) noexcept {
        if (k_ == 8) return mul_k<8>(a, b, out);
        mul_k<0>(a, b, out);
    }

    /// out = (x mod N) * R mod N.
    void to_mont(const BigUint& x, Limb* out) {
        if (x >= modulus_)
            load(x % modulus_, out);
        else
            load(x, out);
        mul(out, r2_.data(), out);
    }

    /// a * R^{-1} mod N as a BigUint.
    [[nodiscard]] BigUint from_mont(const Limb* a) {
        std::vector<Limb> unit(k_, 0);
        unit[0] = 1;
        mul(a, unit.data(), unit.data());
        return store(unit.data());
    }

    /// out = base^exponent in Montgomery form, by left-to-right sliding
    /// windows over the odd powers base^1, base^3, .., base^(2^w - 1).
    /// The exponent must be non-zero; `out` must not alias `base`.
    void pow(const Limb* base, const BigUint& exponent, Limb* out) {
        const std::size_t bits = exponent.bit_length();
        const std::size_t w = window_bits(bits);
        std::vector<Limb> table(k_ << (w - 1));
        std::copy(base, base + k_, table.data());
        if (w > 1) {
            std::vector<Limb> square(k_);
            mul(base, base, square.data());
            for (std::size_t i = 1; i < (std::size_t{1} << (w - 1)); ++i)
                mul(&table[(i - 1) * k_], square.data(), &table[i * k_]);
        }

        // Bits [low, high) form the next window: it starts at the top set
        // bit, spans at most w bits and ends on a set bit, so its value is
        // odd and indexes the table.  Zero bits between windows are plain
        // squarings.
        bool first = true;
        std::size_t high = bits;
        while (high > 0) {
            if (!exponent.bit(high - 1)) {
                mul(out, out, out);
                --high;
                continue;
            }
            std::size_t low = high > w ? high - w : 0;
            while (!exponent.bit(low)) ++low;
            std::size_t value = 0;
            for (std::size_t b = high; b-- > low;)
                value = (value << 1) | (exponent.bit(b) ? 1U : 0U);
            const Limb* power = &table[(value >> 1) * k_];
            if (first) {
                std::copy(power, power + k_, out);
                first = false;
            } else {
                for (std::size_t s = low; s < high; ++s) mul(out, out, out);
                mul(out, power, out);
            }
            high = low;
        }
    }

private:
    /// Product-scanning (column by column) Montgomery multiply at K limbs,
    /// or at k_ for K == 0.  Column i of the 2k-limb sum a * b + m * N
    /// gathers every a[j] * b[i - j] and m[j] * n[i - j]; in the low k
    /// columns m[i] is chosen so the column's bottom limb cancels, and the
    /// high k columns are a * b * R^{-1}, below 2N.
    template <std::size_t K>
    void mul_k(const Limb* a, const Limb* b, Limb* out) noexcept {
        const std::size_t k = K != 0 ? K : k_;
        Limb* m = scratch_.data();
        Limb* r = m + k;
        const Limb* n = n_.data();
        Column t;
        for (std::size_t i = 0; i < k; ++i) {
            for (std::size_t j = 0; j < i; ++j) {
                t.add(a[j], b[i - j]);
                t.add(m[j], n[i - j]);
            }
            t.add(a[i], b[0]);
            m[i] = t.bottom() * ninv_;
            t.add(m[i], n[0]);
            (void)t.shift();
        }
        for (std::size_t i = k; i < 2 * k - 1; ++i) {
            for (std::size_t j = i - k + 1; j < k; ++j) {
                t.add(a[j], b[i - j]);
                t.add(m[j], n[i - j]);
            }
            r[i - k] = t.shift();
        }
        r[k - 1] = t.shift();
        subtract_if_ge(r, t.bottom(), n, k, out);
    }

    /// Window width from the exponent's bit length (the usual break-even
    /// points between table cost and saved multiplications).  Exponents of
    /// at most 23 bits -- e = 65537 among them -- use w = 1: no table.
    static std::size_t window_bits(std::size_t bits) noexcept {
        if (bits > 671) return 6;
        if (bits > 239) return 5;
        if (bits > 79) return 4;
        if (bits > 23) return 3;
        return 1;
    }

    /// Zero-padded k-limb copy of x (x must fit in k limbs).
    void load(const BigUint& x, Limb* out) const noexcept {
        std::fill(out, out + k_, Limb{0});
        for (std::size_t i = 0; i < x.limbs_.size(); ++i)
            out[i / 2] |= static_cast<Limb>(x.limbs_[i]) << (32 * (i % 2));
    }

    [[nodiscard]] BigUint store(const Limb* a) const {
        BigUint out;
        out.limbs_.resize(2 * k_);
        for (std::size_t i = 0; i < k_; ++i) {
            out.limbs_[2 * i] = static_cast<std::uint32_t>(a[i]);
            out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(a[i] >> 32);
        }
        out.trim();
        return out;
    }

    BigUint modulus_;
    std::size_t k_;
    std::vector<Limb> n_;
    std::vector<Limb> r2_;
    std::vector<Limb> scratch_;  // 2k limbs: mul's m and its result
    Limb ninv_ = 0;              // -N^{-1} mod 2^64
};

BigUint BigUint::mod_pow(const BigUint& base, const BigUint& exponent,
                         const BigUint& modulus) {
    if (modulus.is_zero()) throw std::domain_error("mod_pow: zero modulus");
    if (modulus == BigUint(1)) return {};
    if (exponent.is_zero()) return BigUint(1);

    if (modulus.is_odd()) {
        Montgomery mont(modulus);
        std::vector<std::uint64_t> x(mont.limbs());
        std::vector<std::uint64_t> y(mont.limbs());
        mont.to_mont(base, x.data());
        mont.pow(x.data(), exponent, y.data());
        return mont.from_mont(y.data());
    }

    // Generic square-and-multiply with division-based reduction.
    BigUint result(1);
    BigUint acc = base % modulus;
    const std::size_t bits = exponent.bit_length();
    for (std::size_t i = 0; i < bits; ++i) {
        if (exponent.bit(i)) result = (result * acc) % modulus;
        if (i + 1 < bits) acc = (acc * acc) % modulus;
    }
    return result;
}

BigUint BigUint::gcd(BigUint a, BigUint b) {
    while (!b.is_zero()) {
        BigUint r = a % b;
        a = std::move(b);
        b = std::move(r);
    }
    return a;
}

std::optional<BigUint> BigUint::mod_inverse(const BigUint& a,
                                            const BigUint& m) {
    // Extended Euclid over non-negative values: track (old_r, r) and signed
    // Bezout coefficient for a as (sign, magnitude) pairs.
    BigUint old_r = a % m;
    BigUint r = m;
    BigUint old_s(1);
    BigUint s;
    bool old_s_neg = false;
    bool s_neg = false;

    while (!r.is_zero()) {
        const auto [q, rem] = old_r.divmod(r);
        old_r = std::move(r);
        r = rem;

        // new_s = old_s - q * s  (signed arithmetic on magnitudes)
        BigUint qs = q * s;
        BigUint new_s;
        bool new_s_neg = false;
        if (old_s_neg == s_neg) {
            if (old_s >= qs) {
                new_s = old_s - qs;
                new_s_neg = old_s_neg;
            } else {
                new_s = qs - old_s;
                new_s_neg = !old_s_neg;
            }
        } else {
            new_s = old_s + qs;
            new_s_neg = old_s_neg;
        }
        old_s = std::move(s);
        old_s_neg = s_neg;
        s = std::move(new_s);
        s_neg = new_s_neg;
    }

    if (old_r != BigUint(1)) return std::nullopt;  // not coprime
    BigUint inverse = old_s % m;
    if (old_s_neg && !inverse.is_zero()) inverse = m - inverse;
    return inverse;
}

BigUint BigUint::random_bits(std::size_t bits, support::Rng& rng) {
    if (bits == 0) return {};
    BigUint out;
    out.limbs_.assign((bits + 31) / 32, 0);
    for (auto& limb : out.limbs_)
        limb = static_cast<std::uint32_t>(rng());
    // Zero the excess bits, then force the top bit so the width is exact.
    const std::size_t top_bits = bits % 32 == 0 ? 32 : bits % 32;
    std::uint32_t mask = top_bits == 32
                             ? 0xFFFFFFFFU
                             : ((1U << top_bits) - 1U);
    out.limbs_.back() &= mask;
    out.limbs_.back() |= 1U << (top_bits - 1);
    out.trim();
    return out;
}

BigUint BigUint::random_below(const BigUint& bound, support::Rng& rng) {
    if (bound.is_zero())
        throw std::domain_error("random_below: zero bound");
    const std::size_t bits = bound.bit_length();
    for (;;) {
        BigUint candidate;
        candidate.limbs_.assign((bits + 31) / 32, 0);
        for (auto& limb : candidate.limbs_)
            limb = static_cast<std::uint32_t>(rng());
        const std::size_t top_bits = bits % 32 == 0 ? 32 : bits % 32;
        const std::uint32_t mask =
            top_bits == 32 ? 0xFFFFFFFFU : ((1U << top_bits) - 1U);
        candidate.limbs_.back() &= mask;
        candidate.trim();
        if (candidate < bound) return candidate;
    }
}

bool BigUint::is_probable_prime(const BigUint& n, int rounds,
                                support::Rng& rng) {
    static constexpr std::uint32_t kSmallPrimes[] = {
        2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
        47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103};
    if (n < BigUint(2)) return false;
    for (const std::uint32_t p : kSmallPrimes) {
        const BigUint bp(p);
        if (n == bp) return true;
        if ((n % bp).is_zero()) return false;
    }

    // n - 1 = d * 2^s with d odd.
    const BigUint n_minus_1 = n - BigUint(1);
    BigUint d = n_minus_1;
    std::size_t s = 0;
    while (!d.is_odd()) {
        d = d >> 1;
        ++s;
    }

    // Every round works in one Montgomery context, comparing against 1 and
    // n-1 in Montgomery form.
    Montgomery mont(n);
    const std::size_t k = mont.limbs();
    std::vector<std::uint64_t> one(k);
    std::vector<std::uint64_t> minus_one(k);
    std::vector<std::uint64_t> a_mont(k);
    std::vector<std::uint64_t> x(k);
    mont.to_mont(BigUint(1), one.data());
    mont.to_mont(n_minus_1, minus_one.data());

    const BigUint two(2);
    const BigUint n_minus_3 = n - BigUint(3);
    for (int round = 0; round < rounds; ++round) {
        const BigUint a = random_below(n_minus_3, rng) + two;  // a in [2, n-2]
        mont.to_mont(a, a_mont.data());
        mont.pow(a_mont.data(), d, x.data());
        if (x == one || x == minus_one) continue;
        bool witness = true;
        for (std::size_t i = 1; i < s; ++i) {
            mont.mul(x.data(), x.data(), x.data());
            if (x == minus_one) {
                witness = false;
                break;
            }
        }
        if (witness) return false;
    }
    return true;
}

BigUint BigUint::generate_prime(std::size_t bits, support::Rng& rng,
                                int mr_rounds) {
    if (bits < 8)
        throw std::invalid_argument("generate_prime: need >= 8 bits");
    for (;;) {
        BigUint candidate = random_bits(bits, rng);
        // Force odd.
        candidate.limbs_[0] |= 1U;
        if (is_probable_prime(candidate, mr_rounds, rng)) return candidate;
    }
}

}  // namespace fairbfl::crypto
