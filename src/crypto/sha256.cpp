#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace fairbfl::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
    return std::rotr(x, n);
}

void portable_blocks(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks) {
    for (; blocks > 0; --blocks, data += 64) {
        std::array<std::uint32_t, 64> w;
        for (std::size_t i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
                   (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
                   (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
                   static_cast<std::uint32_t>(data[4 * i + 3]);
        }
        for (std::size_t i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                      e = state[4], f = state[5], g = state[6], h = state[7];
        for (std::size_t i = 0; i < 64; ++i) {
            const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 =
                h + s1 + ch + kRoundConstants[i] + w[i];
            const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

}  // namespace

namespace detail {

support::simd::Sha256Blocks portable_sha256_blocks() noexcept {
    return portable_blocks;
}

support::simd::Sha256Blocks sha256_blocks() noexcept {
    // Decided once per process, on first use.
    static const support::simd::Sha256Blocks chosen = [] {
        const support::simd::Sha256Blocks sha_ni =
            support::simd::detail::sha_ni_sha256_blocks();
        return sha_ni != nullptr && support::simd::cpu_supports_sha()
                   ? sha_ni
                   : portable_blocks;
    }();
    return chosen;
}

}  // namespace detail

void Sha256::reset() noexcept {
    state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    buffer_len_ = 0;
    total_bits_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
    // An empty span may carry a null pointer, which memcpy must not see.
    if (data.empty()) return;
    total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
    const std::uint8_t* in = data.data();
    std::size_t left = data.size();
    const support::simd::Sha256Blocks compress = detail::sha256_blocks();
    if (buffer_len_ > 0) {
        const std::size_t take = std::min(left, 64 - buffer_len_);
        std::memcpy(buffer_.data() + buffer_len_, in, take);
        buffer_len_ += take;
        in += take;
        left -= take;
        if (buffer_len_ < 64) return;
        compress(state_.data(), buffer_.data(), 1);
        buffer_len_ = 0;
    }
    // Every whole block of the input in one call.
    if (left >= 64) {
        compress(state_.data(), in, left / 64);
        in += left - left % 64;
        left %= 64;
    }
    if (left > 0) {
        std::memcpy(buffer_.data(), in, left);
        buffer_len_ = left;
    }
}

void Sha256::update(std::string_view text) noexcept {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Digest Sha256::finish() noexcept {
    // Padding: the buffered bytes, 0x80, zeros, then the 64-bit big-endian
    // bit count, filling one block when the count fits after the 0x80
    // (at most 55 bytes buffered) and two otherwise, compressed at once.
    std::array<std::uint8_t, 128> tail{};
    std::memcpy(tail.data(), buffer_.data(), buffer_len_);
    tail[buffer_len_] = 0x80;
    const std::size_t blocks = buffer_len_ < 56 ? 1 : 2;
    std::uint8_t* length = tail.data() + 64 * blocks - 8;
    for (int i = 0; i < 8; ++i)
        length[i] = static_cast<std::uint8_t>(total_bits_ >> (56 - 8 * i));
    detail::sha256_blocks()(state_.data(), tail.data(), blocks);

    Digest digest{};
    for (std::size_t i = 0; i < 8; ++i) {
        digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
        digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return digest;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
    Sha256 hasher;
    hasher.update(data);
    return hasher.finish();
}

Digest Sha256::hash(std::string_view text) noexcept {
    Sha256 hasher;
    hasher.update(text);
    return hasher.finish();
}

std::string to_hex(const Digest& digest) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (const std::uint8_t byte : digest) {
        out += kHex[byte >> 4];
        out += kHex[byte & 0xF];
    }
    return out;
}

std::uint64_t leading64(const Digest& digest) noexcept {
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value = (value << 8) | digest[static_cast<std::size_t>(i)];
    return value;
}

int leading_zero_bits(const Digest& digest) noexcept {
    int zeros = 0;
    for (const std::uint8_t byte : digest) {
        if (byte == 0) {
            zeros += 8;
            continue;
        }
        zeros += std::countl_zero(byte);
        break;
    }
    return zeros;
}

}  // namespace fairbfl::crypto
