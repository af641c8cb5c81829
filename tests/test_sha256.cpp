// SHA-256 against FIPS 180-4 / NIST test vectors, plus incremental hashing,
// and the parity harness for the block compressors: the portable round
// loop, the SHA-NI body and the dispatched Sha256 must agree byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.hpp"
#include "support/simd.hpp"

namespace {

using fairbfl::crypto::Digest;
using fairbfl::crypto::Sha256;
using fairbfl::crypto::to_hex;
using fairbfl::support::simd::Sha256Blocks;
namespace crypto_detail = fairbfl::crypto::detail;
namespace simd = fairbfl::support::simd;

TEST(Sha256, EmptyString) {
    EXPECT_EQ(to_hex(Sha256::hash(std::string_view{})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(to_hex(Sha256::hash("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(to_hex(Sha256::hash(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
    Sha256 hasher;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) hasher.update(chunk);
    EXPECT_EQ(to_hex(hasher.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
    // Split the same message at awkward boundaries.
    const std::string msg =
        "The quick brown fox jumps over the lazy dog, repeatedly and "
        "at block boundaries 0123456789012345678901234567890123456789";
    const Digest whole = Sha256::hash(msg);
    for (const std::size_t split : {1UL, 55UL, 56UL, 63UL, 64UL, 65UL}) {
        Sha256 hasher;
        hasher.update(std::string_view(msg).substr(0, split));
        hasher.update(std::string_view(msg).substr(split));
        EXPECT_EQ(hasher.finish(), whole) << "split at " << split;
    }
}

TEST(Sha256, ResetReusesHasher) {
    Sha256 hasher;
    hasher.update("garbage");
    (void)hasher.finish();
    hasher.reset();
    hasher.update("abc");
    EXPECT_EQ(to_hex(hasher.finish()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ExactBlockLengths) {
    // 55/56/64-byte messages exercise every padding branch.
    EXPECT_EQ(to_hex(Sha256::hash(std::string(55, 'x'))),
              to_hex(Sha256::hash(std::string(55, 'x'))));
    const Digest d56 = Sha256::hash(std::string(56, 'x'));
    const Digest d64 = Sha256::hash(std::string(64, 'x'));
    EXPECT_NE(to_hex(d56), to_hex(d64));
}

TEST(Sha256, Leading64BigEndian) {
    Digest digest{};
    digest[0] = 0x01;
    digest[7] = 0xFF;
    EXPECT_EQ(fairbfl::crypto::leading64(digest), 0x01000000000000FFULL);
}

TEST(Sha256, LeadingZeroBits) {
    Digest digest{};
    EXPECT_EQ(fairbfl::crypto::leading_zero_bits(digest), 256);
    digest[0] = 0x10;  // 0001 0000
    EXPECT_EQ(fairbfl::crypto::leading_zero_bits(digest), 3);
    digest[0] = 0x80;
    EXPECT_EQ(fairbfl::crypto::leading_zero_bits(digest), 0);
}

TEST(Sha256, AvalancheOnSingleBitFlip) {
    const Digest a = Sha256::hash("fairbfl");
    const Digest b = Sha256::hash("fairbfm");  // last char +1
    int differing_bits = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        unsigned x = static_cast<unsigned>(a[i] ^ b[i]);
        while (x != 0U) {
            differing_bits += static_cast<int>(x & 1U);
            x >>= 1U;
        }
    }
    EXPECT_GT(differing_bits, 80);  // ~128 expected
}

// --- Compressor parity ----------------------------------------------------

using Bytes = std::vector<std::uint8_t>;

constexpr std::uint32_t kInitialState[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// splitmix64: deterministic message bytes and split points.
std::uint64_t next_random(std::uint64_t& s) {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
    Bytes out(n);
    for (auto& byte : out) byte = static_cast<std::uint8_t>(next_random(seed));
    return out;
}

Bytes as_bytes(std::string_view text) { return Bytes(text.begin(), text.end()); }

/// FIPS 180-4 padding spelled out apart from Sha256::finish, then one call
/// of `compress` over every block of the padded message.
Digest reference_digest(Sha256Blocks compress, std::span<const std::uint8_t> msg) {
    Bytes padded(msg.begin(), msg.end());
    padded.push_back(0x80);
    while (padded.size() % 64 != 56) padded.push_back(0);
    const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
    for (int shift = 56; shift >= 0; shift -= 8)
        padded.push_back(static_cast<std::uint8_t>(bits >> shift));
    std::uint32_t state[8];
    std::memcpy(state, kInitialState, sizeof state);
    compress(state, padded.data(), padded.size() / 64);
    Digest digest{};
    for (std::size_t i = 0; i < 32; ++i)
        digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
    return digest;
}

/// Resets `hasher` and feeds it `msg` in random pieces (empty ones
/// included, some longer than a block), so every buffer_len_ state and
/// every run of whole blocks meets update().
Digest split_digest(Sha256& hasher, std::span<const std::uint8_t> msg,
                    std::uint64_t& rng) {
    hasher.reset();
    std::size_t offset = 0;
    while (offset < msg.size()) {
        const std::uint64_t r = next_random(rng);
        const std::size_t want = (r & 3) == 0 ? r % 4096 : r % 130;
        const std::size_t take = std::min(want, msg.size() - offset);
        hasher.update(msg.subspan(offset, take));
        offset += take;
    }
    return hasher.finish();
}

bool same_bytes(const Digest& a, const Digest& b) {
    return std::memcmp(a.data(), b.data(), a.size()) == 0;
}

/// The SHA-NI compressor when this build and CPU can run it, else nullptr.
Sha256Blocks runnable_sha_ni() {
    const Sha256Blocks sha_ni = simd::detail::sha_ni_sha256_blocks();
    return sha_ni != nullptr && simd::cpu_supports_sha() ? sha_ni : nullptr;
}

/// Every length 0..300 (each padding branch, one to six blocks), a
/// gradient transaction's 31400-byte payload, and 1 MB.
std::vector<std::size_t> parity_lengths() {
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
    lengths.push_back(31400);
    lengths.push_back(std::size_t{1} << 20);
    return lengths;
}

struct FipsVector {
    std::string message;
    const char* hex;
};

std::vector<FipsVector> fips_vectors() {
    return {
        {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
         "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
         "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
        {std::string(1000000, 'a'),
         "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
    };
}

TEST(Sha256Parity, PortableMatchesFipsVectors) {
    const Sha256Blocks portable = crypto_detail::portable_sha256_blocks();
    for (const FipsVector& v : fips_vectors()) {
        const Bytes msg = as_bytes(v.message);
        EXPECT_EQ(to_hex(reference_digest(portable, msg)), v.hex)
            << "length " << msg.size();
    }
}

TEST(Sha256Parity, ShaNiMatchesFipsVectors) {
    const Sha256Blocks sha_ni = runnable_sha_ni();
    if (sha_ni == nullptr) GTEST_SKIP() << "no SHA-NI on this build or CPU";
    for (const FipsVector& v : fips_vectors()) {
        const Bytes msg = as_bytes(v.message);
        EXPECT_EQ(to_hex(reference_digest(sha_ni, msg)), v.hex)
            << "length " << msg.size();
    }
}

TEST(Sha256Parity, ShaNiMatchesPortableOnArbitraryStates) {
    const Sha256Blocks sha_ni = runnable_sha_ni();
    if (sha_ni == nullptr) GTEST_SKIP() << "no SHA-NI on this build or CPU";
    const Sha256Blocks portable = crypto_detail::portable_sha256_blocks();
    std::uint64_t rng = 17;
    for (const std::size_t blocks : {1UL, 2UL, 3UL, 7UL, 490UL}) {
        for (int trial = 0; trial < 8; ++trial) {
            const Bytes data = random_bytes(blocks * 64, next_random(rng));
            std::uint32_t expected[8];
            for (auto& word : expected)
                word = static_cast<std::uint32_t>(next_random(rng));
            std::uint32_t actual[8];
            std::memcpy(actual, expected, sizeof actual);
            portable(expected, data.data(), blocks);
            sha_ni(actual, data.data(), blocks);
            EXPECT_EQ(std::memcmp(expected, actual, sizeof actual), 0)
                << blocks << " blocks, trial " << trial;
        }
    }
}

TEST(Sha256Parity, ShaNiMatchesPortableAtEveryLength) {
    const Sha256Blocks sha_ni = runnable_sha_ni();
    if (sha_ni == nullptr) GTEST_SKIP() << "no SHA-NI on this build or CPU";
    const Sha256Blocks portable = crypto_detail::portable_sha256_blocks();
    for (const std::size_t n : parity_lengths()) {
        const Bytes msg = random_bytes(n, n);
        EXPECT_TRUE(same_bytes(reference_digest(sha_ni, msg),
                               reference_digest(portable, msg)))
            << "length " << n;
    }
}

TEST(Sha256Parity, DispatchedMatchesPortableAtEveryLength) {
    // One hasher for every message: each split_digest() reuses it after
    // reset(), the one-shot helper uses a fresh one.
    const Sha256Blocks portable = crypto_detail::portable_sha256_blocks();
    Sha256 hasher;
    std::uint64_t rng = 42;
    for (const std::size_t n : parity_lengths()) {
        const Bytes msg = random_bytes(n, n);
        const Digest expected = reference_digest(portable, msg);
        EXPECT_TRUE(same_bytes(Sha256::hash(msg), expected)) << "length " << n;
        for (int split = 0; split < 3; ++split)
            EXPECT_TRUE(same_bytes(split_digest(hasher, msg, rng), expected))
                << "length " << n << ", split " << split;
    }
}

TEST(Sha256Parity, DispatchPicksShaNiExactlyWhenRunnable) {
    const Sha256Blocks sha_ni = runnable_sha_ni();
    EXPECT_EQ(crypto_detail::sha256_blocks(),
              sha_ni != nullptr ? sha_ni
                                : crypto_detail::portable_sha256_blocks());
}

TEST(Sha256Parity, ShaNiBuiltWhereCpuReportsSha) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (!simd::cpu_supports_sha()) GTEST_SKIP() << "CPU lacks SHA";
    // A null accessor here means the -msha -msse4.1 flags were dropped
    // from simd_sha.cpp and every hash silently runs the portable loop.
    EXPECT_NE(simd::detail::sha_ni_sha256_blocks(), nullptr);
#else
    GTEST_SKIP() << "not an x86-64 GCC/Clang build";
#endif
}

TEST(Sha256Parity, ConcurrentHashesMatchSerial) {
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 16;
    std::vector<Bytes> messages;
    for (std::size_t i = 0; i < kThreads * kPerThread; ++i)
        messages.push_back(random_bytes(31 * i + 5, 1000 + i));
    std::vector<Digest> serial;
    for (const Bytes& msg : messages) serial.push_back(Sha256::hash(msg));

    std::vector<Digest> parallel(messages.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Sha256 hasher;
            std::uint64_t rng = t;
            for (std::size_t i = t; i < messages.size(); i += kThreads)
                parallel[i] = split_digest(hasher, messages[i], rng);
        });
    }
    for (auto& thread : threads) thread.join();
    for (std::size_t i = 0; i < messages.size(); ++i)
        EXPECT_TRUE(same_bytes(parallel[i], serial[i])) << "message " << i;
}

}  // namespace
