// Engineering micro-benchmarks: SHA-256 throughput, BigUint modexp, RSA
// keygen/sign/verify/decrypt across key sizes, and KeyStore registration.

#include <benchmark/benchmark.h>

#include <array>

#include "crypto/keystore.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

namespace {

using namespace fairbfl;

void BM_Sha256Throughput(benchmark::State& state) {
    const std::vector<std::uint8_t> data(
        static_cast<std::size_t>(state.range(0)), 0xAB);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::hash(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
// 31400 bytes: a gradient transaction's 7850-float payload.
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(1024)->Arg(31400)->Arg(65536);

// The block compressor alone over 490 blocks (the whole blocks of that
// 31400-byte payload): the portable round loop vs the compressor Sha256
// dispatches to (SHA-NI where CPUID reports it).
void BM_Sha256Blocks(benchmark::State& state,
                     support::simd::Sha256Blocks compress) {
    constexpr std::size_t kBlocks = 490;
    const std::vector<std::uint8_t> data(kBlocks * 64, 0xAB);
    std::array<std::uint32_t, 8> words{};
    for (auto _ : state) {
        compress(words.data(), data.data(), kBlocks);
        benchmark::DoNotOptimize(words);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(data.size()));
}
BENCHMARK_CAPTURE(BM_Sha256Blocks, portable,
                  crypto::detail::portable_sha256_blocks());
BENCHMARK_CAPTURE(BM_Sha256Blocks, dispatched,
                  crypto::detail::sha256_blocks());

void BM_BigUintMul(benchmark::State& state) {
    support::Rng rng(1);
    const auto a = crypto::BigUint::random_bits(
        static_cast<std::size_t>(state.range(0)), rng);
    const auto b = crypto::BigUint::random_bits(
        static_cast<std::size_t>(state.range(0)), rng);
    for (auto _ : state) benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_BigUintMul)->Arg(256)->Arg(512)->Arg(1024);

void BM_BigUintModPow(benchmark::State& state) {
    support::Rng rng(2);
    const auto bits = static_cast<std::size_t>(state.range(0));
    auto modulus = crypto::BigUint::random_bits(bits, rng);
    if (!modulus.is_odd()) modulus = modulus + crypto::BigUint(1);
    const auto base = crypto::BigUint::random_bits(bits - 1, rng);
    const auto exponent = crypto::BigUint::random_bits(bits - 1, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            crypto::BigUint::mod_pow(base, exponent, modulus));
}
BENCHMARK(BM_BigUintModPow)->Arg(256)->Arg(512)->Arg(1024);

// e = 65537 over a full-width base: the public-key shape of verify and of
// the hybrid key wrap (17 squarings and one multiply, no window table).
void BM_BigUintModPowPublic(benchmark::State& state) {
    support::Rng rng(6);
    const auto bits = static_cast<std::size_t>(state.range(0));
    auto modulus = crypto::BigUint::random_bits(bits, rng);
    if (!modulus.is_odd()) modulus = modulus + crypto::BigUint(1);
    const auto base = crypto::BigUint::random_bits(bits - 1, rng);
    const crypto::BigUint exponent(65537);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            crypto::BigUint::mod_pow(base, exponent, modulus));
}
BENCHMARK(BM_BigUintModPowPublic)->Arg(1024)->Arg(2048);

void BM_RsaKeygen(benchmark::State& state) {
    std::uint64_t seed = 0;
    for (auto _ : state) {
        support::Rng rng(seed++);
        benchmark::DoNotOptimize(crypto::generate_keypair(
            static_cast<std::size_t>(state.range(0)), rng));
    }
}
BENCHMARK(BM_RsaKeygen)
    ->Arg(384)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// secure_upload's set-up: five nodes' key pairs, fanned out over the
// global pool.  A fresh store per iteration, so every pair is generated.
void BM_KeyStoreRegister(benchmark::State& state) {
    const std::vector<crypto::NodeId> ids{0, 1, 2, 3, 4};
    std::uint64_t seed = 0;
    for (auto _ : state) {
        crypto::KeyStore keys(seed++,
                              static_cast<std::size_t>(state.range(0)));
        keys.register_nodes(ids);
        benchmark::DoNotOptimize(keys.size());
    }
}
BENCHMARK(BM_KeyStoreRegister)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_RsaSign(benchmark::State& state) {
    support::Rng rng(3);
    const auto keys = crypto::generate_keypair(
        static_cast<std::size_t>(state.range(0)), rng);
    const std::vector<std::uint8_t> payload(2600, 0x42);  // ~a gradient tx
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::sign_payload(keys.priv, payload));
}
BENCHMARK(BM_RsaSign)->Arg(384)->Arg(512)->Arg(1024)->Arg(2048);

void BM_RsaVerify(benchmark::State& state) {
    support::Rng rng(4);
    const auto keys = crypto::generate_keypair(
        static_cast<std::size_t>(state.range(0)), rng);
    const std::vector<std::uint8_t> payload(2600, 0x42);
    const auto signature = crypto::sign_payload(keys.priv, payload);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            crypto::verify_payload(keys.pub, payload, signature));
}
BENCHMARK(BM_RsaVerify)->Arg(384)->Arg(512)->Arg(1024)->Arg(2048);

void BM_RsaDecrypt(benchmark::State& state) {
    support::Rng rng(5);
    const auto keys = crypto::generate_keypair(
        static_cast<std::size_t>(state.range(0)), rng);
    const std::vector<std::uint8_t> session_key(24, 0x5A);  // hybrid key+nonce
    const auto ciphertext = crypto::encrypt(keys.pub, session_key);
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::decrypt(keys.priv, ciphertext));
}
BENCHMARK(BM_RsaDecrypt)->Arg(384)->Arg(512)->Arg(1024)->Arg(2048);

}  // namespace
