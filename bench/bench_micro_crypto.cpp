// Engineering micro-benchmarks: SHA-256 throughput, BigUint modexp, RSA
// keygen/sign/verify/decrypt across key sizes.

#include <benchmark/benchmark.h>

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
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(1024)->Arg(65536);

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
BENCHMARK(BM_RsaDecrypt)->Arg(512)->Arg(1024)->Arg(2048);

}  // namespace
