// Engineering micro-benchmarks: Merkle roots, block encode/seal, real PoW
// mining, chain submission.

#include <benchmark/benchmark.h>

#include "chain/chain.hpp"
#include "chain/mempool.hpp"
#include "chain/pow.hpp"
#include "core/delay_model.hpp"

namespace {

using namespace fairbfl;
namespace ch = fairbfl::chain;

std::vector<ch::Transaction> make_txs(std::size_t count,
                                      std::size_t gradient_dim) {
    std::vector<ch::Transaction> txs;
    std::vector<float> gradient(gradient_dim, 0.5F);
    for (std::size_t i = 0; i < count; ++i) {
        gradient[0] = static_cast<float>(i);
        txs.push_back(ch::make_gradient_tx(ch::TxKind::kLocalGradient,
                                           static_cast<ch::NodeId>(i), 0,
                                           gradient));
    }
    return txs;
}

void BM_MerkleRoot(benchmark::State& state) {
    const auto txs = make_txs(static_cast<std::size_t>(state.range(0)), 64);
    std::vector<crypto::Digest> leaves;
    for (const auto& tx : txs) leaves.push_back(tx.id());
    for (auto _ : state) benchmark::DoNotOptimize(ch::merkle_root(leaves));
}
BENCHMARK(BM_MerkleRoot)->Arg(10)->Arg(100)->Arg(1000);

void BM_BlockSealAndHash(benchmark::State& state) {
    ch::Block block;
    block.transactions = make_txs(static_cast<std::size_t>(state.range(0)),
                                  650);
    for (auto _ : state) {
        block.seal_transactions();
        benchmark::DoNotOptimize(block.header.hash());
    }
}
BENCHMARK(BM_BlockSealAndHash)->Arg(1)->Arg(10)->Arg(100);

void BM_BlockEncodeDecode(benchmark::State& state) {
    ch::Block block;
    block.transactions = make_txs(static_cast<std::size_t>(state.range(0)),
                                  650);
    block.seal_transactions();
    for (auto _ : state) {
        const auto bytes = block.encode();
        ch::ByteReader reader(bytes);
        benchmark::DoNotOptimize(ch::Block::decode(reader));
    }
}
BENCHMARK(BM_BlockEncodeDecode)->Arg(10)->Arg(100);

void BM_PowMine(benchmark::State& state) {
    ch::BlockHeader header;
    header.difficulty = static_cast<std::uint64_t>(state.range(0));
    std::uint64_t salt = 0;
    for (auto _ : state) {
        header.timestamp_ms = salt++;  // fresh puzzle each iteration
        benchmark::DoNotOptimize(ch::mine(header, ~0ULL));
    }
}
BENCHMARK(BM_PowMine)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_ChainSubmit(benchmark::State& state) {
    for (auto _ : state) {
        state.PauseTiming();
        ch::Blockchain chain(1);
        chain.set_check_pow(false);
        std::vector<ch::Block> blocks;
        const ch::Block* parent = &chain.genesis();
        for (int i = 0; i < state.range(0); ++i) {
            ch::Block block;
            block.header.index = parent->header.index + 1;
            block.header.prev_hash = parent->header.hash();
            block.header.timestamp_ms = static_cast<std::uint64_t>(i);
            block.transactions = make_txs(5, 64);
            block.seal_transactions();
            blocks.push_back(block);
            parent = &blocks.back();
        }
        state.ResumeTiming();
        for (const auto& block : blocks)
            benchmark::DoNotOptimize(chain.submit(block));
    }
}
BENCHMARK(BM_ChainSubmit)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_MempoolPack(benchmark::State& state) {
    for (auto _ : state) {
        state.PauseTiming();
        ch::Mempool pool(100'000);
        pool.add_all(make_txs(static_cast<std::size_t>(state.range(0)), 650));
        state.ResumeTiming();
        while (!pool.empty()) benchmark::DoNotOptimize(pool.pack_block());
    }
}
BENCHMARK(BM_MempoolPack)->Arg(100)->Arg(500);

/// Pricing one round of block production through the delay model: the
/// synchronized race (Assumption 1) vs the forking ablation, across miner
/// counts.
void BM_ConsensusPricing(benchmark::State& state) {
    const core::DelayModel delays;
    const auto miners = static_cast<std::size_t>(state.range(0));
    fairbfl::support::Rng rng(9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(delays.t_bl_fair(miners, 4096, rng));
        benchmark::DoNotOptimize(
            delays.t_bl_vanilla(miners, /*blocks=*/1, 4096, rng));
    }
}
BENCHMARK(BM_ConsensusPricing)->Arg(2)->Arg(10);

}  // namespace
