#pragma once
// Pure-blockchain baseline: FAIR-BFL with Procedures I and IV removed
// (Figure 3's purple rectangle).  Workers submit opaque payload
// transactions; miners compete asynchronously with forks, empty-block
// waste, and block-size-limited queuing, priced by
// DelayModel::t_bl_vanilla.  This is the "Blockchain" curve of Figures 4a,
// 6a and 6b.

#include <cstdint>
#include <vector>

#include "chain/chain.hpp"
#include "chain/mempool.hpp"
#include "core/delay_model.hpp"
#include "crypto/keystore.hpp"

namespace fairbfl::core {

struct BlockchainBaselineConfig {
    std::size_t workers = 100;          ///< n transaction-producing nodes
    std::size_t miners = 2;             ///< m
    std::size_t tx_payload_bytes = 1000;///< per-worker transaction size
    std::size_t rounds = 100;
    DelayParams delay;
    std::size_t key_bits = 0;           ///< 0 disables RSA signing
    std::uint64_t seed = 42;
    std::uint64_t chain_id = 0xB10C;
};

struct BlockchainRoundRecord {
    std::uint64_t round = 0;
    RoundDelay delay;               ///< only t_up and t_bl are non-zero
    std::size_t transactions = 0;
    std::size_t blocks_mined = 0;
    std::size_t forks = 0;
    double fork_merge_seconds = 0.0;
    std::size_t mempool_backlog = 0; ///< txs still queued after the round
};

class BlockchainBaseline {
public:
    explicit BlockchainBaseline(BlockchainBaselineConfig config);

    /// One "round": every worker submits one transaction; miners mine until
    /// the backlog drains (the queuing cost of §5.2.3).
    BlockchainRoundRecord run_round();
    std::vector<BlockchainRoundRecord> run(std::size_t rounds = 0);

    [[nodiscard]] const chain::Blockchain& blockchain() const noexcept {
        return chain_;
    }
    [[nodiscard]] const BlockchainBaselineConfig& config() const noexcept {
        return config_;
    }

private:
    BlockchainBaselineConfig config_;
    crypto::KeyStore keys_;
    chain::Blockchain chain_;
    chain::Mempool mempool_;
    std::uint64_t round_ = 0;
};

}  // namespace fairbfl::core
