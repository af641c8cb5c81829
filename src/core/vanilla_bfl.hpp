#pragma once
// Vanilla BFL: the design the paper improves upon (§2, §3.1), implemented
// faithfully at the data-structure level:
//
//  * every client's local gradient becomes an on-chain transaction
//    (no Assumption 2 -- block capacity forces multi-block rounds);
//  * miners mine asynchronously (no Assumption 1 -- forking and
//    empty-block waste are possible, priced by DelayModel::t_bl_vanilla);
//  * there is no miner-side aggregation: each worker reads the round's
//    local-gradient transactions back *from the chain* and computes the
//    global update itself ("workers read the block's information to
//    calculate the global updates themselves");
//  * rewards go to winning miners (per-block), not to contributors --
//    exactly the incentive mismatch FAIR-BFL's Algorithm 2 fixes.
//
// The FairBfl ablation switches (consensus "async_pow",
// record_local_gradients) emulate vanilla costs inside the FAIR pipeline
// through the same DelayModel::t_bl_vanilla; this class is the stand-alone
// protocol, useful as an end-to-end baseline and as a cross-check that the
// ablation prices the same behaviour.

#include <vector>

#include "chain/chain.hpp"
#include "chain/mempool.hpp"
#include "core/attacker.hpp"
#include "core/delay_model.hpp"
#include "fl/fedprox.hpp"
#include "fl/local_trainer.hpp"

namespace fairbfl::core {

struct VanillaBflConfig {
    fl::FlConfig fl;
    std::size_t miners = 2;
    AttackConfig attack;
    DelayParams delay;
    std::size_t key_bits = 0;
    std::uint64_t chain_id = 0x7A2B;
};

struct VanillaRoundRecord {
    fl::RoundRecord fl;
    RoundDelay delay;
    std::size_t blocks_this_round = 0;
    std::size_t forks_this_round = 0;
    std::size_t gradient_txs_on_chain = 0;  ///< this round's recorded txs
    std::vector<fl::NodeId> attacker_clients;
};

class VanillaBfl {
public:
    VanillaBfl(const ml::Model& model, std::vector<fl::Client> clients,
               ml::DatasetView test_set, VanillaBflConfig config);

    VanillaRoundRecord run_round();
    std::vector<VanillaRoundRecord> run(std::size_t rounds = 0);

    [[nodiscard]] std::span<const float> weights() const noexcept {
        return weights_;
    }
    [[nodiscard]] const chain::Blockchain& blockchain() const noexcept {
        return chain_;
    }
    [[nodiscard]] const VanillaBflConfig& config() const noexcept {
        return config_;
    }

private:
    /// Reads this round's local gradients back from the chain and averages
    /// them -- the worker-side global computation of vanilla BFL.
    [[nodiscard]] std::vector<float> compute_global_from_chain(
        std::uint64_t round, std::size_t* txs_found) const;

    const ml::Model* model_;
    std::vector<fl::Client> clients_;
    ml::DatasetView test_set_;
    VanillaBflConfig config_;
    /// Procedure-I engine (per-client pack/workspace caches).
    fl::LocalTrainer trainer_;
    crypto::KeyStore keys_;
    chain::Blockchain chain_;
    chain::Mempool mempool_;
    std::vector<float> weights_;
    std::uint64_t round_ = 0;
};

}  // namespace fairbfl::core
