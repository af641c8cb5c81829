#include "core/vanilla_bfl.hpp"

#include <algorithm>

#include "fl/aggregation.hpp"
#include "fl/sampling.hpp"

namespace fairbfl::core {

VanillaBfl::VanillaBfl(const ml::Model& model, std::vector<fl::Client> clients,
                       ml::DatasetView test_set, VanillaBflConfig config)
    : model_(&model),
      clients_(std::move(clients)),
      test_set_(std::move(test_set)),
      config_(config),
      keys_(config.fl.seed, config.key_bits),
      chain_(config.chain_id, config.key_bits != 0 ? &keys_ : nullptr),
      mempool_(config.delay.max_block_bytes),
      weights_(model.param_count(), 0.0F) {
    chain_.set_check_pow(false);
    std::vector<crypto::NodeId> nodes;
    for (const auto& client : clients_) nodes.push_back(client.id());
    keys_.register_nodes(nodes);
    auto rng = support::Rng::fork(config_.fl.seed, /*stream=*/0x1417);
    model_->init_params(weights_, rng);
}

std::vector<float> VanillaBfl::compute_global_from_chain(
    std::uint64_t round, std::size_t* txs_found) const {
    std::vector<fl::GradientUpdate> from_chain;
    for (std::size_t h = 1; h < chain_.height(); ++h) {
        for (const auto& tx : chain_.at(h).transactions) {
            if (tx.kind != chain::TxKind::kLocalGradient) continue;
            if (tx.round != round) continue;
            fl::GradientUpdate update;
            update.client = tx.origin;
            update.round = round;
            update.weights = chain::parse_gradient_tx(tx);
            from_chain.push_back(std::move(update));
        }
    }
    if (txs_found != nullptr) *txs_found = from_chain.size();
    if (from_chain.empty()) return weights_;
    return fl::simple_average(from_chain);
}

VanillaRoundRecord VanillaBfl::run_round() {
    const std::uint64_t round = round_++;
    VanillaRoundRecord record;
    record.fl.round = round;

    auto up_rng = support::Rng::fork(config_.fl.seed, /*stream=*/0x755, round);
    auto bl_rng = support::Rng::fork(config_.fl.seed, /*stream=*/0x7B1, round);
    const DelayModel delays(config_.delay);

    // Clients read the latest global state from the chain and train.
    const auto selected = fl::sample_clients(
        clients_.size(), config_.fl.client_ratio, round, config_.fl.seed);
    record.fl.selected = selected.size();
    auto updates = trainer_.run(clients_, selected, weights_,
                                config_.fl.sgd, round, config_.fl.seed);
    std::vector<std::size_t> steps;
    steps.reserve(selected.size());
    for (const std::size_t id : selected)
        steps.push_back(
            batch_steps(clients_[id].num_samples(), config_.fl.sgd));
    record.delay.t_local = delays.t_local(selected, steps, config_.fl.seed);

    const AttackReport attack = apply_attack(updates, weights_, config_.attack,
                                             round, config_.fl.seed);
    record.attacker_clients = attack.attacker_clients;

    // Every local gradient becomes a mempool transaction.
    const std::size_t payload =
        updates.empty() ? 0 : updates[0].payload_bytes();
    for (const auto& update : updates) {
        chain::Transaction tx = chain::make_gradient_tx(
            chain::TxKind::kLocalGradient, update.client, round,
            update.weights);
        chain::sign_transaction(tx, keys_);
        mempool_.add(std::move(tx));
        record.fl.participant_ids.push_back(update.client);
    }
    record.fl.participants = updates.size();
    record.delay.t_up =
        delays.t_up(updates.size(), payload, up_rng) +
        config_.delay.seconds_per_tx_validation *
            static_cast<double>(updates.size());

    // Miners race asynchronously until the round's backlog is on-chain.
    const std::size_t blocks = mempool_.blocks_to_drain();
    record.blocks_this_round = blocks;
    record.delay.t_bl = delays.t_bl_vanilla(
        config_.miners, blocks, config_.delay.max_block_bytes, bl_rng,
        &record.forks_this_round);
    for (std::size_t b = 0; b < blocks; ++b) {
        chain::Block block;
        block.header.index = chain_.tip().header.index + 1;
        block.header.prev_hash = chain_.tip().header.hash();
        block.header.difficulty = config_.delay.difficulty;
        block.header.timestamp_ms = round * 1000 + b;
        block.transactions = mempool_.pack_block();
        block.seal_transactions();
        (void)chain_.submit(block);
    }

    // Workers read the chain and compute the global update themselves
    // (simple average -- vanilla BFL has no contribution weighting).
    weights_ = compute_global_from_chain(round,
                                         &record.gradient_txs_on_chain);
    record.delay.t_gl =
        delays.t_gl(record.gradient_txs_on_chain, /*clustered_points=*/0);

    record.fl.test_accuracy = model_->accuracy(weights_, test_set_);
    double loss_sum = 0.0;
    for (const auto& u : updates) loss_sum += u.local_loss;
    record.fl.mean_local_loss =
        updates.empty() ? 0.0
                        : loss_sum / static_cast<double>(updates.size());
    return record;
}

std::vector<VanillaRoundRecord> VanillaBfl::run(std::size_t rounds) {
    if (rounds == 0) rounds = config_.fl.rounds;
    std::vector<VanillaRoundRecord> history;
    history.reserve(rounds);
    for (std::size_t r = 0; r < rounds; ++r) history.push_back(run_round());
    return history;
}

}  // namespace fairbfl::core
