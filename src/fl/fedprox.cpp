#include "fl/fedprox.hpp"

#include <algorithm>
#include <cmath>

#include "fl/aggregation.hpp"

namespace fairbfl::fl {

FedProx::FedProx(const ml::Model& model, std::vector<Client> clients,
                 ml::DatasetView test_set, FedProxConfig config)
    : model_(&model),
      clients_(std::move(clients)),
      test_set_(std::move(test_set)),
      config_(config),
      weights_(model.param_count(), 0.0F) {
    config_.base.sgd.prox_mu = config_.prox_mu;
    auto rng = support::Rng::fork(config_.base.seed, /*stream=*/0x1417);
    model_->init_params(weights_, rng);
}

RoundRecord FedProx::run_round() {
    const std::uint64_t round = round_++;
    const FlConfig& base = config_.base;
    auto selected = sample_clients(clients_.size(), base.client_ratio, round,
                                   base.seed);
    const std::size_t selected_count = selected.size();

    // Straggler designation (stream 0xD07 keeps it independent of client
    // sampling and training noise).
    auto straggle_rng = support::Rng::fork(base.seed, /*stream=*/0xD07, round);
    std::vector<std::size_t> full_work;
    std::vector<std::size_t> stragglers;
    for (const std::size_t id : selected) {
        if (straggle_rng.bernoulli(config_.drop_percent))
            stragglers.push_back(id);
        else
            full_work.push_back(id);
    }
    if (full_work.empty() && !stragglers.empty()) {
        // Never lose the whole round: the least unlucky straggler works.
        full_work.push_back(stragglers.back());
        stragglers.pop_back();
    }

    auto updates = trainer_.run(clients_, full_work, weights_, base.sgd,
                                round, base.seed);
    if (config_.keep_partial_work && !stragglers.empty()) {
        ml::SgdParams partial = base.sgd;
        partial.epochs = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::floor(config_.straggler_epoch_fraction *
                              static_cast<double>(base.sgd.epochs))));
        auto partial_updates = trainer_.run(clients_, stragglers, weights_,
                                            partial, round, base.seed);
        updates.insert(updates.end(),
                       std::make_move_iterator(partial_updates.begin()),
                       std::make_move_iterator(partial_updates.end()));
    } else {
        total_dropped_ += stragglers.size();
    }

    weights_ = simple_average(updates);

    RoundRecord record;
    record.round = round;
    record.selected = selected_count;
    record.participants = updates.size();
    for (const auto& u : updates)
        record.participant_ids.push_back(u.client);
    record.test_accuracy = model_->accuracy(weights_, test_set_);
    double loss_sum = 0.0;
    for (const auto& u : updates) loss_sum += u.local_loss;
    record.mean_local_loss =
        updates.empty() ? 0.0
                        : loss_sum / static_cast<double>(updates.size());
    return record;
}

std::vector<RoundRecord> FedProx::run(std::size_t rounds) {
    if (rounds == 0) rounds = config_.base.rounds;
    std::vector<RoundRecord> history;
    history.reserve(rounds);
    for (std::size_t r = 0; r < rounds; ++r) history.push_back(run_round());
    return history;
}

}  // namespace fairbfl::fl
