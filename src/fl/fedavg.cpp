#include "fl/fedavg.hpp"

#include "fl/aggregation.hpp"

namespace fairbfl::fl {

std::vector<GradientUpdate> run_local_updates(
    const std::vector<Client>& clients,
    const std::vector<std::size_t>& selected,
    std::span<const float> global_weights, const ml::SgdParams& sgd,
    std::uint64_t round, std::uint64_t seed) {
    LocalTrainer trainer;
    return trainer.run(clients, selected, global_weights, sgd, round, seed);
}

FedAvg::FedAvg(const ml::Model& model, std::vector<Client> clients,
               ml::DatasetView test_set, FlConfig config)
    : model_(&model),
      clients_(std::move(clients)),
      test_set_(std::move(test_set)),
      config_(config),
      weights_(model.param_count(), 0.0F) {
    auto rng = support::Rng::fork(config_.seed, /*stream=*/0x1417);
    model_->init_params(weights_, rng);
}

RoundRecord FedAvg::run_round() {
    const std::uint64_t round = round_++;
    const auto selected = sample_clients(clients_.size(),
                                         config_.client_ratio, round,
                                         config_.seed);
    const auto updates = trainer_.run(clients_, selected, weights_,
                                      config_.sgd, round, config_.seed);
    weights_ = simple_average(updates);

    RoundRecord record;
    record.round = round;
    record.selected = selected.size();
    record.participants = updates.size();
    record.participant_ids = selected;
    record.test_accuracy = model_->accuracy(weights_, test_set_);
    double loss_sum = 0.0;
    for (const auto& u : updates) loss_sum += u.local_loss;
    record.mean_local_loss =
        updates.empty() ? 0.0
                        : loss_sum / static_cast<double>(updates.size());
    return record;
}

std::vector<RoundRecord> FedAvg::run(std::size_t rounds) {
    if (rounds == 0) rounds = config_.rounds;
    std::vector<RoundRecord> history;
    history.reserve(rounds);
    for (std::size_t r = 0; r < rounds; ++r) history.push_back(run_round());
    return history;
}

}  // namespace fairbfl::fl
