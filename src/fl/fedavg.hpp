#pragma once
// FedAvg (McMahan et al., AISTATS'17): the centralized-FL baseline of the
// paper's evaluation and the learning loop FAIR-BFL builds on.

#include <cstdint>
#include <vector>

#include "fl/client.hpp"
#include "fl/local_trainer.hpp"
#include "fl/sampling.hpp"
#include "ml/model.hpp"
#include "support/parallel.hpp"

namespace fairbfl::fl {

struct FlConfig {
    double client_ratio = 0.1;  ///< lambda: fraction of clients per round
    std::size_t rounds = 100;
    ml::SgdParams sgd;          ///< eta=0.01, E=5, B=10 paper defaults
    std::uint64_t seed = 42;
};

/// One communication round's outcome.
struct RoundRecord {
    std::uint64_t round = 0;
    double test_accuracy = 0.0;
    double mean_local_loss = 0.0;
    std::size_t participants = 0;   ///< updates that reached aggregation
    std::size_t selected = 0;       ///< clients selected at line 3
    /// Ids of the clients whose updates reached aggregation (the delay
    /// model needs their shard sizes to price T_local).
    std::vector<std::size_t> participant_ids;
};

/// Runs the selected clients' local updates in parallel and returns their
/// gradient updates in selection order.  Convenience wrapper over a
/// transient fl::LocalTrainer; systems that run many rounds (FedAvg,
/// FedProx, the BFL cores) own a persistent trainer instead so the
/// per-client pack/workspace caches survive across rounds.
[[nodiscard]] std::vector<GradientUpdate> run_local_updates(
    const std::vector<Client>& clients,
    const std::vector<std::size_t>& selected,
    std::span<const float> global_weights, const ml::SgdParams& sgd,
    std::uint64_t round, std::uint64_t seed);

class FedAvg {
public:
    FedAvg(const ml::Model& model, std::vector<Client> clients,
           ml::DatasetView test_set, FlConfig config);

    /// Executes one communication round and returns its record.
    RoundRecord run_round();

    /// Executes `rounds` (config default when 0) and returns the history.
    std::vector<RoundRecord> run(std::size_t rounds = 0);

    [[nodiscard]] std::span<const float> weights() const noexcept {
        return weights_;
    }
    [[nodiscard]] std::uint64_t current_round() const noexcept {
        return round_;
    }
    [[nodiscard]] const FlConfig& config() const noexcept { return config_; }
    [[nodiscard]] const std::vector<Client>& clients() const noexcept {
        return clients_;
    }

private:
    const ml::Model* model_;
    std::vector<Client> clients_;
    ml::DatasetView test_set_;
    FlConfig config_;
    LocalTrainer trainer_;
    std::vector<float> weights_;
    std::uint64_t round_ = 0;
};

}  // namespace fairbfl::fl
