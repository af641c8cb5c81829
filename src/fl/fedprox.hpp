#pragma once
// FedProx (Li et al., MLSys'20): the centralized-FL loop of the paper's
// evaluation.  With prox_mu = 0 and drop_percent = 0 it is FedAvg
// (McMahan et al., AISTATS'17) exactly -- same client sampling, same
// training kernels, same simple average -- so the "fedavg" system is this
// loop at those settings.  FlConfig and RoundRecord, the round settings
// and outcome that FAIR-BFL's learning loop shares, live here too.
//
// Two FedProx mechanisms matter for the comparison:
//  * the proximal term mu/2 ||w - w_r||^2 in every local objective (an
//    "inexact solution to speed up convergence" -- the paper credits this
//    for FedProx's accuracy fluctuation after convergence);
//  * straggler handling via drop_percent.  Section 5.3 of the paper runs
//    "FedProx-Drop(0.02)": each selected client straggles with probability
//    drop_percent and is *discarded* from aggregation.  The original
//    FedProx instead keeps stragglers' partial work; both behaviours are
//    implemented (set keep_partial_work).

#include <cstdint>
#include <vector>

#include "fl/client.hpp"
#include "fl/local_trainer.hpp"
#include "fl/sampling.hpp"
#include "ml/model.hpp"

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

struct FedProxConfig {
    FlConfig base;
    double prox_mu = 0.01;          ///< proximal coefficient
    double drop_percent = 0.0;      ///< straggler probability per client
    bool keep_partial_work = false; ///< true = original FedProx behaviour
    /// Stragglers that are kept run this fraction of the local epochs.
    double straggler_epoch_fraction = 0.2;
};

class FedProx {
public:
    FedProx(const ml::Model& model, std::vector<Client> clients,
            ml::DatasetView test_set, FedProxConfig config);

    RoundRecord run_round();
    std::vector<RoundRecord> run(std::size_t rounds = 0);

    [[nodiscard]] std::span<const float> weights() const noexcept {
        return weights_;
    }
    [[nodiscard]] std::uint64_t current_round() const noexcept {
        return round_;
    }
    [[nodiscard]] const FedProxConfig& config() const noexcept {
        return config_;
    }
    /// Clients dropped as stragglers so far.
    [[nodiscard]] std::size_t total_dropped() const noexcept {
        return total_dropped_;
    }

private:
    const ml::Model* model_;
    std::vector<Client> clients_;
    ml::DatasetView test_set_;
    FedProxConfig config_;
    LocalTrainer trainer_;
    std::vector<float> weights_;
    std::uint64_t round_ = 0;
    std::size_t total_dropped_ = 0;
};

}  // namespace fairbfl::fl
