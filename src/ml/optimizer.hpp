#pragma once
// Local solvers: plain SGD (Eq. 3) and FedProx's proximal SGD.
//
// Also provides the decreasing step-size schedule eta_r = 2 / (mu (gamma+r))
// used by Theorem 3.1's convergence proof, so tests can validate the bound
// under the exact schedule it assumes.

#include <cstdint>
#include <span>

#include "ml/dataset.hpp"
#include "ml/model.hpp"
#include "support/rng.hpp"

namespace fairbfl::ml {

struct SgdParams {
    double learning_rate = 0.01;  ///< eta
    std::size_t epochs = 5;       ///< E
    std::size_t batch_size = 10;  ///< B
    /// FedProx proximal coefficient mu_prox (0 disables the proximal term).
    double prox_mu = 0.0;
};

struct SgdResult {
    double final_loss = 0.0;       ///< mean loss of the last epoch
    std::size_t steps_taken = 0;   ///< number of mini-batch updates
};

/// Runs E epochs of mini-batch SGD on `params` over `shard`
/// (Algorithm 1 lines 8-11).  When sgd.prox_mu > 0 the update includes the
/// FedProx proximal pull toward `anchor` (the round's global weights):
///     w <- w - eta (grad + mu_prox (w - anchor)).
/// `anchor` must alias nothing and equal param_count in size (ignored when
/// prox_mu == 0; may be empty in that case).
SgdResult sgd_train(const Model& model, std::span<float> params,
                    const DatasetView& shard, const SgdParams& sgd,
                    support::Rng& rng,
                    std::span<const float> anchor = {});

/// Workspace-reusing reference path: identical math and rng consumption,
/// but `order` / `grad` / model scratch come from `ws` instead of per-call
/// allocations.  (The parameterless overload above wraps this with a
/// transient workspace.)
SgdResult sgd_train(const Model& model, std::span<float> params,
                    const DatasetView& shard, const SgdParams& sgd,
                    support::Rng& rng, TrainWorkspace& ws,
                    std::span<const float> anchor = {});

/// Batched engine: the same SGD over a shard gathered once into a
/// PackedBatch, driving Model::loss_and_gradient_batch.  Epoch shuffles
/// permute packed *positions* with the same Fisher-Yates draws the
/// reference path applies to parent indices, and mini-batches are the same
/// consecutive slices, so the visited sample sequence -- and therefore
/// every weight update -- is bit-identical to the reference overloads.
SgdResult sgd_train(const Model& model, std::span<float> params,
                    const PackedBatch& shard, const SgdParams& sgd,
                    support::Rng& rng, TrainWorkspace& ws,
                    std::span<const float> anchor = {});

/// Theorem 3.1 schedule: eta_r = 2 / (mu (gamma + r)), gamma = max(8 L/mu, E).
struct DecreasingStepSchedule {
    double mu = 1.0;     ///< strong-convexity constant
    double L = 4.0;      ///< smoothness constant
    std::size_t E = 5;   ///< local epochs

    [[nodiscard]] double gamma() const noexcept;
    [[nodiscard]] double rate_at(std::size_t round) const noexcept;
};

}  // namespace fairbfl::ml
