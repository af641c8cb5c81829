#pragma once
// Stateless model interface.
//
// Parameters live *outside* the model in a flat float vector -- exactly the
// object that travels through the BFL pipeline as "the gradient w" (the
// paper, like FedAvg, exchanges updated weight vectors).  A single Model
// instance is therefore safely shared by all simulated clients; each client
// only owns its parameter vector.

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "ml/dataset.hpp"
#include "ml/train_workspace.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace fairbfl::ml {

class Model {
public:
    virtual ~Model() = default;

    [[nodiscard]] virtual std::string name() const = 0;
    [[nodiscard]] virtual std::size_t param_count() const = 0;

    /// Writes an initial parameter vector (deterministic given rng).
    virtual void init_params(std::span<float> params,
                             support::Rng& rng) const = 0;

    /// Mean loss over `batch` and *accumulated* gradient d(mean loss)/d(params)
    /// added into `grad` (callers zero it first).  Sizes must equal
    /// param_count().
    virtual double loss_and_gradient(std::span<const float> params,
                                     const DatasetView& batch,
                                     std::span<float> grad) const = 0;

    /// Workspace-reusing variant of loss_and_gradient: identical math and
    /// accumulation order, but per-call scratch (logits, activations)
    /// comes from `ws` instead of fresh heap allocations.  The base
    /// implementation forwards to the allocating overload so external
    /// models keep working; the built-in models override it.
    virtual double loss_and_gradient(std::span<const float> params,
                                     const DatasetView& batch,
                                     TrainWorkspace& ws,
                                     std::span<float> grad) const;

    /// Batched kernel: mean loss and accumulated gradient over the samples
    /// at packed positions `rows` of `data` (in that order), using `ws`
    /// for scratch.  Contract: bit-identical to calling the per-sample
    /// loss_and_gradient on the same samples in the same order -- batched
    /// implementations must preserve per-sample accumulation order inside
    /// their kernels (see support::gemv_rows / outer_accumulate_rows).  The
    /// base implementation gathers the rows back into a DatasetView and
    /// runs the reference path; built-in models override with blocked
    /// kernels.
    virtual double loss_and_gradient_batch(std::span<const float> params,
                                           const PackedBatch& data,
                                           std::span<const std::size_t> rows,
                                           TrainWorkspace& ws,
                                           std::span<float> grad) const;

    /// Mean loss only (no gradient).
    [[nodiscard]] virtual double loss(std::span<const float> params,
                                      const DatasetView& batch) const = 0;

    /// argmax-class prediction for one sample.
    [[nodiscard]] virtual std::int32_t predict(
        std::span<const float> params, std::span<const float> features) const = 0;

    /// Samples per evaluation task in accuracy(): a fixed size, so the
    /// chunking never depends on the pool's thread count.
    static constexpr std::size_t kAccuracyChunk = 64;

    /// Fraction of `view` classified correctly.  Fixed chunks of
    /// kAccuracyChunk samples fan out over `pool`; each counts its correct
    /// predictions and the integer counts are summed, so the result is
    /// exact -- the serial per-sample count -- at any thread count.
    /// predict() must therefore be safe to call concurrently (the built-in
    /// models are stateless).
    [[nodiscard]] double accuracy(
        std::span<const float> params, const DatasetView& view,
        support::ThreadPool& pool = support::ThreadPool::global()) const;
};

/// Multinomial logistic regression: W (classes x dim) + b (classes).
/// Convex -- this is the model under which Theorem 3.1's strong-convexity
/// assumptions actually hold (with L2 regularization).
[[nodiscard]] std::unique_ptr<Model> make_logistic_regression(
    std::size_t feature_dim, std::size_t num_classes, double l2 = 1e-4);

/// One-hidden-layer ReLU MLP: W1 (hidden x dim) + b1 + W2 (classes x hidden)
/// + b2.  Non-convex; used to show FAIR-BFL's dynamics beyond the theory.
[[nodiscard]] std::unique_ptr<Model> make_mlp(std::size_t feature_dim,
                                              std::size_t hidden,
                                              std::size_t num_classes,
                                              double l2 = 1e-4);

}  // namespace fairbfl::ml
