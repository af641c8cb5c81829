#include "ml/optimizer.hpp"

#include <algorithm>
#include <numeric>

#include "support/vecmath.hpp"

namespace fairbfl::ml {

namespace {

/// Shared epilogue of one mini-batch step: proximal pull + SGD update.
inline void apply_step(std::span<float> params, std::span<float> grad,
                       const SgdParams& sgd, std::span<const float> anchor,
                       float eta) {
    if (sgd.prox_mu > 0.0 && !anchor.empty()) {
        // grad += mu_prox (w - anchor), fused to one pass.
        support::add_scaled_diff(static_cast<float>(sgd.prox_mu), params,
                                 anchor, grad);
    }
    support::axpy(-eta, grad, params);
}

}  // namespace

SgdResult sgd_train(const Model& model, std::span<float> params,
                    const DatasetView& shard, const SgdParams& sgd,
                    support::Rng& rng, std::span<const float> anchor) {
    TrainWorkspace ws;
    return sgd_train(model, params, shard, sgd, rng, ws, anchor);
}

SgdResult sgd_train(const Model& model, std::span<float> params,
                    const DatasetView& shard, const SgdParams& sgd,
                    support::Rng& rng, TrainWorkspace& ws,
                    std::span<const float> anchor) {
    SgdResult result;
    if (shard.empty()) return result;

    ws.order = shard.indices();
    const auto grad = TrainWorkspace::ensure(ws.grad, model.param_count());
    const auto eta = static_cast<float>(sgd.learning_rate);

    for (std::size_t epoch = 0; epoch < sgd.epochs; ++epoch) {
        rng.shuffle(std::span<std::size_t>(ws.order));
        DatasetView epoch_view(shard.parent(), ws.order);
        double epoch_loss = 0.0;
        std::size_t batches_seen = 0;
        for (const DatasetView& batch : epoch_view.batches(sgd.batch_size)) {
            support::fill(grad, 0.0F);
            epoch_loss += model.loss_and_gradient(params, batch, ws, grad);
            apply_step(params, grad, sgd, anchor, eta);
            ++result.steps_taken;
            ++batches_seen;
        }
        if (batches_seen > 0)
            result.final_loss = epoch_loss / static_cast<double>(batches_seen);
    }
    return result;
}

SgdResult sgd_train(const Model& model, std::span<float> params,
                    const PackedBatch& shard, const SgdParams& sgd,
                    support::Rng& rng, TrainWorkspace& ws,
                    std::span<const float> anchor) {
    SgdResult result;
    if (shard.empty()) return result;

    // Positions into the pack; the same shuffle draws permute them exactly
    // as the reference path permutes parent indices.
    ws.order.resize(shard.size());
    std::iota(ws.order.begin(), ws.order.end(), std::size_t{0});
    const auto grad = TrainWorkspace::ensure(ws.grad, model.param_count());
    const auto eta = static_cast<float>(sgd.learning_rate);
    const std::size_t batch_size = std::max<std::size_t>(sgd.batch_size, 1);

    for (std::size_t epoch = 0; epoch < sgd.epochs; ++epoch) {
        rng.shuffle(std::span<std::size_t>(ws.order));
        // Only the last epoch's mean loss survives into SgdResult, so
        // earlier epochs may skip loss-only arithmetic entirely.
        const bool last_epoch = epoch + 1 == sgd.epochs;
        ws.want_loss = last_epoch;
        double epoch_loss = 0.0;
        std::size_t batches_seen = 0;
        for (std::size_t start = 0; start < shard.size();
             start += batch_size) {
            const std::size_t len =
                std::min(batch_size, shard.size() - start);
            const std::span<const std::size_t> rows(ws.order.data() + start,
                                                    len);
            // loss_and_gradient_batch writes all of grad.
            const double batch_loss =
                model.loss_and_gradient_batch(params, shard, rows, ws, grad);
            if (last_epoch) epoch_loss += batch_loss;
            apply_step(params, grad, sgd, anchor, eta);
            ++result.steps_taken;
            ++batches_seen;
        }
        if (last_epoch && batches_seen > 0)
            result.final_loss = epoch_loss / static_cast<double>(batches_seen);
    }
    ws.want_loss = true;
    return result;
}

double DecreasingStepSchedule::gamma() const noexcept {
    return std::max(8.0 * L / mu, static_cast<double>(E));
}

double DecreasingStepSchedule::rate_at(std::size_t round) const noexcept {
    return 2.0 / (mu * (gamma() + static_cast<double>(round)));
}

}  // namespace fairbfl::ml
