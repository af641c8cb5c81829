// Multinomial logistic regression (softmax regression).
//
// Parameter layout: [ W row-major (classes x dim) | b (classes) ].

#include <cmath>
#include <vector>

#include "ml/loss.hpp"
#include "ml/model.hpp"
#include "support/vecmath.hpp"

namespace fairbfl::ml {

namespace {

class LogisticRegression final : public Model {
public:
    LogisticRegression(std::size_t feature_dim, std::size_t num_classes,
                       double l2)
        : dim_(feature_dim), classes_(num_classes), l2_(l2) {}

    [[nodiscard]] std::string name() const override {
        return "logistic_regression";
    }

    [[nodiscard]] std::size_t param_count() const override {
        return classes_ * dim_ + classes_;
    }

    void init_params(std::span<float> params,
                     support::Rng& rng) const override {
        // Small Gaussian init; zero biases.
        const double scale = 0.01;
        for (std::size_t i = 0; i < classes_ * dim_; ++i)
            params[i] = static_cast<float>(scale * rng.normal());
        for (std::size_t c = 0; c < classes_; ++c)
            params[classes_ * dim_ + c] = 0.0F;
    }

    double loss_and_gradient(std::span<const float> params,
                             const DatasetView& batch,
                             std::span<float> grad) const override {
        TrainWorkspace ws;
        return loss_and_gradient(params, batch, ws, grad);
    }

    /// Reference per-sample path, scratch from the workspace.  This is the
    /// oracle the batched kernel is pinned against.
    double loss_and_gradient(std::span<const float> params,
                             const DatasetView& batch, TrainWorkspace& ws,
                             std::span<float> grad) const override {
        if (batch.empty()) return 0.0;
        const auto logits = TrainWorkspace::ensure(ws.logits, classes_);
        const auto dlogits = TrainWorkspace::ensure(ws.dlogits, classes_);
        const float inv_n = 1.0F / static_cast<float>(batch.size());
        double loss_sum = 0.0;
        for (std::size_t s = 0; s < batch.size(); ++s) {
            const auto x = batch.features_of(s);
            forward(params, x, logits);
            loss_sum += softmax_xent_backward(logits, batch.label_of(s),
                                              dlogits);
            // dW[c] += dlogit[c] * x ; db[c] += dlogit[c]
            for (std::size_t c = 0; c < classes_; ++c) {
                const float g = dlogits[c] * inv_n;
                support::axpy(g, x, grad.subspan(c * dim_, dim_));
                grad[classes_ * dim_ + c] += g;
            }
        }
        double loss = loss_sum / static_cast<double>(batch.size());
        loss += apply_l2(params, grad);
        return loss;
    }

    /// Batched path over packed rows: one X·Wᵀ forward for the whole
    /// mini-batch (support::gemv_rows), softmax per sample, then one
    /// dlogitsᵀ·X backward (support::outer_accumulate_rows).  Every logit
    /// is a strict per-row chain and every gradient element receives its
    /// per-sample adds in sample order, so results are bit-identical to
    /// the reference loop.
    double loss_and_gradient_batch(std::span<const float> params,
                                   const PackedBatch& data,
                                   std::span<const std::size_t> rows,
                                   TrainWorkspace& ws,
                                   std::span<float> grad) const override {
        if (rows.empty()) return 0.0;
        const std::size_t n = rows.size();
        const auto logits = TrainWorkspace::ensure(ws.logits, n * classes_);
        const auto dlogits = TrainWorkspace::ensure(ws.dlogits, n * classes_);
        ws.samples.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            ws.samples[i] = data.row(rows[i]).data();
        const auto w = params.first(classes_ * dim_);
        const auto bias = params.subspan(classes_ * dim_, classes_);
        const auto grad_w = grad.first(classes_ * dim_);
        const auto grad_b = grad.subspan(classes_ * dim_, classes_);
        support::gemv_rows(w, classes_, dim_, ws.samples, bias, logits);
        const float inv_n = 1.0F / static_cast<float>(n);
        double loss_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto dl = dlogits.subspan(i * classes_, classes_);
            loss_sum += softmax_xent_backward(
                logits.subspan(i * classes_, classes_), data.label(rows[i]),
                dl);
            for (float& g : dl) g *= inv_n;
        }
        support::outer_accumulate_rows(dlogits, ws.samples, classes_, dim_,
                                       grad_w);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t c = 0; c < classes_; ++c)
                grad_b[c] += dlogits[i * classes_ + c];
        // The L2 *gradient* is always applied; its full-width loss dot is
        // skipped when the caller discards the value (ws.want_loss).
        support::axpy(static_cast<float>(l2_), w, grad_w);
        double loss = loss_sum / static_cast<double>(rows.size());
        if (ws.want_loss) loss += 0.5 * l2_ * support::dot(w, w);
        return loss;
    }

    [[nodiscard]] double loss(std::span<const float> params,
                              const DatasetView& batch) const override {
        if (batch.empty()) return 0.0;
        std::vector<float> logits(classes_);
        double loss_sum = 0.0;
        for (std::size_t s = 0; s < batch.size(); ++s) {
            forward(params, batch.features_of(s), logits);
            softmax_inplace(logits);
            loss_sum += cross_entropy(logits, batch.label_of(s));
        }
        double loss = loss_sum / static_cast<double>(batch.size());
        // L2 term (weights only).
        const auto w = params.first(classes_ * dim_);
        loss += 0.5 * l2_ * support::dot(w, w);
        return loss;
    }

    [[nodiscard]] std::int32_t predict(
        std::span<const float> params,
        std::span<const float> features) const override {
        std::vector<float> logits(classes_);
        forward(params, features, logits);
        std::size_t best = 0;
        for (std::size_t c = 1; c < classes_; ++c)
            if (logits[c] > logits[best]) best = c;
        return static_cast<std::int32_t>(best);
    }

private:
    /// logits = W·x + b.  By gemv's contract each logit is bitwise
    /// b[c] + float(dot(row c of W, x)).
    void forward(std::span<const float> params, std::span<const float> x,
                 std::span<float> logits) const {
        support::gemv(params.first(classes_ * dim_), classes_, dim_, x,
                      params.subspan(classes_ * dim_, classes_), logits);
    }

    /// Adds the L2 gradient (weights only) and returns the L2 loss term.
    double apply_l2(std::span<const float> params, std::span<float> grad) const {
        const auto w = params.first(classes_ * dim_);
        auto gw = grad.first(classes_ * dim_);
        support::axpy(static_cast<float>(l2_), w, gw);
        return 0.5 * l2_ * support::dot(w, w);
    }

    std::size_t dim_;
    std::size_t classes_;
    double l2_;
};

}  // namespace

std::unique_ptr<Model> make_logistic_regression(std::size_t feature_dim,
                                                std::size_t num_classes,
                                                double l2) {
    return std::make_unique<LogisticRegression>(feature_dim, num_classes, l2);
}

}  // namespace fairbfl::ml
