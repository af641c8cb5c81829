// One-hidden-layer ReLU MLP.
//
// Parameter layout:
//   [ W1 row-major (hidden x dim) | b1 (hidden) |
//     W2 row-major (classes x hidden) | b2 (classes) ].

#include <cmath>
#include <vector>

#include "ml/loss.hpp"
#include "ml/model.hpp"
#include "support/vecmath.hpp"

namespace fairbfl::ml {

namespace {

class Mlp final : public Model {
public:
    Mlp(std::size_t feature_dim, std::size_t hidden, std::size_t num_classes,
        double l2)
        : dim_(feature_dim), hidden_(hidden), classes_(num_classes), l2_(l2) {}

    [[nodiscard]] std::string name() const override { return "mlp"; }

    [[nodiscard]] std::size_t param_count() const override {
        return hidden_ * dim_ + hidden_ + classes_ * hidden_ + classes_;
    }

    void init_params(std::span<float> params,
                     support::Rng& rng) const override {
        // He initialization for the ReLU layer, Xavier-ish for the head.
        const double s1 = std::sqrt(2.0 / static_cast<double>(dim_));
        const double s2 = std::sqrt(1.0 / static_cast<double>(hidden_));
        std::size_t i = 0;
        for (; i < hidden_ * dim_; ++i)
            params[i] = static_cast<float>(s1 * rng.normal());
        for (; i < hidden_ * dim_ + hidden_; ++i) params[i] = 0.0F;
        for (; i < hidden_ * dim_ + hidden_ + classes_ * hidden_; ++i)
            params[i] = static_cast<float>(s2 * rng.normal());
        for (; i < param_count(); ++i) params[i] = 0.0F;
    }

    /// Reference per-sample path, scratch from the workspace.  This is the
    /// oracle the batched kernel is pinned against.
    double loss_and_gradient(std::span<const float> params,
                             const DatasetView& batch, TrainWorkspace& ws,
                             std::span<float> grad) const override {
        if (batch.empty()) return 0.0;
        const Layout p(*this, params);
        const LayoutMut g(*this, grad);

        const auto h = TrainWorkspace::ensure(ws.hidden, hidden_);
        const auto pre = TrainWorkspace::ensure(ws.pre, hidden_);
        const auto logits = TrainWorkspace::ensure(ws.logits, classes_);
        const auto dlogits = TrainWorkspace::ensure(ws.dlogits, classes_);
        const auto dh = TrainWorkspace::ensure(ws.dh, hidden_);
        const float inv_n = 1.0F / static_cast<float>(batch.size());

        double loss_sum = 0.0;
        for (std::size_t s = 0; s < batch.size(); ++s) {
            const auto x = batch.features_of(s);
            // Forward.
            for (std::size_t j = 0; j < hidden_; ++j) {
                pre[j] = p.b1[j] + static_cast<float>(support::dot(
                                       p.w1.subspan(j * dim_, dim_), x));
                h[j] = pre[j] > 0.0F ? pre[j] : 0.0F;
            }
            for (std::size_t c = 0; c < classes_; ++c) {
                logits[c] = p.b2[c] +
                            static_cast<float>(support::dot(
                                p.w2.subspan(c * hidden_, hidden_), h));
            }
            loss_sum += softmax_xent_backward(logits, batch.label_of(s),
                                              dlogits);
            // Backward: head.
            for (std::size_t c = 0; c < classes_; ++c) {
                const float gl = dlogits[c] * inv_n;
                support::axpy(gl, h, g.w2.subspan(c * hidden_, hidden_));
                g.b2[c] += gl;
            }
            // dh = W2^T dlogits, masked by ReLU.
            for (std::size_t j = 0; j < hidden_; ++j) {
                float acc = 0.0F;
                for (std::size_t c = 0; c < classes_; ++c)
                    acc += dlogits[c] * p.w2[c * hidden_ + j];
                dh[j] = pre[j] > 0.0F ? acc : 0.0F;
            }
            // Input layer.
            for (std::size_t j = 0; j < hidden_; ++j) {
                const float gj = dh[j] * inv_n;
                if (gj != 0.0F)
                    support::axpy(gj, x, g.w1.subspan(j * dim_, dim_));
                g.b1[j] += gj;
            }
        }
        double loss = loss_sum / static_cast<double>(batch.size());
        loss += apply_l2(params, grad);
        return loss;
    }

    /// Batched path: both forward layers run as blocked gemv kernels and
    /// dh = W2ᵀ·dlogits as the transposed-accumulate kernel, over packed
    /// rows.  The gradient is zeroed first and written, and accumulation
    /// order per parameter matches the reference loop, so results are
    /// bit-identical to it on a zeroed gradient.
    double loss_and_gradient_batch(std::span<const float> params,
                                   const PackedBatch& data,
                                   std::span<const std::size_t> rows,
                                   TrainWorkspace& ws,
                                   std::span<float> grad) const override {
        support::fill(grad, 0.0F);
        if (rows.empty()) return 0.0;
        const Layout p(*this, params);
        const LayoutMut g(*this, grad);

        const auto h = TrainWorkspace::ensure(ws.hidden, hidden_);
        const auto pre = TrainWorkspace::ensure(ws.pre, hidden_);
        const auto logits = TrainWorkspace::ensure(ws.logits, classes_);
        const auto dlogits = TrainWorkspace::ensure(ws.dlogits, classes_);
        const auto dh = TrainWorkspace::ensure(ws.dh, hidden_);
        const float inv_n = 1.0F / static_cast<float>(rows.size());

        double loss_sum = 0.0;
        for (const std::size_t r : rows) {
            const auto x = data.row(r);
            // Forward: blocked W1·x and W2·h.
            support::gemv(p.w1, hidden_, dim_, x, p.b1, pre);
            for (std::size_t j = 0; j < hidden_; ++j)
                h[j] = pre[j] > 0.0F ? pre[j] : 0.0F;
            support::gemv(p.w2, classes_, hidden_, h, p.b2, logits);
            loss_sum += softmax_xent_backward(logits, data.label(r), dlogits);
            // Backward: head.
            for (std::size_t c = 0; c < classes_; ++c) {
                const float gl = dlogits[c] * inv_n;
                support::axpy(gl, h, g.w2.subspan(c * hidden_, hidden_));
                g.b2[c] += gl;
            }
            // dh = W2^T dlogits, masked by ReLU.
            support::fill(dh, 0.0F);
            support::gemv_transpose_accumulate(p.w2, classes_, hidden_,
                                               dlogits, dh);
            for (std::size_t j = 0; j < hidden_; ++j)
                if (pre[j] <= 0.0F) dh[j] = 0.0F;
            // Input layer.
            for (std::size_t j = 0; j < hidden_; ++j) {
                const float gj = dh[j] * inv_n;
                if (gj != 0.0F)
                    support::axpy(gj, x, g.w1.subspan(j * dim_, dim_));
                g.b1[j] += gj;
            }
        }
        // The L2 *gradient* is always applied; the loss-only dots are
        // skipped when the caller discards the value (ws.want_loss).
        support::axpy(static_cast<float>(l2_), p.w1, g.w1);
        support::axpy(static_cast<float>(l2_), p.w2, g.w2);
        double loss = loss_sum / static_cast<double>(rows.size());
        if (ws.want_loss) loss += l2_term(params);
        return loss;
    }

    [[nodiscard]] double loss(std::span<const float> params,
                              const DatasetView& batch) const override {
        if (batch.empty()) return 0.0;
        std::vector<float> logits(classes_);
        double loss_sum = 0.0;
        for (std::size_t s = 0; s < batch.size(); ++s) {
            forward_logits(params, batch.features_of(s), logits);
            softmax_inplace(logits);
            loss_sum += cross_entropy(logits, batch.label_of(s));
        }
        double loss = loss_sum / static_cast<double>(batch.size());
        loss += l2_term(params);
        return loss;
    }

    void predict(std::span<const float> params,
                 std::span<const float* const> xs,
                 std::span<std::int32_t> out) const override {
        std::vector<float> logits(classes_);
        for (std::size_t s = 0; s < xs.size(); ++s) {
            forward_logits(params, {xs[s], dim_}, logits);
            out[s] = argmax(logits);
        }
    }

private:
    struct Layout {
        Layout(const Mlp& m, std::span<const float> p)
            : w1(p.subspan(0, m.hidden_ * m.dim_)),
              b1(p.subspan(m.hidden_ * m.dim_, m.hidden_)),
              w2(p.subspan(m.hidden_ * m.dim_ + m.hidden_,
                           m.classes_ * m.hidden_)),
              b2(p.subspan(m.hidden_ * m.dim_ + m.hidden_ +
                               m.classes_ * m.hidden_,
                           m.classes_)) {}
        std::span<const float> w1, b1, w2, b2;
    };
    struct LayoutMut {
        LayoutMut(const Mlp& m, std::span<float> p)
            : w1(p.subspan(0, m.hidden_ * m.dim_)),
              b1(p.subspan(m.hidden_ * m.dim_, m.hidden_)),
              w2(p.subspan(m.hidden_ * m.dim_ + m.hidden_,
                           m.classes_ * m.hidden_)),
              b2(p.subspan(m.hidden_ * m.dim_ + m.hidden_ +
                               m.classes_ * m.hidden_,
                           m.classes_)) {}
        std::span<float> w1, b1, w2, b2;
    };

    void forward_logits(std::span<const float> params,
                        std::span<const float> x,
                        std::span<float> logits) const {
        const Layout p(*this, params);
        std::vector<float> h(hidden_);
        for (std::size_t j = 0; j < hidden_; ++j) {
            const float pre =
                p.b1[j] + static_cast<float>(
                              support::dot(p.w1.subspan(j * dim_, dim_), x));
            h[j] = pre > 0.0F ? pre : 0.0F;
        }
        for (std::size_t c = 0; c < classes_; ++c) {
            logits[c] = p.b2[c] + static_cast<float>(support::dot(
                                      p.w2.subspan(c * hidden_, hidden_), h));
        }
    }

    double apply_l2(std::span<const float> params, std::span<float> grad) const {
        // Regularize weight matrices only (not biases).
        const Layout p(*this, params);
        const LayoutMut g(*this, grad);
        support::axpy(static_cast<float>(l2_), p.w1, g.w1);
        support::axpy(static_cast<float>(l2_), p.w2, g.w2);
        return l2_term(params);
    }

    [[nodiscard]] double l2_term(std::span<const float> params) const {
        const Layout p(*this, params);
        return 0.5 * l2_ *
               (support::dot(p.w1, p.w1) + support::dot(p.w2, p.w2));
    }

    std::size_t dim_;
    std::size_t hidden_;
    std::size_t classes_;
    double l2_;
};

}  // namespace

std::unique_ptr<Model> make_mlp(std::size_t feature_dim, std::size_t hidden,
                                std::size_t num_classes, double l2) {
    return std::make_unique<Mlp>(feature_dim, hidden, num_classes, l2);
}

}  // namespace fairbfl::ml
