#include "ml/loss.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace fairbfl::ml {

void softmax_inplace(std::span<float> logits) noexcept {
    float max_logit = logits[0];
    for (const float v : logits) max_logit = std::max(max_logit, v);
    double sum = 0.0;
    for (auto& v : logits) {
        v = std::exp(v - max_logit);
        sum += static_cast<double>(v);
    }
    const auto inv = static_cast<float>(1.0 / sum);
    for (auto& v : logits) v *= inv;
}

double cross_entropy(std::span<const float> probs,
                     std::int32_t label) noexcept {
    const double p =
        std::max(static_cast<double>(probs[static_cast<std::size_t>(label)]),
                 1e-12);
    return -std::log(p);
}

double softmax_xent_backward(std::span<const float> logits, std::int32_t label,
                             std::span<float> dlogits) noexcept {
    float max_logit = logits[0];
    for (const float v : logits) max_logit = std::max(max_logit, v);
    double sum = 0.0;
    for (std::size_t c = 0; c < logits.size(); ++c) {
        const float e = std::exp(logits[c] - max_logit);
        dlogits[c] = e;
        sum += static_cast<double>(e);
    }
    const auto inv = static_cast<float>(1.0 / sum);
    double loss = 0.0;
    for (std::size_t c = 0; c < dlogits.size(); ++c) {
        dlogits[c] *= inv;
        if (c == static_cast<std::size_t>(label)) {
            loss = -std::log(
                std::max(static_cast<double>(dlogits[c]), 1e-12));
            dlogits[c] -= 1.0F;
        }
    }
    return loss;
}

std::int32_t argmax(std::span<const float> logits) noexcept {
    std::size_t best = 0;
    for (std::size_t c = 1; c < logits.size(); ++c)
        if (logits[c] > logits[best]) best = c;
    return static_cast<std::int32_t>(best);
}

}  // namespace fairbfl::ml
