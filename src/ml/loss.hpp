#pragma once
// Softmax cross-entropy: the loss l(w; b) of Algorithm 1 / Eq. 3, and the
// argmax that turns logits into a predicted class.

#include <cstdint>
#include <span>

namespace fairbfl::ml {

/// In-place numerically-stable softmax over `logits`.
void softmax_inplace(std::span<float> logits) noexcept;

/// Cross-entropy -log(p[label]) given *probabilities* (post-softmax).
[[nodiscard]] double cross_entropy(std::span<const float> probs,
                                   std::int32_t label) noexcept;

/// Fused softmax + cross-entropy + gradient-of-logits:
/// writes (softmax(logits) - onehot(label)) into `dlogits` and returns the
/// loss.  `logits` and `dlogits` may alias.
[[nodiscard]] double softmax_xent_backward(std::span<const float> logits,
                                           std::int32_t label,
                                           std::span<float> dlogits) noexcept;

/// Index of the largest logit; the first one on ties.
[[nodiscard]] std::int32_t argmax(std::span<const float> logits) noexcept;

}  // namespace fairbfl::ml
