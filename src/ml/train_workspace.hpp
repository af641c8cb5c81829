#pragma once
// The zero-steady-state-allocation seam of the local-learning engine.
//
// A PackedBatch gathers a client shard's samples -- scattered rows of the
// simulation-wide Dataset -- into one contiguous row-major feature matrix,
// once per shard (not per epoch, not per mini-batch).  Mini-batch SGD then
// addresses samples by *position* into the pack, so the hot kernels stream
// sequential memory instead of chasing shard indices across a dataset that
// may be far larger than cache.
//
// A TrainWorkspace owns every piece of scratch the training loop needs
// (sample order, gradient accumulator, logits, activations), so repeated
// sgd_train calls -- one per client per round, for thousands of rounds --
// allocate nothing after the first.  Workspaces are not thread-safe; the
// engine keeps one per client.

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace fairbfl::ml {

/// A shard gathered into contiguous row-major storage.  Keeps the parent
/// pointer and original indices so per-sample fallbacks (and cache
/// validation) can reconstruct the exact DatasetView it was packed from.
class PackedBatch {
public:
    PackedBatch() = default;

    /// Gathers `view`'s feature rows and labels.  Reuses storage on
    /// repacking.
    void pack(const DatasetView& view);

    /// True when this pack was built from exactly `view` (same parent,
    /// same indices in the same order) -- the cache-hit test.
    [[nodiscard]] bool packed_from(const DatasetView& view) const noexcept;

    [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
    [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }
    [[nodiscard]] std::size_t feature_dim() const noexcept { return dim_; }

    /// Contiguous features of the sample at packed position `i`.
    [[nodiscard]] std::span<const float> row(std::size_t i) const noexcept {
        return {features_.data() + i * dim_, dim_};
    }
    [[nodiscard]] std::int32_t label(std::size_t i) const noexcept {
        return labels_[i];
    }

    /// The dataset this pack was gathered from (null before pack()).
    [[nodiscard]] const Dataset* parent() const noexcept { return parent_; }
    /// Parent-dataset indices, in packed position order.
    [[nodiscard]] const std::vector<std::size_t>& indices() const noexcept {
        return indices_;
    }

private:
    const Dataset* parent_ = nullptr;
    std::vector<std::size_t> indices_;
    std::size_t dim_ = 0;
    std::vector<float> features_;  ///< size() * dim_, row-major
    std::vector<std::int32_t> labels_;
};

/// Reusable training scratch.  Fields are grouped by owner: the SGD driver
/// uses `order` and `grad`; models use the remaining buffers from inside
/// loss_and_gradient calls (and must not touch the driver's fields).
/// Models size what they need via ensure(); ensure only grows, so the
/// steady state is allocation-free.
struct TrainWorkspace {
    // --- SGD driver scratch (ml::sgd_train).
    std::vector<std::size_t> order;  ///< per-epoch sample order
    std::vector<float> grad;         ///< param-sized gradient buffer

    /// Batched-path hint: when false, the model may skip arithmetic that
    /// only feeds the *returned loss value* (e.g. the L2 term's full-width
    /// dot(w, w), which the logistic model otherwise carries through its
    /// one-sweep backward) -- the return value is then unspecified.
    /// Gradients are never affected.  The batched SGD driver clears this
    /// for non-final epochs, whose epoch loss is discarded; the reference
    /// path always wants the loss.
    bool want_loss = true;

    // --- Model scratch (linear + MLP kernels).
    std::vector<float> logits;    ///< batch x classes (MLP: one sample)
    std::vector<float> dlogits;   ///< batch x classes (MLP: one sample)
    std::vector<const float*> samples;  ///< the batch's packed rows
    std::vector<float> hidden;    ///< hidden activations (MLP)
    std::vector<float> pre;       ///< pre-activations (MLP)
    std::vector<float> dh;        ///< hidden-layer gradient (MLP)

    /// Grows `buffer` to at least `n` elements and returns the first `n`
    /// as a span.  Never shrinks, so capacity stabilizes after one round.
    static std::span<float> ensure(std::vector<float>& buffer, std::size_t n) {
        if (buffer.size() < n) buffer.resize(n);
        return {buffer.data(), n};
    }
};

}  // namespace fairbfl::ml
