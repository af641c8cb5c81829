#include "ml/model.hpp"

#include <atomic>
#include <vector>

namespace fairbfl::ml {

double Model::loss_and_gradient(std::span<const float> params,
                                const DatasetView& batch, TrainWorkspace&,
                                std::span<float> grad) const {
    return loss_and_gradient(params, batch, grad);
}

double Model::loss_and_gradient_batch(std::span<const float> params,
                                      const PackedBatch& data,
                                      std::span<const std::size_t> rows,
                                      TrainWorkspace& ws,
                                      std::span<float> grad) const {
    // Reference fallback: reconstruct the mini-batch as a DatasetView over
    // the pack's parent.  Allocates per call -- models that care override.
    std::vector<std::size_t> parent_indices;
    parent_indices.reserve(rows.size());
    for (const std::size_t r : rows)
        parent_indices.push_back(data.indices()[r]);
    const DatasetView batch(*data.parent(), std::move(parent_indices));
    return loss_and_gradient(params, batch, ws, grad);
}

double Model::accuracy(std::span<const float> params,
                       const DatasetView& view,
                       support::ThreadPool& pool) const {
    if (view.empty()) return 0.0;
    std::atomic<std::size_t> correct{0};
    support::parallel_chunks(
        0, view.size(), kAccuracyChunk,
        [&](std::size_t lo, std::size_t hi) {
            std::size_t hits = 0;
            for (std::size_t i = lo; i < hi; ++i) {
                if (predict(params, view.features_of(i)) == view.label_of(i))
                    ++hits;
            }
            correct.fetch_add(hits, std::memory_order_relaxed);
        },
        pool);
    return static_cast<double>(correct.load()) /
           static_cast<double>(view.size());
}

}  // namespace fairbfl::ml
