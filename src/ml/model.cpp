#include "ml/model.hpp"

#include <algorithm>
#include <array>
#include <atomic>

namespace fairbfl::ml {

double Model::accuracy(std::span<const float> params,
                       const DatasetView& view,
                       support::ThreadPool& pool) const {
    if (view.empty()) return 0.0;
    std::atomic<std::size_t> correct{0};
    const std::size_t chunks =
        (view.size() + kAccuracyChunk - 1) / kAccuracyChunk;
    support::parallel_for(
        0, chunks,
        [&](std::size_t chunk) {
            const std::size_t lo = chunk * kAccuracyChunk;
            const std::size_t count =
                std::min(view.size() - lo, kAccuracyChunk);
            std::array<const float*, kAccuracyChunk> xs{};
            std::array<std::int32_t, kAccuracyChunk> predicted{};
            for (std::size_t i = 0; i < count; ++i)
                xs[i] = view.features_of(lo + i).data();
            predict(params, std::span(xs).first(count),
                    std::span(predicted).first(count));
            std::size_t hits = 0;
            for (std::size_t i = 0; i < count; ++i)
                if (predicted[i] == view.label_of(lo + i)) ++hits;
            correct.fetch_add(hits, std::memory_order_relaxed);
        },
        pool);
    return static_cast<double>(correct.load()) /
           static_cast<double>(view.size());
}

}  // namespace fairbfl::ml
