#include "core/strategies.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "support/cli.hpp"

namespace fairbfl::core {

namespace {

// --- Aggregators -----------------------------------------------------------

class SimpleAverageAggregator final : public Aggregator {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "simple";
    }
    [[nodiscard]] std::vector<float> aggregate(
        std::span<const fl::GradientUpdate> updates) const override {
        return fl::simple_average(updates);
    }
};

class SampleWeightedAggregator final : public Aggregator {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "sample_weighted";
    }
    [[nodiscard]] std::vector<float> aggregate(
        std::span<const fl::GradientUpdate> updates) const override {
        return fl::sample_weighted_average(updates);
    }
};

class FairAggregator final : public Aggregator {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "fair";
    }
    /// Without scores Eq. 1 degenerates to uniform weights (line 24).
    [[nodiscard]] std::vector<float> aggregate(
        std::span<const fl::GradientUpdate> updates) const override {
        return fl::simple_average(updates);
    }
    [[nodiscard]] std::vector<float> aggregate_weighted(
        std::span<const fl::GradientUpdate> updates,
        std::span<const double> theta) const override {
        return fl::weighted_aggregate(updates, theta);
    }
};

/// Per-coordinate trimmed mean: sort the K client values of each
/// coordinate, drop the ceil(trim * K) smallest and largest, average the
/// rest.  A classic Byzantine-robust rule (Yin et al., ICML'18): forged
/// updates of extreme magnitude land in the trimmed tails and never touch
/// the global model, whatever their direction.
class TrimmedMeanAggregator final : public Aggregator {
public:
    explicit TrimmedMeanAggregator(double trim_fraction)
        : trim_fraction_(trim_fraction) {
        if (trim_fraction < 0.0 || trim_fraction >= 0.5)
            throw std::invalid_argument(
                "trimmed_mean: trim fraction must be in [0, 0.5)");
    }

    [[nodiscard]] std::string_view name() const noexcept override {
        return "trimmed_mean";
    }

    [[nodiscard]] std::vector<float> aggregate(
        std::span<const fl::GradientUpdate> updates) const override {
        fl::check_updates(updates);
        const std::size_t k = updates.size();
        std::size_t trim = static_cast<std::size_t>(
            std::ceil(trim_fraction_ * static_cast<double>(k)));
        // Always keep at least one value per coordinate.
        if (2 * trim >= k) trim = (k - 1) / 2;
        const std::size_t kept = k - 2 * trim;

        std::vector<float> out(updates[0].weights.size());
        std::vector<float> column(k);
        for (std::size_t d = 0; d < out.size(); ++d) {
            for (std::size_t i = 0; i < k; ++i)
                column[i] = updates[i].weights[d];
            std::sort(column.begin(), column.end());
            double sum = 0.0;
            for (std::size_t i = trim; i < k - trim; ++i) sum += column[i];
            out[d] = static_cast<float>(sum / static_cast<double>(kept));
        }
        return out;
    }

private:
    double trim_fraction_;
};

/// Coordinate-wise median: the trim -> 1/2 limit of the trimmed mean and
/// the strongest per-coordinate breakdown point.
class CoordinateMedianAggregator final : public Aggregator {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "median";
    }

    [[nodiscard]] std::vector<float> aggregate(
        std::span<const fl::GradientUpdate> updates) const override {
        fl::check_updates(updates);
        const std::size_t k = updates.size();
        std::vector<float> out(updates[0].weights.size());
        std::vector<float> column(k);
        for (std::size_t d = 0; d < out.size(); ++d) {
            for (std::size_t i = 0; i < k; ++i)
                column[i] = updates[i].weights[d];
            const auto mid = column.begin() + static_cast<std::ptrdiff_t>(k / 2);
            std::nth_element(column.begin(), mid, column.end());
            if (k % 2 == 1) {
                out[d] = *mid;
            } else {
                const float upper = *mid;
                const float lower =
                    *std::max_element(column.begin(), mid);
                out[d] = (lower + upper) / 2.0F;
            }
        }
        return out;
    }
};

/// Single source of truth for the registered rules: make_aggregator and
/// aggregator_names both read this table, so a new rule cannot appear in
/// one and be missing from the other.
struct AggregatorEntry {
    std::string_view name;
    std::shared_ptr<const Aggregator> (*make)(double trim_fraction);
};

constexpr AggregatorEntry kAggregators[] = {
    {"simple",
     [](double) -> std::shared_ptr<const Aggregator> {
         return std::make_shared<SimpleAverageAggregator>();
     }},
    {"sample_weighted",
     [](double) -> std::shared_ptr<const Aggregator> {
         return std::make_shared<SampleWeightedAggregator>();
     }},
    {"fair",
     [](double) -> std::shared_ptr<const Aggregator> {
         return std::make_shared<FairAggregator>();
     }},
    {"trimmed_mean",
     [](double trim) -> std::shared_ptr<const Aggregator> {
         return std::make_shared<TrimmedMeanAggregator>(trim);
     }},
    {"median",
     [](double) -> std::shared_ptr<const Aggregator> {
         return std::make_shared<CoordinateMedianAggregator>();
     }},
};

}  // namespace

std::shared_ptr<const Aggregator> make_aggregator(std::string_view name,
                                                  double trim_fraction) {
    for (const auto& entry : kAggregators) {
        if (entry.name == name) return entry.make(trim_fraction);
    }
    throw std::invalid_argument("unknown aggregator '" + std::string(name) +
                                "' (known: " +
                                support::join_names(aggregator_names()) + ")");
}

std::vector<std::string_view> aggregator_names() {
    std::vector<std::string_view> names;
    names.reserve(std::size(kAggregators));
    for (const auto& entry : kAggregators) names.push_back(entry.name);
    return names;
}

}  // namespace fairbfl::core
