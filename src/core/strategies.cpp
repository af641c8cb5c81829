#include "core/strategies.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "incentive/hierarchical.hpp"

namespace fairbfl::core {

namespace {

void check_updates(std::span<const fl::GradientUpdate> updates) {
    if (updates.empty())
        throw std::invalid_argument("aggregate: empty update set");
    const std::size_t width = updates[0].weights.size();
    for (const auto& u : updates) {
        if (u.weights.size() != width)
            throw std::invalid_argument("aggregate: ragged update widths");
    }
}

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
        return fl::fair_aggregate(updates, theta);
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
        check_updates(updates);
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
        check_updates(updates);
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

// --- Consensus engines -----------------------------------------------------

/// Assumption 1: every block is one synchronized competition; the fastest
/// miner wins, everyone extends the same tip, forks cannot happen.
class SynchronizedPow final : public ConsensusEngine {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "sync_pow";
    }
    [[nodiscard]] MiningOutcome mine(const DelayModel& delays,
                                     std::size_t miners, std::size_t blocks,
                                     std::size_t block_bytes,
                                     support::Rng& rng) const override {
        MiningOutcome outcome;
        for (std::size_t b = 0; b < blocks; ++b)
            outcome.seconds += delays.t_bl_fair(miners, block_bytes, rng);
        return outcome;
    }
};

/// No Assumption 1: miners race concurrently, forks and idle-block waste
/// are priced in (vanilla BFL / the async-mining ablation).
class AsyncPow final : public ConsensusEngine {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "async_pow";
    }
    [[nodiscard]] MiningOutcome mine(const DelayModel& delays,
                                     std::size_t miners, std::size_t blocks,
                                     std::size_t block_bytes,
                                     support::Rng& rng) const override {
        MiningOutcome outcome;
        outcome.seconds =
            delays.t_bl_vanilla(miners, blocks, block_bytes, rng,
                                &outcome.forks, &outcome.fork_merge_seconds);
        return outcome;
    }
};

// --- Incentive policies ----------------------------------------------------

/// Shard-tree Algorithm 2 (incentive/hierarchical.hpp): S independent
/// shard-level passes plus a root pass over the survivor summaries.  The
/// returned report is flat-compatible and carries the root-level
/// settlement, which the default (Eq. 1) reward path returns directly.
/// An explicitly configured Aggregator still governs the combine instead
/// (see RewardPolicy::settle): a robust rule like trimmed_mean must not
/// be bypassed by the tree, so it runs flat over the hierarchical
/// survivors while detection and rewards keep the hierarchical labels.
class ShardTreeContribution final : public ContributionPolicy {
public:
    explicit ShardTreeContribution(incentive::ContributionConfig config)
        : config_(std::move(config)),
          name_("shard_tree(" + config_.clustering + "/" + config_.index +
                "/x" + std::to_string(config_.sharding.shards) + ")") {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return name_;
    }

    [[nodiscard]] incentive::ContributionReport identify(
        std::span<const fl::GradientUpdate> updates,
        std::span<const float> provisional_global,
        std::span<const float> reference) const override {
        return incentive::identify_contributions_hierarchical(
                   updates, provisional_global, config_, reference)
            .report;
    }

private:
    incentive::ContributionConfig config_;
    std::string name_;
};

class ClusteredContribution final : public ContributionPolicy {
public:
    explicit ClusteredContribution(incentive::ContributionConfig config)
        : config_(std::move(config)),
          name_("clustered(" + config_.clustering + "/" + config_.index +
                ")") {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return name_;
    }

    [[nodiscard]] incentive::ContributionReport identify(
        std::span<const fl::GradientUpdate> updates,
        std::span<const float> provisional_global,
        std::span<const float> reference) const override {
        return incentive::identify_contributions(updates, provisional_global,
                                                 config_, reference);
    }

private:
    incentive::ContributionConfig config_;
    std::string name_;
};

class StrategyRewardPolicy final : public RewardPolicy {
public:
    explicit StrategyRewardPolicy(incentive::LowContributionStrategy strategy)
        : strategy_(strategy) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return strategy_ == incentive::LowContributionStrategy::kDiscard
                   ? "discard"
                   : "keep_all";
    }

    [[nodiscard]] std::vector<float> settle(
        std::span<const fl::GradientUpdate> updates,
        const incentive::ContributionReport& report,
        const Aggregator* aggregator) const override {
        if (aggregator == nullptr)
            return incentive::apply_strategy(updates, report, strategy_);
        // Same survivor selection and degenerate-theta fallback as
        // apply_strategy, with the configured rule doing the combine.
        const incentive::SurvivorSelection selection =
            incentive::select_survivors(updates, report, strategy_);
        if (selection.degenerate())
            return aggregator->aggregate(selection.updates);
        return aggregator->aggregate_weighted(selection.updates,
                                              selection.theta);
    }

    [[nodiscard]] bool benches_low_contributors() const noexcept override {
        return strategy_ == incentive::LowContributionStrategy::kDiscard;
    }

private:
    incentive::LowContributionStrategy strategy_;
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
                                detail::join_names(aggregator_names()) + ")");
}

std::vector<std::string_view> aggregator_names() {
    std::vector<std::string_view> names;
    names.reserve(std::size(kAggregators));
    for (const auto& entry : kAggregators) names.push_back(entry.name);
    return names;
}

std::shared_ptr<const ConsensusEngine> make_consensus(std::string_view name) {
    struct ConsensusEntry {
        std::string_view name;
        std::shared_ptr<const ConsensusEngine> (*make)();
    };
    static constexpr ConsensusEntry kEngines[] = {
        {"sync_pow",
         []() -> std::shared_ptr<const ConsensusEngine> {
             return std::make_shared<SynchronizedPow>();
         }},
        {"async_pow",
         []() -> std::shared_ptr<const ConsensusEngine> {
             return std::make_shared<AsyncPow>();
         }},
    };
    for (const auto& entry : kEngines) {
        if (entry.name == name) return entry.make();
    }
    std::vector<std::string_view> known;
    for (const auto& entry : kEngines) known.push_back(entry.name);
    throw std::invalid_argument("unknown consensus engine '" +
                                std::string(name) +
                                "' (known: " + detail::join_names(known) +
                                ")");
}

std::shared_ptr<const ContributionPolicy> make_contribution_policy(
    const incentive::ContributionConfig& config) {
    if (config.sharding.shards > 1)
        return std::make_shared<ShardTreeContribution>(config);
    return std::make_shared<ClusteredContribution>(config);
}

std::shared_ptr<const RewardPolicy> make_reward_policy(
    incentive::LowContributionStrategy strategy) {
    return std::make_shared<StrategyRewardPolicy>(strategy);
}

}  // namespace fairbfl::core
