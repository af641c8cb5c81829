#include "incentive/hierarchical.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace fairbfl::incentive {

namespace {

/// What one shard-level pass forwards upward.
struct ShardOutcome {
    ContributionReport report;     ///< the shard's flat Algorithm 2 pass
    std::vector<float> summary;    ///< Eq. 1 combine of its survivors
};

}  // namespace

ContributionReport identify_contributions_hierarchical(
    std::span<const fl::GradientUpdate> updates,
    std::span<const float> provisional_global,
    const ContributionConfig& config, std::span<const float> reference,
    support::ThreadPool& pool) {
    const fl::ShardTree tree(config.sharding);
    const std::size_t shards = tree.shard_count(updates.size());
    if (shards <= 1) {
        // Flat fallback: requested off, or the round is too small to
        // split.  Identical call, identical arithmetic -- the shards=1
        // configuration is the flat pipeline bit-for-bit.
        return identify_contributions(updates, provisional_global, config,
                                      reference, pool);
    }
    // Reject a malformed round here, before S shard passes build indexes.
    check_contribution_inputs(updates, provisional_global, reference);

    // --- Shard level: S independent flat passes, fanned out on the pool.
    // Each worker writes only its own preallocated slot, so results are
    // deterministic at any pool size.
    const std::vector<fl::ShardRange> plan = tree.plan(updates.size());
    std::vector<ShardOutcome> outcomes(shards);
    // Captured *here*, on the round's thread: workers inherit the round's
    // session/round tags and parent their shard-pass spans under the
    // caller's open span, reconstructing the cross-thread fan-out in the
    // decoded log.
    const telemetry::Context ctx = telemetry::current_context();
    support::parallel_for(
        0, shards,
        [&](std::size_t s) {
            const telemetry::ContextScope scope(
                ctx.with_item(static_cast<std::uint32_t>(s)));
            const telemetry::Span span(telemetry::labels::shard_pass());
            const std::span<const fl::GradientUpdate> shard_updates =
                updates.subspan(plan[s].begin, plan[s].size());
            ShardOutcome& outcome = outcomes[s];
            outcome.report = identify_contributions(
                shard_updates, provisional_global, config, reference, pool);
            outcome.summary = apply_strategy(shard_updates, outcome.report,
                                             config.strategy);
        },
        pool);

    // --- Root level: the S survivor summaries are pseudo-updates; the
    // same flat pass clusters them against the provisional global and
    // settles the round (Eq. 1 over the surviving summaries).
    telemetry::Span root_span(telemetry::labels::root_pass());
    std::vector<fl::GradientUpdate> summaries(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        summaries[s].client = static_cast<fl::NodeId>(s);
        summaries[s].round = updates.empty() ? 0 : updates.front().round;
        summaries[s].weights = outcomes[s].summary;
        summaries[s].num_samples = plan[s].size();
    }
    ContributionReport root = identify_contributions(
        summaries, provisional_global, config, reference, pool);
    std::vector<float> settled =
        apply_strategy(summaries, root, config.strategy);
    root_span.close();

    // --- Compose the flat-compatible round report.  Shares compose
    // multiplicatively: both levels' rewards sum to `base` (the flat pass
    // guarantees survivors whenever its input is non-empty), so dividing
    // each level by base and multiplying back conserves the budget
    // exactly.
    const double base = config.reward_base;
    const double inv_base = base != 0.0 ? 1.0 / base : 0.0;
    ContributionReport report;
    report.entries.reserve(updates.size());
    for (std::size_t s = 0; s < shards; ++s) {
        const ContributionReport& shard = outcomes[s].report;
        const bool shard_high = root.entries[s].high;
        const double root_share = root.entries[s].reward * inv_base;
        for (std::size_t i = 0; i < shard.entries.size(); ++i) {
            ClientContribution entry = shard.entries[i];
            entry.high = entry.high && shard_high;
            entry.reward = shard.entries[i].reward * inv_base *
                           root_share * base;
            const std::size_t global_index = plan[s].begin + i;
            if (entry.high) {
                report.high_indices.push_back(global_index);
            } else {
                report.low_indices.push_back(global_index);
            }
            report.entries.push_back(std::move(entry));
        }
        report.index_peak_bytes =
            std::max(report.index_peak_bytes, shard.index_peak_bytes);
    }
    // The round-level clustering view is the root's: S summaries + the
    // global, the decision that actually settled the round.
    report.clustering = root.clustering;
    report.global_cluster = root.global_cluster;
    report.index_backend = root.index_backend;
    report.index_peak_bytes =
        std::max(report.index_peak_bytes, root.index_peak_bytes);
    report.shard_count = shards;
    report.settled_weights = std::move(settled);
    return report;
}

}  // namespace fairbfl::incentive
