#include "core/delay_model.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hpp"

namespace fairbfl::core {

namespace {

/// The delay components are *simulated* seconds; telemetry records carry
/// integer values, so they ride along as nanosecond counters
/// (delay.*_ns).  Negative/NaN guards are unnecessary: every component is
/// a sum/max of non-negative draws.
std::uint64_t sim_ns(double seconds) noexcept {
    return static_cast<std::uint64_t>(seconds * 1e9);
}

}  // namespace

DelayModel::DelayModel(DelayParams params) noexcept
    : params_(params), network_(params.network) {}

double DelayModel::hetero_factor(std::size_t client_id,
                                 std::uint64_t seed) const {
    // Fixed per client for the whole run: a slow device is always slow.
    auto rng = support::Rng::fork(seed, 0x48E7 + client_id);
    return std::exp(params_.compute_hetero_sigma * rng.normal());
}

double DelayModel::t_local_client(std::size_t client_id,
                                  std::size_t batch_steps,
                                  std::uint64_t seed) const {
    return params_.seconds_per_batch * static_cast<double>(batch_steps) *
           hetero_factor(client_id, seed);
}

std::size_t batch_steps(std::size_t samples,
                        const ml::SgdParams& sgd) noexcept {
    const std::size_t batch = std::max<std::size_t>(sgd.batch_size, 1);
    return sgd.epochs * ((samples + batch - 1) / batch);
}

double DelayModel::t_local(std::span<const std::size_t> client_ids,
                           std::span<const std::size_t> batch_steps,
                           std::uint64_t seed) const {
    double slowest = 0.0;
    for (std::size_t i = 0; i < client_ids.size(); ++i) {
        slowest = std::max(slowest,
                           t_local_client(client_ids[i], batch_steps[i], seed));
    }
    telemetry::counter_add(telemetry::labels::delay_local_ns(),
                           sim_ns(slowest));
    return slowest;
}

std::vector<double> DelayModel::t_up_each(std::size_t clients,
                                          std::size_t payload_bytes,
                                          support::Rng& rng) const {
    std::vector<double> seconds;
    seconds.reserve(clients);
    double slowest = 0.0;
    for (std::size_t i = 0; i < clients; ++i) {
        seconds.push_back(network_.client_upload_seconds(payload_bytes, rng));
        slowest = std::max(slowest, seconds.back());
    }
    telemetry::counter_add(telemetry::labels::delay_up_ns(),
                           sim_ns(slowest));
    return seconds;
}

double DelayModel::t_up(std::size_t clients, std::size_t payload_bytes,
                        support::Rng& rng) const {
    double slowest = 0.0;
    for (const double draw : t_up_each(clients, payload_bytes, rng))
        slowest = std::max(slowest, draw);
    return slowest;
}

double DelayModel::t_ex(std::size_t miners, std::size_t set_bytes,
                        support::Rng& rng) const {
    const double seconds = network_.exchange_seconds(miners, set_bytes, rng);
    telemetry::counter_add(telemetry::labels::delay_ex_ns(),
                           sim_ns(seconds));
    return seconds;
}

double DelayModel::t_gl(std::size_t updates,
                        std::size_t clustered_points) const noexcept {
    const double seconds = params_.seconds_per_aggregated_update *
                               static_cast<double>(updates) +
                           params_.seconds_per_clustered_pair *
                               static_cast<double>(clustered_points *
                                                   clustered_points);
    telemetry::counter_add(telemetry::labels::delay_gl_ns(),
                           sim_ns(seconds));
    return seconds;
}

double DelayModel::t_bl_fair(std::size_t miners, std::size_t block_bytes,
                             support::Rng& rng) const {
    miners = std::max<std::size_t>(miners, 1);
    // Difficulty retargeting: per-miner rate scales as 1/m so the fleet's
    // block interval stays at difficulty / hashes_per_second.
    const chain::MiningRace race(
        chain::uniform_miners(miners, params_.miner_hashes_per_second /
                                          static_cast<double>(miners)),
        network_, params_.difficulty);
    const double seconds =
        race.run(block_bytes, /*allow_forks=*/false, rng).total_seconds();
    telemetry::counter_add(telemetry::labels::delay_bl_ns(),
                           sim_ns(seconds));
    return seconds;
}

double DelayModel::t_bl_vanilla(std::size_t miners, std::size_t blocks,
                                std::size_t block_bytes, support::Rng& rng,
                                std::size_t* forks_out,
                                double* merge_seconds_out) const {
    miners = std::max<std::size_t>(miners, 1);
    const chain::MiningRace race(
        chain::uniform_miners(miners, params_.miner_hashes_per_second /
                                          static_cast<double>(miners)),
        network_, params_.difficulty);
    double total = 0.0;
    std::size_t forks = 0;
    double merge_seconds = 0.0;
    for (std::size_t b = 0; b < blocks; ++b) {
        const chain::RaceOutcome outcome =
            race.run(block_bytes, /*allow_forks=*/true, rng);
        total += outcome.total_seconds();
        if (outcome.forked) {
            ++forks;
            merge_seconds += outcome.fork_merge_seconds;
        }
        // Asynchronous mining wastes part of a block interval on empty
        // blocks (miners keep hashing while FL is still computing).
        // Named product so the accumulation is not an FMA-eligible
        // expression (fp-determinism): same multiply, same add, but no
        // single expression a contracting compiler could fuse.
        const double idle_seconds =
            params_.idle_mining_fraction * outcome.solve_seconds;
        total += idle_seconds;
    }
    if (forks_out != nullptr) *forks_out = forks;
    if (merge_seconds_out != nullptr) *merge_seconds_out = merge_seconds;
    telemetry::counter_add(telemetry::labels::delay_bl_ns(), sim_ns(total));
    return total;
}

}  // namespace fairbfl::core
