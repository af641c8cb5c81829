#pragma once
// The paper's delay decomposition (§4.6):
//     T(n, m) = T_local + T_up + T_ex + T_gl + T_bl.
//
// All components are *simulated* seconds drawn from calibrated stochastic
// models (the paper's own evaluation is a simulation; see DESIGN.md §2 for
// the substitution note).  Magnitudes are calibrated so that the paper's
// default setting (n=100, m=2, lambda such that ~10 clients train per
// round) lands in the 4-16 s/round range of Figures 4a/6/7a.

#include <cstddef>
#include <span>
#include <vector>

#include "chain/mining_race.hpp"
#include "chain/network.hpp"
#include "support/rng.hpp"

namespace fairbfl::core {

struct DelayParams {
    // --- T_local: client compute.  One mini-batch gradient step costs
    // seconds_per_batch, scaled by a per-client lognormal heterogeneity
    // factor exp(sigma * N(0,1)) (slow phones vs fast ones).  Calibrated so
    // the paper's default setting (10 trainers/round, E=5, B=10, ~25-sample
    // shards) gives FedAvg ~6 s/round -- the Figure 4a axis.
    double seconds_per_batch = 0.25;
    double compute_hetero_sigma = 0.30;

    // --- T_gl: global update + Algorithm 2.  Aggregation is linear in the
    // number of updates; clustering is quadratic (pairwise distances).
    double seconds_per_aggregated_update = 2e-3;
    double seconds_per_clustered_pair = 2e-4;

    // --- T_bl: mining.  The network retargets difficulty to the fleet (as
    // real chains do), so the *fleet's* mean solve time is
    // difficulty / hashes_per_second regardless of the miner count; extra
    // miners change fork behaviour, not throughput.
    double miner_hashes_per_second = 1.0e6;
    std::uint64_t difficulty = 3'000'000;  ///< ~3 s mean block interval

    // --- vanilla blockchain extras.
    std::size_t max_block_bytes = 100'000;  ///< block size limit
    /// Per-transaction validation cost paid by every miner on receipt.
    double seconds_per_tx_validation = 0.02;
    /// Fraction of a block interval wasted on average by asynchronous
    /// mining (empty blocks mined before transactions arrive).
    double idle_mining_fraction = 0.35;

    chain::NetworkParams network;
};

/// One round's delay breakdown (components the system does not execute are
/// zero, which is exactly the flexibility statement of Figure 3).
struct RoundDelay {
    double t_local = 0.0;
    double t_up = 0.0;
    double t_ex = 0.0;
    double t_gl = 0.0;
    double t_bl = 0.0;

    [[nodiscard]] double total() const noexcept {
        return t_local + t_up + t_ex + t_gl + t_bl;
    }
};

class DelayModel {
public:
    explicit DelayModel(DelayParams params = {}) noexcept;

    [[nodiscard]] const DelayParams& params() const noexcept {
        return params_;
    }
    [[nodiscard]] const chain::NetworkModel& network() const noexcept {
        return network_;
    }

    /// T_local: max over the selected clients of their local training time
    /// (clients train in parallel; the round waits for the slowest --
    /// Assumption 1).  `batch_steps[i]` = E * ceil(|D_i|/B) for client i;
    /// `client_ids[i]` picks the client's fixed heterogeneity factor.
    [[nodiscard]] double t_local(std::span<const std::size_t> client_ids,
                                 std::span<const std::size_t> batch_steps,
                                 std::uint64_t seed) const;

    /// One client's slice of T_local -- the per-client term t_local()
    /// maxes over.  Pure (no telemetry): the round engine samples it per
    /// client to schedule arrivals on the virtual clock, while t_local()
    /// still reports (and counts) the round's max.
    [[nodiscard]] double t_local_client(std::size_t client_id,
                                        std::size_t batch_steps,
                                        std::uint64_t seed) const;

    /// T_up: max over clients of the upload of `payload_bytes` each
    /// (uploads are parallel; round waits for the slowest).
    [[nodiscard]] double t_up(std::size_t clients, std::size_t payload_bytes,
                              support::Rng& rng) const;

    /// Per-client upload seconds: the individual draws t_up() maxes over,
    /// in the same stream order (one draw per client).  Emits the same
    /// delay.up_ns counter (of the max) that t_up() would -- call one or
    /// the other per round, not both.
    [[nodiscard]] std::vector<double> t_up_each(std::size_t clients,
                                                std::size_t payload_bytes,
                                                support::Rng& rng) const;

    /// T_ex: all-to-all gradient-set exchange among m miners.
    [[nodiscard]] double t_ex(std::size_t miners, std::size_t set_bytes,
                              support::Rng& rng) const;

    /// T_gl: aggregation of `updates` vectors + clustering of
    /// `clustered_points` (0 = clustering skipped).
    [[nodiscard]] double t_gl(std::size_t updates,
                              std::size_t clustered_points) const noexcept;

    /// T_bl: one tightly-coupled mining competition (no forks) for a block
    /// of `block_bytes` among `miners` miners.
    [[nodiscard]] double t_bl_fair(std::size_t miners, std::size_t block_bytes,
                                   support::Rng& rng) const;

    /// Vanilla blockchain: mining `blocks` sequential blocks with forking
    /// allowed, plus idle-mining waste.  Returns total seconds and fork
    /// statistics via out-params (pass nullptr to ignore).
    [[nodiscard]] double t_bl_vanilla(std::size_t miners, std::size_t blocks,
                                      std::size_t block_bytes,
                                      support::Rng& rng,
                                      std::size_t* forks_out = nullptr,
                                      double* merge_seconds_out = nullptr) const;

private:
    /// Deterministic per-client compute heterogeneity in [~0.5, ~2].
    [[nodiscard]] double hetero_factor(std::size_t client_id,
                                       std::uint64_t seed) const;

    DelayParams params_;
    chain::NetworkModel network_;
};

}  // namespace fairbfl::core
