#pragma once
// The Procedure-I engine: one object per system that drives the selected
// clients' local SGD (Algorithm 1 lines 6-11) through the thread pool on
// the batched ml kernels.  FairBfl, VanillaBfl and the FedProx loop all
// call run(); FairBfl wraps the call in its "round.local" span.
//
// The trainer owns, per client, a PackedBatch (the shard gathered once
// into contiguous rows -- shards never change across rounds) and a
// TrainWorkspace (all SGD scratch), so the steady-state round performs
// zero heap allocation in the hot loop and streams cache-resident packed
// features instead of chasing shard indices through the full dataset.
//
// Determinism: every client draws only from Rng::fork(root_seed, id,
// round), and the batched kernels are bit-identical to the per-sample
// path of Client::local_update (the test oracle, pinned in
// tests/test_train_engine.cpp), so parallel order never changes results.

#include <span>
#include <vector>

#include "fl/client.hpp"
#include "support/parallel.hpp"

namespace fairbfl::fl {

class LocalTrainer {
public:
    struct Options {
        /// Pool for the client fan-out; null = ThreadPool::global().
        support::ThreadPool* pool = nullptr;
    };

    /// Engine with default options (global pool).
    LocalTrainer() noexcept : LocalTrainer(Options{}) {}
    /// Engine with explicit options.
    /// \param options fan-out pool.
    explicit LocalTrainer(Options options) noexcept : options_(options) {}

    /// Runs the selected clients' local updates in parallel and returns
    /// them in selection order.
    /// \param clients        the full client population (stable ids).
    /// \param selected       ids of this round's participants.
    /// \param global_weights w_r, the weights every client starts from.
    /// \param sgd            local SGD hyperparameters (Algorithm 1).
    /// \param round          round ordinal, keys each client's Rng fork.
    /// \param root_seed      experiment seed, keys each client's Rng fork.
    [[nodiscard]] std::vector<GradientUpdate> run(
        const std::vector<Client>& clients,
        const std::vector<std::size_t>& selected,
        std::span<const float> global_weights, const ml::SgdParams& sgd,
        std::uint64_t round, std::uint64_t root_seed);

    /// Sizes the per-client cache for a population.  Must be called (once
    /// per population size) before train_one() runs from pool workers:
    /// the cache vector may not grow during a fan-out.  run() calls it
    /// itself.
    void ensure_capacity(std::size_t population);

    /// Trains exactly one client -- the body of run()'s fan-out, also
    /// timed on its own by perfbench's fl.train_one probe.  Identical
    /// math to the matching run() slot (same Rng fork, same kernels).
    /// Safe to call concurrently for *distinct* client ids once
    /// ensure_capacity(clients.size()) has run; emits a "local.client"
    /// span under the caller's telemetry context.
    [[nodiscard]] GradientUpdate train_one(const std::vector<Client>& clients,
                                           std::size_t client_id,
                                           std::span<const float> global_weights,
                                           const ml::SgdParams& sgd,
                                           std::uint64_t round,
                                           std::uint64_t root_seed);

private:
    /// Per-client caches, indexed by client id.  Distinct clients are
    /// touched by distinct parallel iterations, so no locking is needed;
    /// the vector is sized before the fan-out.
    struct ClientCache {
        ml::PackedBatch pack;
        ml::TrainWorkspace ws;
    };

    Options options_;
    std::vector<ClientCache> cache_;
};

}  // namespace fairbfl::fl
