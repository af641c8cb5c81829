#include "fl/local_trainer.hpp"

#include "telemetry/telemetry.hpp"

namespace fairbfl::fl {

void LocalTrainer::ensure_capacity(std::size_t population) {
    if (cache_.size() < population) cache_.resize(population);
}

GradientUpdate LocalTrainer::train_one(const std::vector<Client>& clients,
                                       std::size_t client_id,
                                       std::span<const float> global_weights,
                                       const ml::SgdParams& sgd,
                                       std::uint64_t round,
                                       std::uint64_t root_seed) {
    const telemetry::Span span(telemetry::labels::local_client());
    const Client& client = clients[client_id];
    ClientCache& cache = cache_[client_id];
    const ml::PackedBatch* pack = nullptr;
    if (!client.shard().empty()) {
        // Pack once; shards are stable across rounds, so this is a
        // first-round cost only.
        if (!cache.pack.packed_from(client.shard()))
            cache.pack.pack(client.shard());
        pack = &cache.pack;
    }
    return client.local_update(global_weights, sgd, round, root_seed,
                               cache.ws, pack);
}

std::vector<GradientUpdate> LocalTrainer::run(
    const std::vector<Client>& clients,
    const std::vector<std::size_t>& selected,
    std::span<const float> global_weights, const ml::SgdParams& sgd,
    std::uint64_t round, std::uint64_t root_seed) {
    ensure_capacity(clients.size());

    std::vector<GradientUpdate> updates(selected.size());
    support::ThreadPool& pool =
        options_.pool != nullptr ? *options_.pool
                                 : support::ThreadPool::global();
    // Round context captured on the calling thread so the per-client spans
    // emitted from pool workers carry the round's session/round/parent.
    const telemetry::Context ctx = telemetry::current_context();
    support::parallel_for(
        0, selected.size(),
        [&](std::size_t slot) {
            const std::size_t id = selected[slot];
            const telemetry::ContextScope scope(
                ctx.with_item(static_cast<std::uint32_t>(id)));
            updates[slot] = train_one(clients, id, global_weights, sgd,
                                      round, root_seed);
        },
        pool);
    return updates;
}

}  // namespace fairbfl::fl
