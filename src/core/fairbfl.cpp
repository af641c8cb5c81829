#include "core/fairbfl.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "chain/mempool.hpp"
#include "crypto/hybrid.hpp"
#include "fl/sampling.hpp"
#include "incentive/hierarchical.hpp"
#include "support/logging.hpp"
#include "support/parallel.hpp"

namespace fairbfl::core {

namespace {

/// Seconds -> virtual-clock ns (the round engine's time unit).
VirtualTime sim_ns(double seconds) noexcept {
    return static_cast<VirtualTime>(seconds * 1e9);
}

/// The pool every fan-out of a system runs on.
support::ThreadPool& pool_of(const FairBflConfig& config) {
    return config.pool != nullptr ? *config.pool
                                  : support::ThreadPool::global();
}

/// What the miner concluded about one Procedure II upload.
enum class UploadVerdict : std::uint8_t {
    kDelivered,
    kBadSignature,
    kUndecryptable,
    kAltered,  ///< decrypted to a different transaction
};

/// One update's Procedure II result, written by the pool task that made it.
struct Upload {
    chain::Transaction tx;
    UploadVerdict verdict = UploadVerdict::kDelivered;
    std::size_t ciphertext_bytes = 0;  ///< 0 unless encrypted
};

/// Procedure II for one update: the client signs its gradient transaction
/// and the miner checks the signature; with `miner_node` set, the signed
/// transaction is encrypted to that miner, which decrypts it before
/// treating it as a gradient.  Reads only const key-store state and draws
/// only from the client's own Rng fork, so uploads run concurrently.
Upload make_upload(const fl::GradientUpdate& update, std::uint64_t round,
                   const crypto::KeyStore& keys,
                   std::optional<crypto::NodeId> miner_node,
                   std::uint64_t seed) {
    Upload upload;
    upload.tx = chain::make_gradient_tx(chain::TxKind::kLocalGradient,
                                        update.client, round, update.weights);
    chain::sign_transaction(upload.tx, keys);
    if (!chain::verify_transaction(upload.tx, keys)) {
        upload.verdict = UploadVerdict::kBadSignature;
        return upload;
    }
    if (!miner_node) return upload;
    auto enc_rng =
        support::Rng::fork(seed, 0xE2C00000ULL + update.client, round);
    const crypto::HybridCiphertext ciphertext = crypto::hybrid_encrypt(
        keys.public_key(*miner_node), upload.tx.encode(), enc_rng);
    upload.ciphertext_bytes = ciphertext.total_bytes();
    try {
        const auto decrypted =
            crypto::hybrid_decrypt(keys.private_key(*miner_node), ciphertext);
        chain::ByteReader reader(decrypted);
        if (!(chain::Transaction::decode(reader) == upload.tx))
            upload.verdict = UploadVerdict::kAltered;
    } catch (const std::exception&) {
        upload.verdict = UploadVerdict::kUndecryptable;
    }
    return upload;
}

/// FairBflConfig::consensus: false for "sync_pow" (Assumption 1), true
/// for "async_pow"; any other name throws.
bool is_async_pow(const std::string& consensus) {
    if (consensus == "sync_pow") return false;
    if (consensus == "async_pow") return true;
    throw std::invalid_argument("unknown consensus engine '" + consensus +
                                "' (known: sync_pow, async_pow)");
}

}  // namespace

FairBfl::FairBfl(const ml::Model& model, std::vector<fl::Client> clients,
                 ml::DatasetView test_set, FairBflConfig config)
    : model_(&model),
      clients_(std::move(clients)),
      test_set_(std::move(test_set)),
      config_(config),
      trainer_(fl::LocalTrainer::Options{.pool = config.pool}),
      aggregator_(config.aggregator ? config.aggregator
                                    : make_aggregator("simple")),
      async_pow_(is_async_pow(config.consensus)),
      keys_(config.fl.seed, config.key_bits),
      chain_(config.chain_id, config.key_bits != 0 ? &keys_ : nullptr),
      engine_(config.round),
      weights_(model.param_count(), 0.0F) {
    // The tightly coupled design models mining time stochastically; the
    // chain stores protocol-valid blocks without re-running the hash race.
    chain_.set_check_pow(false);
    // Miners get ids above the client range.  At least one miner id is
    // always registered: the mining stage signs the winner's block with
    // proxy id clients_.size(), and the upload stage addresses a proxy
    // miner, even when config.miners == 0.
    std::vector<crypto::NodeId> nodes;
    for (const auto& client : clients_) nodes.push_back(client.id());
    for (std::size_t k = 0; k < std::max<std::size_t>(config_.miners, 1); ++k)
        nodes.push_back(static_cast<crypto::NodeId>(clients_.size() + k));
    keys_.register_nodes(nodes, pool_of(config_));

    auto rng = support::Rng::fork(config_.fl.seed, /*stream=*/0x1417);
    model_->init_params(weights_, rng);
}

BflRoundRecord FairBfl::run_round() {
    const std::uint64_t round = round_++;
    BflRoundRecord record;
    record.fl.round = round;
    // Every span/counter of the round -- including those emitted from pool
    // workers that inherit this context at their fan-out sites -- is tagged
    // with this system's session and the round number.
    const telemetry::ContextScope scope(
        telemetry_.context(static_cast<std::uint32_t>(round)));
    round_body(round, record);
    return record;
}

void FairBfl::round_body(std::uint64_t round, BflRoundRecord& record) {
    // Common-random-numbers discipline: every delay component draws from
    // its own (seed, round)-keyed stream, so two configurations of the
    // same experiment (e.g. FAIR vs FAIR-Discard) see identical network
    // and mining luck and differ only through real workload changes.
    auto assoc_rng =
        support::Rng::fork(config_.fl.seed, /*stream=*/0xA550C, round);
    auto up_rng = support::Rng::fork(config_.fl.seed, /*stream=*/0x755, round);
    auto ex_rng = support::Rng::fork(config_.fl.seed, /*stream=*/0x7E8, round);
    auto bl_rng = support::Rng::fork(config_.fl.seed, /*stream=*/0x7B1, round);
    // Empty-solve intervals for the engaged async-mining race; a separate
    // stream keeps the race from perturbing the pinned t_bl draws.
    auto race_rng =
        support::Rng::fork(config_.fl.seed, /*stream=*/0xECE, round);

    // --- Client selection (Algorithm 1 line 3), minus last round's bench.
    auto selected = fl::sample_clients(clients_.size(), config_.fl.client_ratio,
                                       round, config_.fl.seed);
    selected = fl::exclude_clients(std::move(selected), benched_clients_);
    benched_clients_.clear();
    record.fl.selected = selected.size();

    const DelayModel delays(config_.delay);
    std::vector<std::size_t> steps;
    steps.reserve(selected.size());
    for (const std::size_t id : selected)
        steps.push_back(
            batch_steps(clients_[id].num_samples(), config_.fl.sgd));
    // Per-client compute times, needed up front: each client's arrival
    // event fires at its *own* t_local + t_up slice, not the round max.
    std::vector<double> local_seconds;
    local_seconds.reserve(selected.size());
    for (std::size_t i = 0; i < selected.size(); ++i)
        local_seconds.push_back(
            delays.t_local_client(selected[i], steps[i], config_.fl.seed));

    // Retroactive settlement re-clusters against w_r, which the on-time
    // pass overwrites below; keep a copy only when it can be needed.
    std::vector<float> round_start_weights;
    if (config_.round.engaged() &&
        config_.round.late_policy == LatePolicy::kRetroactive)
        round_start_weights = weights_;

    // --- Procedure I: local learning, fanned out over the pool.  Each
    // client's result only joins the round through its arrival event
    // below; per-client determinism (every client draws from its own Rng
    // fork) keeps the virtual schedule thread-count independent.
    std::vector<fl::GradientUpdate> updates;
    if (!selected.empty()) {
        const telemetry::Span span(telemetry::labels::round_local());
        updates = trainer_.run(clients_, selected, weights_, config_.fl.sgd,
                               round, config_.fl.seed);
    }
    record.delay.t_local = delays.t_local(selected, steps, config_.fl.seed);

    // --- Adversary: forge some updates before they leave the clients.
    const AttackReport attack = apply_attack(updates, weights_, config_.attack,
                                             round, config_.fl.seed);
    record.attacker_clients = attack.attacker_clients;

    // --- Procedure II: sign and upload to a uniformly random miner,
    // optionally under hybrid encryption to that miner, and turn each
    // deliverable update into a scheduled arrival on the virtual clock.
    // Every ordering decision stays on this thread: the miner associations
    // are drawn in update order (one draw per update, whatever its
    // verdict, as in the lockstep series), the per-update crypto fans out
    // across the pool into per-update slots, and the merge walks the slots
    // in update order.  Logging happens only in the merge.
    const std::size_t payload =
        updates.empty() ? 0 : updates[0].payload_bytes();
    std::vector<chain::Transaction> gradient_txs;
    std::vector<PendingDelivery> deliveries;
    {
        const telemetry::Span upload_span(telemetry::labels::round_upload());
        const bool encrypting =
            config_.encrypt_gradients && keys_.crypto_enabled();
        const std::size_t miner_count =
            std::max<std::size_t>(config_.miners, 1);
        std::vector<crypto::NodeId> miners;
        miners.reserve(updates.size());
        for (std::size_t i = 0; i < updates.size(); ++i) {
            // Miner association: uniform random (paper §4.2).
            const auto miner = static_cast<std::size_t>(assoc_rng.uniform_int(
                0, static_cast<std::int64_t>(miner_count) - 1));
            miners.push_back(
                static_cast<crypto::NodeId>(clients_.size() + miner));
        }

        std::vector<Upload> uploads(updates.size());
        const telemetry::Context ctx = telemetry::current_context();
        support::parallel_for(
            0, updates.size(),
            [&](std::size_t i) {
                const telemetry::ContextScope scope(ctx);
                uploads[i] = make_upload(
                    updates[i], round, keys_,
                    encrypting ? std::optional(miners[i]) : std::nullopt,
                    config_.fl.seed);
            },
            pool_of(config_));

        // An undecryptable or altered upload is dropped, like a bad
        // signature.
        std::size_t wire_payload = payload;
        gradient_txs.reserve(updates.size());
        std::vector<bool> deliverable(updates.size(), false);
        for (std::size_t i = 0; i < updates.size(); ++i) {
            Upload& upload = uploads[i];
            wire_payload = std::max(wire_payload, upload.ciphertext_bytes);
            if (upload.verdict == UploadVerdict::kBadSignature) {
                FAIRBFL_LOG_WARN(
                    "round %llu: dropping update with bad signature "
                    "from client %u",
                    static_cast<unsigned long long>(round),
                    updates[i].client);
                continue;
            }
            if (upload.verdict == UploadVerdict::kUndecryptable) {
                FAIRBFL_LOG_WARN(
                    "round %llu: dropping undecryptable upload from %u",
                    static_cast<unsigned long long>(round),
                    updates[i].client);
                continue;
            }
            if (upload.verdict != UploadVerdict::kDelivered) continue;
            deliverable[i] = true;
            gradient_txs.push_back(std::move(upload.tx));
        }
        const std::vector<double> up_seconds =
            delays.t_up_each(updates.size(), wire_payload, up_rng);
        double slowest_up = 0.0;
        for (const double s : up_seconds)
            slowest_up = std::max(slowest_up, s);
        record.delay.t_up = slowest_up;

        // The delivery schedule, fault plan applied.
        const support::FaultPlan* faults = config_.fault_plan.get();
        deliveries.reserve(updates.size());
        for (std::size_t i = 0; i < updates.size(); ++i) {
            if (!deliverable[i]) continue;
            const fl::NodeId client = updates[i].client;
            if (faults != nullptr && faults->dropped(round, client))
                continue;
            const double factor =
                faults != nullptr ? faults->delay_factor(round, client)
                                  : 1.0;
            const double seconds =
                (local_seconds[i] + up_seconds[i]) * factor;
            deliveries.push_back({i, sim_ns(seconds), false});
            const std::size_t copies =
                faults != nullptr ? faults->duplicates(round, client) : 0;
            for (std::size_t c = 0; c < copies; ++c) {
                // Each replay trails the original by one more upload
                // interval -- deterministic, no fresh randomness.
                const double replay =
                    seconds + static_cast<double>(c + 1) * up_seconds[i];
                deliveries.push_back({i, sim_ns(replay), true});
            }
        }
    }

    // Async mining races collection when the engine is engaged: empty
    // blocks are minted while the round's content is still in flight.
    MiningRaceSpec race;
    const MiningRaceSpec* race_ptr = nullptr;
    if (config_.stage_mining && config_.round.engaged() && async_pow_) {
        race.mean_solve_seconds =
            static_cast<double>(config_.delay.difficulty) /
            config_.delay.miner_hashes_per_second;
        race.rng = &race_rng;
        race_ptr = &race;
    }

    const CollectOutcome outcome = engine_.collect(deliveries, race_ptr);
    record.on_time_updates = outcome.on_time.size();
    record.late_updates = outcome.late.size();
    record.duplicate_updates_dropped = outcome.duplicates_dropped;
    record.quorum_needed = outcome.quorum_needed;
    record.deadline_fired = outcome.deadline_fired;
    record.wait_quorum_seconds = outcome.wait_quorum_seconds();
    record.empty_blocks_this_round = outcome.empty_blocks;

    // --- Procedure III: miners exchange gradient sets until identical.
    // Membership is whatever actually arrived on time, plus prior rounds'
    // late joiners (GradientSet::add keeps the first copy per client, so
    // a fresh update beats a stale carryover).  An on-time update is never
    // read from `updates` again, so it moves into the set.
    fl::GradientSet full_set;
    for (const std::size_t idx : outcome.on_time)
        full_set.add(std::move(updates[idx]));
    for (auto& carried : std::exchange(carryovers_, {}))
        if (full_set.add(std::move(carried))) ++record.carried_in_updates;
    full_set.canonicalize();
    if (config_.stage_exchange && config_.miners > 1) {
        const std::size_t set_bytes = payload * full_set.size();
        record.delay.t_ex = delays.t_ex(config_.miners, set_bytes, ex_rng);
    }

    const auto& final_updates = full_set.updates();
    record.fl.participants = final_updates.size();
    for (const auto& u : final_updates)
        record.fl.participant_ids.push_back(u.client);
    if (final_updates.empty()) {
        // Nothing arrived on time (all clients benched / dropped): keep
        // the weights; late stragglers still join the next round.
        for (const std::size_t idx : outcome.late)
            carryovers_.push_back(std::move(updates[idx]));
        record.fl.test_accuracy =
            model_->accuracy(weights_, test_set_, pool_of(config_));
        record.chain_height = chain_.height();
        return;
    }

    // --- Procedure IV over the on-time set.  weights_ still holds w_r
    // here, so it is Algorithm 2's reference.
    settle_round(round, final_updates, weights_, /*amend=*/false, record);
    const std::size_t clustered_points =
        config_.enable_incentive ? final_updates.size() + 1 : 0;
    record.delay.t_gl = delays.t_gl(final_updates.size(), clustered_points);

    // --- Procedure V: the winner packs the block; consensus accepts it.
    if (config_.stage_mining) {
        const telemetry::Span span(telemetry::labels::round_mine());
        chain::Block block;
        block.header.index = chain_.tip().header.index + 1;
        block.header.prev_hash = chain_.tip().header.hash();
        block.header.difficulty = config_.delay.difficulty;
        block.header.timestamp_ms = round * 1000;

        const auto miner_id =
            static_cast<crypto::NodeId>(clients_.size());  // winner proxy id
        block.transactions.push_back(chain::make_gradient_tx(
            chain::TxKind::kGlobalUpdate, miner_id, round, weights_));
        for (const auto& entry : ledger_.history()) {
            if (entry.round != round) continue;
            block.transactions.push_back(chain::make_reward_tx(
                miner_id, round, entry.client, entry.amount));
        }
        // The order is fixed above; the signatures are independent.
        const telemetry::Context ctx = telemetry::current_context();
        support::parallel_for(
            0, block.transactions.size(),
            [&](std::size_t i) {
                const telemetry::ContextScope scope(ctx);
                chain::sign_transaction(block.transactions[i], keys_);
            },
            pool_of(config_));
        if (config_.record_local_gradients) {
            // Assumption 2 ablation: local gradients go on-chain too.
            for (auto& tx : gradient_txs)
                block.transactions.push_back(std::move(tx));
        }
        block.seal_transactions();

        const std::size_t block_bytes = block.size_bytes();
        if (config_.record_local_gradients) {
            // Over-capacity content splits across multiple sequential
            // blocks (queuing), and asynchronous mining may fork.
            chain::Mempool pool(config_.delay.max_block_bytes);
            pool.add_all(block.transactions);
            record.blocks_this_round = pool.blocks_to_drain();
        } else {
            record.blocks_this_round = 1;
        }

        // Assumption 1 prices one synchronized race per block; without
        // it miners race concurrently, with forks and idle-block waste.
        const std::size_t mined_bytes =
            std::min(block_bytes, config_.delay.max_block_bytes);
        if (async_pow_) {
            record.delay.t_bl = delays.t_bl_vanilla(
                config_.miners, record.blocks_this_round, mined_bytes,
                bl_rng, &record.forks_this_round);
        } else {
            for (std::size_t b = 0; b < record.blocks_this_round; ++b)
                record.delay.t_bl +=
                    delays.t_bl_fair(config_.miners, mined_bytes, bl_rng);
        }

        const chain::BlockVerdict verdict = chain_.submit(block);
        if (verdict != chain::BlockVerdict::kAccepted) {
            FAIRBFL_LOG_ERROR("round %llu: block rejected (%s)",
                              static_cast<unsigned long long>(round),
                              chain::to_string(verdict).c_str());
        }
    }
    record.chain_height = chain_.height();

    // --- Late gradients (engaged configs only; the degenerate config has
    // none by construction).
    bool resettled = false;
    fl::GradientSet settled_set;
    if (!outcome.late.empty() &&
        config_.round.late_policy == LatePolicy::kRetroactive) {
        // Retroactive settlement: re-run Procedure IV over on-time + late
        // and amend the ledger in place, preserving per-round budget
        // conservation.  The on-time block already sealed this round's
        // chain entry; the amended rewards are the ledger's (off-chain
        // settlement) view.  The on-time set and the late updates move
        // in; on this path neither `final_updates` nor `updates` is read
        // again.
        settled_set = std::move(full_set);
        for (const std::size_t idx : outcome.late)
            settled_set.add(std::move(updates[idx]));
        settled_set.canonicalize();
        const auto& all_updates = settled_set.updates();
        settle_round(round, all_updates, round_start_weights,
                     /*amend=*/true, record);
        record.fl.participants = all_updates.size();
        record.fl.participant_ids.clear();
        for (const auto& u : all_updates)
            record.fl.participant_ids.push_back(u.client);
        resettled = true;
    } else {
        for (const std::size_t idx : outcome.late)
            carryovers_.push_back(std::move(updates[idx]));
    }

    // --- Metrics (over the set that actually shaped weights_).
    record.fl.test_accuracy =
        model_->accuracy(weights_, test_set_, pool_of(config_));
    const auto& metric_updates =
        resettled ? settled_set.updates() : final_updates;
    double loss_sum = 0.0;
    for (const auto& u : metric_updates) loss_sum += u.local_loss;
    record.fl.mean_local_loss =
        loss_sum / static_cast<double>(metric_updates.size());
}

void FairBfl::settle_round(std::uint64_t round,
                           std::span<const fl::GradientUpdate> updates,
                           std::span<const float> reference, bool amend,
                           BflRoundRecord& record) {
    // Provisional combine (line 24), Algorithm 2 (line 26), reward
    // settlement (line 27 / Eq. 1).
    std::vector<float> provisional;
    {
        const telemetry::Span span(telemetry::labels::round_aggregate());
        provisional = aggregator_->aggregate(updates);
    }
    if (!config_.enable_incentive) {
        weights_ = std::move(provisional);
        record.detection_rate = record.attacker_clients.empty() ? 1.0 : 0.0;
        return;
    }
    // Cluster on effective gradients against w_r -- flat, or the shard
    // tree when config_.incentive.sharding asks for one.  The index-build /
    // shard-pass / root-pass sub-spans and the index-bytes counter are
    // emitted inside the callees (cluster::IndexRegistry::build,
    // incentive/hierarchical.cpp).
    const incentive::LowContributionStrategy strategy =
        config_.incentive.strategy;
    incentive::ContributionReport report;
    {
        const telemetry::Span span(telemetry::labels::round_cluster());
        report = incentive::identify_contributions_hierarchical(
            updates, provisional, config_.incentive, reference,
            pool_of(config_));
    }
    {
        const telemetry::Span span(telemetry::labels::round_aggregate());
        if (!config_.aggregator) {
            // Eq. 1 exactly (a shard tree's report arrives pre-settled).
            weights_ = incentive::apply_strategy(updates, report, strategy);
        } else {
            // The configured rule combines the same survivors, with the
            // same degenerate-theta fallback, in its score-weighted form.
            // It takes whole updates, so the survivors are gathered only
            // when the strategy dropped one.
            const incentive::SurvivorSelection selection =
                incentive::select_survivors(updates, report, strategy);
            std::vector<fl::GradientUpdate> gathered;
            std::span<const fl::GradientUpdate> survivors = updates;
            if (selection.indices.size() != updates.size()) {
                gathered.reserve(selection.indices.size());
                for (const std::size_t i : selection.indices)
                    gathered.push_back(updates[i]);
                survivors = gathered;
            }
            weights_ = selection.degenerate()
                           ? aggregator_->aggregate(survivors)
                           : aggregator_->aggregate_weighted(
                                 survivors, selection.theta);
        }
    }
    if (amend)
        ledger_.amend_round(round, report);
    else
        ledger_.record(round, report);
    record.round_reward_total = report.total_reward();
    record.low_contribution_clients = report.low_clients();
    record.detection_rate = detection_rate(record.attacker_clients,
                                           record.low_contribution_clients);
    if (strategy == incentive::LowContributionStrategy::kDiscard)
        benched_clients_.assign(record.low_contribution_clients.begin(),
                                record.low_contribution_clients.end());
}

std::vector<BflRoundRecord> FairBfl::run(std::size_t rounds) {
    if (rounds == 0) rounds = config_.fl.rounds;
    std::vector<BflRoundRecord> history;
    history.reserve(rounds);
    for (std::size_t r = 0; r < rounds; ++r) history.push_back(run_round());
    return history;
}

}  // namespace fairbfl::core
