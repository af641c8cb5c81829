#include "core/fairbfl.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "chain/mempool.hpp"
#include "crypto/hybrid.hpp"
#include "fl/sampling.hpp"
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

}  // namespace

FairBfl::FairBfl(const ml::Model& model, std::vector<fl::Client> clients,
                 ml::DatasetView test_set, FairBflConfig config)
    : model_(&model),
      clients_(std::move(clients)),
      test_set_(std::move(test_set)),
      config_(config),
      trainer_(fl::LocalTrainer::Options{
          .batched = config.fl.batched_training, .pool = config.pool}),
      aggregator_(config.aggregator ? config.aggregator
                                    : make_aggregator("simple")),
      consensus_(make_consensus(
          !config.consensus.empty()
              ? std::string_view(config.consensus)
              : (config.async_mining ? std::string_view("async_pow")
                                     : std::string_view("sync_pow")))),
      contribution_(config.contribution
                        ? config.contribution
                        : make_contribution_policy(config.incentive)),
      reward_(config.reward ? config.reward
                            : make_reward_policy(config.incentive.strategy)),
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

std::size_t FairBfl::batch_steps_of(std::size_t client_id) const {
    const std::size_t samples = clients_[client_id].num_samples();
    const std::size_t batch = std::max<std::size_t>(config_.fl.sgd.batch_size, 1);
    return config_.fl.sgd.epochs * ((samples + batch - 1) / batch);
}

BflRoundRecord FairBfl::run_round() {
    const std::uint64_t round = round_++;
    BflRoundRecord record;
    record.fl.round = round;
    {
        // Every span/counter of the round -- including those emitted from
        // pool workers that inherit this context at their fan-out sites --
        // is tagged with this system's session and the round number.
        const telemetry::ContextScope scope(
            telemetry_.context(static_cast<std::uint32_t>(round)));
        round_body(round, record);
    }
    // All spans are closed (fan-outs joined inside round_body), so the
    // harvest sees the complete round; the StageWall shim -- and through
    // it every perf_round.json `seconds.*` key -- is derived from the
    // event log rather than written by stopwatches.
    record.wall =
        stage_wall_from(telemetry_.harvest(static_cast<std::uint32_t>(round)));
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
    for (const std::size_t id : selected) steps.push_back(batch_steps_of(id));
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

    // --- Procedures I + II as engine phases: local learning runs eagerly
    // in parallel (the physics), then the driving thread forges / signs /
    // prices the uploads and turns each deliverable update into an
    // arrival event on the virtual clock.
    std::vector<fl::GradientUpdate> updates(selected.size());
    trainer_.ensure_capacity(clients_.size());
    const auto work = [&](std::size_t slot) {
        const std::size_t id = selected[slot];
        const telemetry::ContextScope scope(
            telemetry::current_context().with_item(
                static_cast<std::uint32_t>(id)));
        updates[slot] = trainer_.train_one(clients_, id, weights_,
                                           config_.fl.sgd, round,
                                           config_.fl.seed);
    };

    const bool encrypting =
        config_.encrypt_gradients && keys_.crypto_enabled();
    std::size_t payload = 0;
    std::vector<chain::Transaction> gradient_txs;
    const auto prepare = [&]() {
        record.delay.t_local =
            delays.t_local(selected, steps, config_.fl.seed);

        // --- Adversary: forge some updates before they leave the clients.
        const AttackReport attack = apply_attack(
            updates, weights_, config_.attack, round, config_.fl.seed);
        record.attacker_clients = attack.attacker_clients;

        payload = updates.empty() ? 0 : updates[0].payload_bytes();
        std::size_t wire_payload = payload;

        // --- Procedure II: sign and upload to a uniformly random miner,
        // optionally under hybrid encryption to that miner.  Every ordering
        // decision stays on this thread: the miner associations are drawn
        // in update order (one draw per update, whatever its verdict, as
        // in the lockstep series), the per-update crypto fans out across
        // the pool into per-update slots, and the merge walks the slots in
        // update order.  Logging happens only in the merge.
        const telemetry::Span upload_span(telemetry::labels::round_upload());
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

        // --- The delivery schedule, fault plan applied.
        const support::FaultPlan* faults = config_.fault_plan.get();
        std::vector<PendingDelivery> deliveries;
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
        return deliveries;
    };

    // Async mining races collection when the engine is engaged: empty
    // blocks are minted while the round's content is still in flight.
    MiningRaceSpec race;
    const MiningRaceSpec* race_ptr = nullptr;
    if (config_.stage_mining && config_.round.engaged() &&
        consensus_->name() == "async_pow") {
        race.mean_solve_seconds =
            static_cast<double>(config_.delay.difficulty) /
            config_.delay.miner_hashes_per_second;
        race.rng = &race_rng;
        race_ptr = &race;
    }

    const CollectOutcome outcome = engine_.collect(
        selected.size(), work, prepare, config_.pool, race_ptr);
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
    // a fresh update beats a stale carryover).
    fl::GradientSet full_set;
    for (const std::size_t idx : outcome.on_time) full_set.add(updates[idx]);
    for (auto& carried : engine_.take_carryovers())
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
        if (!outcome.late.empty()) {
            std::vector<fl::GradientUpdate> late;
            late.reserve(outcome.late.size());
            for (const std::size_t idx : outcome.late)
                late.push_back(std::move(updates[idx]));
            engine_.carry(std::move(late));
        }
        record.fl.test_accuracy = model_->accuracy(weights_, test_set_);
        record.chain_height = chain_.height();
        return;
    }

    // --- Procedure IV: provisional combine (line 24), Algorithm 2
    // (line 26), reward settlement (line 27 / Eq. 1) -- each stage behind
    // its strategy object.
    std::vector<float> provisional;
    {
        const telemetry::Span span(telemetry::labels::round_aggregate());
        provisional = aggregator_->aggregate(final_updates);
    }
    std::size_t clustered_points = 0;
    if (config_.enable_incentive) {
        // Cluster on effective gradients: weights_ still holds w_r here.
        // The index-build / shard-pass / root-pass sub-spans and the
        // index-bytes counter are emitted inside identify's callees
        // (cluster::IndexRegistry::build, incentive/hierarchical.cpp).
        incentive::ContributionReport report;
        {
            const telemetry::Span span(telemetry::labels::round_cluster());
            report =
                contribution_->identify(final_updates, provisional, weights_);
        }
        clustered_points = final_updates.size() + 1;
        // An explicitly configured aggregator governs the settlement
        // combine as well; the default keeps Eq. 1 exactly.
        {
            const telemetry::Span span(telemetry::labels::round_aggregate());
            weights_ = reward_->settle(
                final_updates, report,
                config_.aggregator ? aggregator_.get() : nullptr);
        }
        ledger_.record(round, report);
        record.round_reward_total = report.total_reward();
        record.low_contribution_clients = report.low_clients();
        record.detection_rate =
            detection_rate(record.attacker_clients,
                           record.low_contribution_clients);
        if (reward_->benches_low_contributors()) {
            for (const auto client : record.low_contribution_clients)
                benched_clients_.push_back(client);
        }
    } else {
        weights_ = provisional;
        record.detection_rate = record.attacker_clients.empty() ? 1.0 : 0.0;
    }
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

        const MiningOutcome mined = consensus_->mine(
            delays, config_.miners, record.blocks_this_round,
            std::min(block_bytes, config_.delay.max_block_bytes), bl_rng);
        record.delay.t_bl = mined.seconds;
        record.forks_this_round = mined.forks;

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
        // settlement) view.
        settled_set = full_set;
        for (const std::size_t idx : outcome.late)
            settled_set.add(updates[idx]);
        settled_set.canonicalize();
        const auto& all_updates = settled_set.updates();
        std::vector<float> provisional_all;
        {
            const telemetry::Span span(telemetry::labels::round_aggregate());
            provisional_all = aggregator_->aggregate(all_updates);
        }
        if (config_.enable_incentive) {
            incentive::ContributionReport report;
            {
                const telemetry::Span span(
                    telemetry::labels::round_cluster());
                report = contribution_->identify(all_updates, provisional_all,
                                                 round_start_weights);
            }
            {
                const telemetry::Span span(
                    telemetry::labels::round_aggregate());
                weights_ = reward_->settle(
                    all_updates, report,
                    config_.aggregator ? aggregator_.get() : nullptr);
            }
            ledger_.amend_round(round, report);
            record.round_reward_total = report.total_reward();
            record.low_contribution_clients = report.low_clients();
            record.detection_rate = detection_rate(
                record.attacker_clients, record.low_contribution_clients);
            if (reward_->benches_low_contributors()) {
                benched_clients_.clear();
                for (const auto client : record.low_contribution_clients)
                    benched_clients_.push_back(client);
            }
        } else {
            weights_ = provisional_all;
        }
        record.fl.participants = all_updates.size();
        record.fl.participant_ids.clear();
        for (const auto& u : all_updates)
            record.fl.participant_ids.push_back(u.client);
        resettled = true;
    } else if (!outcome.late.empty()) {
        std::vector<fl::GradientUpdate> late;
        late.reserve(outcome.late.size());
        for (const std::size_t idx : outcome.late)
            late.push_back(std::move(updates[idx]));
        engine_.carry(std::move(late));
    }

    // --- Metrics (over the set that actually shaped weights_).
    record.fl.test_accuracy = model_->accuracy(weights_, test_set_);
    const auto& metric_updates =
        resettled ? settled_set.updates() : final_updates;
    double loss_sum = 0.0;
    for (const auto& u : metric_updates) loss_sum += u.local_loss;
    record.fl.mean_local_loss =
        loss_sum / static_cast<double>(metric_updates.size());
}

std::vector<BflRoundRecord> FairBfl::run(std::size_t rounds) {
    if (rounds == 0) rounds = config_.fl.rounds;
    std::vector<BflRoundRecord> history;
    history.reserve(rounds);
    for (std::size_t r = 0; r < rounds; ++r) history.push_back(run_round());
    return history;
}

}  // namespace fairbfl::core
