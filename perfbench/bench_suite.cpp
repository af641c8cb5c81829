// bench_suite: one pass of one FAIR-BFL benchmark workload, printed as a
// single JSON object on stdout.  perfbench/suite.py is the driver: it
// builds this binary, runs every pass as a fresh process, checks the
// passes against each other, and turns them into the metrics that
// BENCHMARK.json names.
//
//   bench_suite --workload=train_heavy --seed=42 --rounds=103  # e2e pass
//   bench_suite --workload=train_heavy --seed=42 --rounds=23 --trace
//   bench_suite --workload=train_heavy --seed=42 --probe       # layer probe
//   bench_suite --calibrate                                    # host spin
//
// A pass drives the public core::FairBfl directly (the "fairbfl" registry
// factory is a thin wrapper around it) and times each run_round() from
// outside with steady_clock.  Telemetry is on by default in the library,
// so an untraced pass switches it off; a traced pass keeps it on, wraps
// each round in a "bench.round" span and reads the library's own spans
// and counters back through a capture.  FairBflConfig::pool stays null:
// one process-global pool of nproc threads serves every fan-out.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "chain/block.hpp"
#include "chain/chain.hpp"
#include "chain/transaction.hpp"
#include "cluster/index.hpp"
#include "core/experiment.hpp"
#include "core/fairbfl.hpp"
#include "crypto/hybrid.hpp"
#include "crypto/keystore.hpp"
#include "crypto/sha256.hpp"
#include "fl/local_trainer.hpp"
#include "fl/sampling.hpp"
#include "incentive/contribution.hpp"
#include "support/cli.hpp"
#include "support/fault_plan.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "telemetry/decode.hpp"
#include "telemetry/telemetry.hpp"

using namespace fairbfl;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Workloads ---------------------------------------------------------------

/// The paper's logistic model on 784 features: 7850 parameters.
constexpr std::size_t kFeatureDim = 784;
/// Key size of every crypto probe and of the workload that signs.
constexpr std::size_t kProbeKeyBits = 1024;
/// Calls per layer probe; odd, so the median is one measured call.
constexpr std::size_t kProbeCalls = 21;
/// The system's own seed (RSA keys, SGD shuffles, attacker draws, network
/// and mining luck).  --seed varies only the inputs -- dataset, partition
/// and fault plan -- so every seed runs the same protocol work: with
/// per-seed keys, modular-exponentiation cost alone moved secure_upload's
/// round time by a quarter from seed to seed.
constexpr std::uint64_t kProtocolSeed = 42;

/// One benchmark workload: the shape of the world and which FAIR-BFL
/// layers it switches on.  Everything not listed keeps the program
/// default; every client takes part in every round.
struct Workload {
    const char* name;
    std::size_t clients;
    std::size_t samples_per_client;
    std::size_t epochs;
    /// RSA key size; 0 leaves Procedure II's signing and encryption and
    /// the chain's signature checks off.
    std::size_t key_bits;
    /// Algorithm-2 neighbourhood backend.
    const char* index;
    /// Sign-flip attackers, the discard strategy, a quorum/deadline round
    /// with retroactive settlement, and a sampled fault plan.
    bool adversarial;
};

constexpr Workload kWorkloads[] = {
    {"train_heavy", 32, 100, 5, 0, "exact", false},
    {"cluster_heavy", 192, 12, 1, 0, "exact", false},
    {"secure_upload", 4, 25, 5, kProbeKeyBits, "exact", false},
    {"async_adversarial", 128, 25, 3, 0, "random_projection", true},
};

const Workload* find_workload(std::string_view name) {
    for (const Workload& w : kWorkloads)
        if (name == w.name) return &w;
    return nullptr;
}

core::EnvironmentConfig environment_config(const Workload& w,
                                           std::uint64_t seed) {
    core::EnvironmentConfig cfg;
    cfg.data.feature_dim = kFeatureDim;
    // Size the dataset so each client's training shard holds
    // samples_per_client rows after the test split.
    cfg.data.samples = static_cast<std::size_t>(std::ceil(
        static_cast<double>(w.clients * w.samples_per_client) /
        (1.0 - cfg.test_fraction)));
    cfg.data.seed = seed;
    cfg.partition.num_clients = w.clients;
    cfg.partition.seed = seed;
    return cfg;
}

core::FairBflConfig fair_config(const Workload& w, std::uint64_t seed,
                                std::size_t rounds) {
    core::FairBflConfig cfg;
    cfg.fl.client_ratio = 1.0;
    cfg.fl.rounds = rounds;
    cfg.fl.seed = kProtocolSeed;
    cfg.fl.sgd.epochs = w.epochs;
    cfg.key_bits = w.key_bits;
    cfg.encrypt_gradients = w.key_bits > 0;
    cfg.incentive.index = w.index;
    if (w.adversarial) {
        cfg.incentive.strategy = incentive::LowContributionStrategy::kDiscard;
        cfg.attack.kind = core::AttackKind::kSignFlip;
        cfg.attack.min_attackers = w.clients / 20;
        cfg.attack.max_attackers = w.clients / 10;
        cfg.round.quorum_fraction = 0.8;
        cfg.round.deadline_ns = 40'000'000'000ULL;  // 40 virtual seconds
        cfg.round.late_policy = core::LatePolicy::kRetroactive;
        support::FaultSpec faults;
        faults.churn_rate = 0.02;
        faults.straggler_rate = 0.05;
        faults.duplicate_rate = 0.02;
        cfg.fault_plan = std::make_shared<support::FaultPlan>(
            support::FaultPlan::sampled(faults, seed, rounds,
                                        static_cast<std::uint32_t>(w.clients)));
    }
    return cfg;
}

/// The built world of one pass.  The environment lives behind a
/// unique_ptr because FairBfl keeps pointers into its model and dataset.
struct World {
    std::unique_ptr<core::Environment> env;
    std::unique_ptr<core::FairBfl> system;
};

World build_world(const Workload& w, std::uint64_t seed, std::size_t rounds) {
    World world;
    world.env = std::make_unique<core::Environment>(
        core::build_environment(environment_config(w, seed)));
    world.system = std::make_unique<core::FairBfl>(
        *world.env->model, world.env->make_clients(), world.env->test,
        fair_config(w, seed, rounds));
    return world;
}

// --- JSON output ------------------------------------------------------------

/// Minimal writer for the one flat-ish object each mode prints.
class Json {
public:
    Json() { out_ = "{"; }

    Json& key(std::string_view k) {
        if (out_.back() != '{' && out_.back() != '[') out_ += ", ";
        out_ += '"';
        out_ += k;
        out_ += "\": ";
        return *this;
    }
    Json& num(std::string_view k, double v) {
        key(k);
        append_number(v);
        return *this;
    }
    Json& str(std::string_view k, std::string_view v) {
        key(k);
        append_string(v);
        return *this;
    }
    Json& boolean(std::string_view k, bool v) {
        key(k);
        out_ += v ? "true" : "false";
        return *this;
    }
    Json& numbers(std::string_view k, const std::vector<double>& values) {
        key(k);
        out_ += '[';
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i > 0) out_ += ", ";
            append_number(values[i]);
        }
        out_ += ']';
        return *this;
    }
    Json& strings(std::string_view k, const std::vector<std::string>& values) {
        key(k);
        out_ += '[';
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i > 0) out_ += ", ";
            append_string(values[i]);
        }
        out_ += ']';
        return *this;
    }
    /// Embeds an already-rendered object or array.
    Json& raw(std::string_view k, std::string_view rendered) {
        key(k);
        out_ += rendered;
        return *this;
    }
    [[nodiscard]] std::string done() const { return out_ + "}"; }

private:
    void append_number(double v) {
        if (!std::isfinite(v)) {
            out_ += "null";
            return;
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        out_ += buf;
    }
    void append_string(std::string_view v) {
        out_ += '"';
        for (const char c : v) {
            if (c == '"' || c == '\\') out_ += '\\';
            out_ += (c == '\n') ? ' ' : c;
        }
        out_ += '"';
    }

    std::string out_;
};

double peak_rss_kb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

/// Host facts every pass reports (suite.py copies them into the result
/// file's host block).
void host_fields(Json& json) {
    json.str("kernels", support::simd::active_name())
        .num("pool_threads", support::ThreadPool::global().size())
        .boolean("telemetry", telemetry::enabled());
}

// --- Round checks -----------------------------------------------------------

/// Why `record` breaks a round invariant, or "" when every check holds:
/// finite global weights, reward-budget conservation, one accepted block
/// per aggregated round, and membership (every selected client ended the
/// round on time, late, or dropped by the fault plan).
std::string check_round(const core::FairBfl& system,
                        const core::BflRoundRecord& record,
                        std::size_t height_before,
                        const std::vector<std::size_t>& selected) {
    for (const float w : system.weights())
        if (!std::isfinite(w)) return "non-finite global weight";

    const core::FairBflConfig& cfg = system.config();
    const bool aggregated = record.fl.participants > 0;
    const bool high_exists =
        aggregated &&
        record.low_contribution_clients.size() < record.fl.participants;
    const double budget = cfg.enable_incentive && high_exists
                              ? cfg.incentive.reward_base
                              : 0.0;
    if (std::abs(record.round_reward_total - budget) > 1e-9)
        return "round reward total " +
               std::to_string(record.round_reward_total) + " != budget " +
               std::to_string(budget);

    const std::size_t height = system.blockchain().height();
    const std::size_t blocks = cfg.stage_mining && aggregated ? 1 : 0;
    if (height != height_before + blocks || record.chain_height != height)
        return "chain height " + std::to_string(height) + " after " +
               std::to_string(height_before) + " with " +
               std::to_string(blocks) + " block(s) due";

    std::size_t dropped = 0;
    if (const support::FaultPlan* plan = cfg.fault_plan.get()) {
        for (const std::size_t id : selected)
            if (plan->dropped(record.fl.round, static_cast<std::uint32_t>(id)))
                ++dropped;
    }
    if (record.fl.selected != selected.size() ||
        record.on_time_updates + record.late_updates + dropped !=
            selected.size())
        return "membership: selected " + std::to_string(selected.size()) +
               ", on-time " + std::to_string(record.on_time_updates) +
               ", late " + std::to_string(record.late_updates) +
               ", dropped " + std::to_string(dropped);
    return "";
}

/// The clients FairBfl must select this round: everyone (ratio 1.0) minus
/// the low contributors the discard strategy benched last round.
std::vector<std::size_t> expected_selection(
    const core::FairBfl& system, std::uint64_t round,
    const std::vector<fl::NodeId>& previous_low) {
    const core::FairBflConfig& cfg = system.config();
    auto selected = fl::sample_clients(system.clients().size(),
                                       cfg.fl.client_ratio, round,
                                       cfg.fl.seed);
    if (cfg.incentive.strategy == incentive::LowContributionStrategy::kDiscard)
        selected = fl::exclude_clients(
            std::move(selected),
            std::vector<std::size_t>(previous_low.begin(),
                                     previous_low.end()));
    return selected;
}

// --- Traced-pass analysis ---------------------------------------------------

/// Child span ids by parent span id.
using Children = std::multimap<std::uint64_t, std::uint64_t>;

/// One completed span of the captured log.
struct SpanRec {
    std::string_view label;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t parent = 0;
    std::uint32_t session = 0;
    std::uint32_t round = 0;
};

std::map<std::uint64_t, SpanRec> completed_spans(const telemetry::Dump& dump) {
    std::map<std::uint64_t, SpanRec> open;
    std::map<std::uint64_t, SpanRec> done;
    for (const telemetry::Record& r : dump.records) {
        if (r.kind == telemetry::RecordKind::kSpanBegin) {
            open[r.value] = SpanRec{dump.name_of(r.label), r.time_ns, 0,
                                    r.parent, r.session, r.round};
        } else if (r.kind == telemetry::RecordKind::kSpanEnd) {
            const auto it = open.find(r.value);
            if (it == open.end()) continue;
            it->second.end_ns = r.time_ns;
            done.emplace(it->first, it->second);
            open.erase(it);
        }
    }
    return done;
}

/// Span time not covered by any of its children (children may run on
/// other threads and overlap, so their union is subtracted).
double self_seconds(std::uint64_t id, const SpanRec& span,
                    const Children& kids,
                    const std::map<std::uint64_t, SpanRec>& spans) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    const auto [first, last] = kids.equal_range(id);
    for (auto it = first; it != last; ++it) {
        const SpanRec& child = spans.at(it->second);
        covered.emplace_back(std::max(child.begin_ns, span.begin_ns),
                             std::min(child.end_ns, span.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t busy = 0;
    std::uint64_t reach = span.begin_ns;
    for (const auto& [lo, hi] : covered) {
        const std::uint64_t from = std::max(lo, reach);
        if (hi > from) {
            busy += hi - from;
            reach = hi;
        }
    }
    return static_cast<double>(span.end_ns - span.begin_ns - busy) * 1e-9;
}

double median_of(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

/// Per-round layer readings of one traced round, rendered as JSON.
std::string round_layers(const telemetry::Dump& dump,
                         const std::map<std::uint64_t, SpanRec>& spans,
                         const Children& kids,
                         std::uint32_t session, std::uint32_t round) {
    const telemetry::RoundStats stats =
        telemetry::dump_round_stats(dump, session, round);
    const auto calls = [&](std::string_view label) {
        const auto it = stats.labels.find(label);
        return it == stats.labels.end() ? 0.0
                                        : static_cast<double>(it->second.spans);
    };
    std::vector<double> client_seconds;
    double scan_seconds = 0.0;
    for (const auto& [id, span] : spans) {
        if (span.session != session || span.round != round) continue;
        if (span.label == "local.client")
            client_seconds.push_back(
                static_cast<double>(span.end_ns - span.begin_ns) * 1e-9);
        else if (span.label == "cluster.identify")
            scan_seconds += self_seconds(id, span, kids, spans);
    }
    double client_sum = 0.0;
    for (const double s : client_seconds) client_sum += s;

    Json json;
    json.num("round_s", stats.seconds_of("bench.round"))
        .num("local_s", stats.seconds_of("round.local"))
        .num("cluster_s", stats.seconds_of("round.cluster"))
        .num("aggregate_s", stats.seconds_of("round.aggregate"))
        .num("aggregate_calls", calls("round.aggregate"))
        .num("mine_s", stats.seconds_of("round.mine"))
        .num("local_client_calls", calls("local.client"))
        .num("local_client_sum_s", client_sum)
        .num("local_client_p50_s", median_of(client_seconds))
        .num("identify_calls", calls("cluster.identify"))
        .num("scan_s", scan_seconds)
        .num("index_build_s", stats.seconds_of("cluster.index_build"))
        .num("index_build_calls", calls("cluster.index_build"))
        .num("index_reuse", static_cast<double>(
                                stats.sum_of("cluster.index_reuse")))
        .num("index_bytes", static_cast<double>(
                                stats.max_of("cluster.index_bytes")))
        .num("engine_events", calls("engine.event"))
        .num("engine_event_s", stats.seconds_of("engine.event"));
    return json.done();
}

// --- Pass -------------------------------------------------------------------

int run_pass(const Workload& w, std::uint64_t seed, std::size_t rounds,
             bool traced) {
    telemetry::set_enabled(traced);
    const telemetry::Label bench_round = telemetry::intern("bench.round");

    const auto setup_start = Clock::now();
    World world = build_world(w, seed, rounds);
    const double setup_s = seconds_since(setup_start);
    core::FairBfl& system = *world.system;

    std::vector<double> round_s;
    std::vector<double> selected_n;
    std::vector<double> participants;
    std::vector<double> useful;
    std::vector<double> late;
    std::vector<double> sim_delay;
    std::vector<double> detection;
    std::vector<std::string> failures;
    std::vector<fl::NodeId> previous_low;
    double final_accuracy = 0.0;

    if (traced) telemetry::capture_begin();
    for (std::size_t r = 0; r < rounds; ++r) {
        const std::vector<std::size_t> selected =
            expected_selection(system, r, previous_low);
        const std::size_t height_before = system.blockchain().height();
        core::BflRoundRecord record;
        std::string failure;
        double seconds = 0.0;
        try {
            // Tag the bench span with the system's session and round so
            // the library's spans of this round nest under it.
            const telemetry::ContextScope scope(
                system.telemetry_session().context(
                    static_cast<std::uint32_t>(r)));
            const telemetry::Span span(bench_round);
            const auto start = Clock::now();
            record = system.run_round();
            seconds = seconds_since(start);
        } catch (const std::exception& e) {
            failure = std::string("run_round threw: ") + e.what();
        }
        if (failure.empty())
            failure = check_round(system, record, height_before, selected);
        if (!failure.empty())
            failures.push_back("round " + std::to_string(r) + ": " + failure);

        const bool discard = system.config().incentive.strategy ==
                             incentive::LowContributionStrategy::kDiscard;
        const std::size_t discarded =
            discard ? record.low_contribution_clients.size() : 0;
        round_s.push_back(seconds);
        selected_n.push_back(static_cast<double>(selected.size()));
        participants.push_back(static_cast<double>(record.fl.participants));
        useful.push_back(static_cast<double>(
            record.fl.participants -
            std::min(discarded, record.fl.participants)));
        late.push_back(static_cast<double>(record.late_updates));
        sim_delay.push_back(record.delay.total());
        detection.push_back(record.detection_rate);
        final_accuracy = record.fl.test_accuracy;
        previous_low = record.low_contribution_clients;
    }

    std::vector<std::string> layers;
    if (traced) {
        const telemetry::Dump dump = telemetry::capture_end();
        const auto spans = completed_spans(dump);
        Children kids;
        for (const auto& [id, span] : spans) kids.emplace(span.parent, id);
        const std::uint32_t session = system.telemetry_session().id();
        for (std::size_t r = 0; r < rounds; ++r)
            layers.push_back(round_layers(dump, spans, kids, session,
                                          static_cast<std::uint32_t>(r)));
    }

    const auto weights = system.weights();
    const crypto::Digest weight_hash = crypto::Sha256::hash(std::span(
        reinterpret_cast<const std::uint8_t*>(weights.data()),
        weights.size_bytes()));
    char ledger_total[40];
    std::snprintf(ledger_total, sizeof ledger_total, "%.17g",
                  system.ledger().grand_total());
    const std::string digest =
        crypto::to_hex(weight_hash) + "/" + ledger_total + "/" +
        crypto::to_hex(system.blockchain().tip().header.hash());

    std::string layer_array = "[";
    for (std::size_t i = 0; i < layers.size(); ++i)
        layer_array += (i > 0 ? ", " : "") + layers[i];
    layer_array += "]";

    Json json;
    json.str("mode", traced ? "traced" : "pass")
        .str("workload", w.name)
        .num("seed", static_cast<double>(seed))
        .num("clients", static_cast<double>(w.clients))
        .num("key_bits", static_cast<double>(w.key_bits))
        .num("setup_s", setup_s)
        .numbers("round_s", round_s)
        .numbers("selected", selected_n)
        .numbers("participants", participants)
        .numbers("useful_updates", useful)
        .numbers("late_updates", late)
        .numbers("sim_delay_s", sim_delay)
        .numbers("detection_rate", detection)
        .strings("failures", failures)
        .num("final_accuracy", final_accuracy)
        .str("digest", digest)
        .num("peak_rss_kb", peak_rss_kb())
        .raw("layers", layer_array);
    host_fields(json);
    std::puts(json.done().c_str());
    return 0;
}

// --- Layer probe ------------------------------------------------------------

/// Keeps probe results observable so no timed call can be elided.
volatile std::size_t g_sink = 0;

template <typename Body>
double timed(Body&& body) {
    const auto start = Clock::now();
    body();
    return seconds_since(start);
}

/// Median of kProbeCalls readings; `call(i)` returns one reading in
/// seconds (so it can keep per-call preparation out of the timing).
template <typename Call>
double probe_p50(Call&& call) {
    std::vector<double> seconds;
    for (std::size_t i = 0; i < kProbeCalls; ++i) seconds.push_back(call(i));
    return median_of(seconds);
}

/// Times direct calls into each layer at the workload's shape: the
/// Procedure-I client step, the Algorithm-2 index build and full pass over
/// a real round's updates, the chain's transaction encoding, block sealing
/// and submission, and the RSA/hybrid primitives of Procedure II.
int run_probe(const Workload& w, std::uint64_t seed) {
    telemetry::set_enabled(false);
    const core::Environment env =
        core::build_environment(environment_config(w, seed));
    const core::FairBflConfig cfg = fair_config(w, seed, kProbeCalls + 1);
    const std::vector<fl::Client> clients = env.make_clients();
    std::vector<float> global(env.model->param_count(), 0.0F);
    auto init_rng = support::Rng::fork(cfg.fl.seed, /*stream=*/0x1417);
    env.model->init_params(global, init_rng);
    std::vector<std::string> failures;
    Json probes;
    const auto report = [&](std::string_view name, double p50) {
        probes.raw(name, Json()
                             .num("p50_s", p50)
                             .num("calls", static_cast<double>(kProbeCalls))
                             .done());
    };

    // Round 0 fills every client's pack cache and yields a real update set
    // for the Algorithm-2 and chain probes.
    fl::LocalTrainer trainer;
    std::vector<std::size_t> everyone(clients.size());
    for (std::size_t i = 0; i < everyone.size(); ++i) everyone[i] = i;
    const std::vector<fl::GradientUpdate> updates =
        trainer.run(clients, everyone, global, cfg.fl.sgd, 0, cfg.fl.seed);
    report("fl.train_one", probe_p50([&](std::size_t i) {
               return timed([&] {
                   const fl::GradientUpdate update = trainer.train_one(
                       clients, 0, global, cfg.fl.sgd, i + 1, cfg.fl.seed);
                   g_sink = g_sink + update.weights.size();
               });
           }));

    // Algorithm 2's point set: effective gradients plus the provisional
    // (simple-average) global, as FairBfl builds it.
    std::vector<float> provisional(global.size(), 0.0F);
    for (const auto& u : updates)
        for (std::size_t d = 0; d < provisional.size(); ++d)
            provisional[d] += u.weights[d];
    for (float& v : provisional) v /= static_cast<float>(updates.size());
    std::vector<std::vector<float>> points;
    for (const auto& u : updates) points.push_back(u.weights);
    points.push_back(provisional);
    for (auto& p : points)
        for (std::size_t d = 0; d < p.size(); ++d) p[d] -= global[d];
    cluster::IndexParams params = cfg.incentive.index_params;
    params.metric = cfg.incentive.dbscan.metric;
    report("cluster.index_build", probe_p50([&](std::size_t) {
               return timed([&] {
                   g_sink = g_sink + cluster::IndexRegistry::global()
                                         .build(w.index, points, params)
                                         ->size();
               });
           }));
    report("incentive.identify", probe_p50([&](std::size_t) {
               return timed([&] {
                   g_sink = g_sink + incentive::identify_contributions(
                                         updates, provisional, cfg.incentive,
                                         global)
                                         .entries.size();
               });
           }));

    // Procedure V at the workload's shape: one global-update transaction
    // plus one reward transaction per client, signed when the workload
    // signs.
    const auto miner = static_cast<crypto::NodeId>(clients.size());
    crypto::KeyStore keys(cfg.fl.seed, w.key_bits);
    keys.register_node(miner);
    report("chain.tx_encode", probe_p50([&](std::size_t i) {
               return timed([&] {
                   g_sink = g_sink + chain::make_gradient_tx(
                                         chain::TxKind::kGlobalUpdate, miner,
                                         i, provisional)
                                         .payload.size();
               });
           }));
    chain::Block block;
    block.header.difficulty = cfg.delay.difficulty;
    block.transactions.push_back(chain::make_gradient_tx(
        chain::TxKind::kGlobalUpdate, miner, 0, provisional));
    for (const auto& u : updates)
        block.transactions.push_back(chain::make_reward_tx(
            miner, 0, u.client, 1.0 / static_cast<double>(updates.size())));
    for (auto& tx : block.transactions) chain::sign_transaction(tx, keys);
    report("chain.seal", probe_p50([&](std::size_t) {
               return timed([&] { block.seal_transactions(); });
           }));
    chain::Blockchain ledger(cfg.chain_id,
                             keys.crypto_enabled() ? &keys : nullptr);
    ledger.set_check_pow(false);
    report("chain.submit", probe_p50([&](std::size_t i) {
               chain::Block next = block;
               next.header.index = ledger.tip().header.index + 1;
               next.header.prev_hash = ledger.tip().header.hash();
               next.header.timestamp_ms = (i + 1) * 1000;
               next.seal_transactions();
               const auto start = Clock::now();
               const chain::BlockVerdict verdict = ledger.submit(next);
               const double seconds = seconds_since(start);
               if (verdict != chain::BlockVerdict::kAccepted)
                   failures.push_back("chain.submit: " +
                                      chain::to_string(verdict));
               return seconds;
           }));

    // Procedure II's primitives at kProbeKeyBits, whatever the workload's
    // key size, so every result file carries the same crypto rows.
    std::unique_ptr<crypto::KeyStore> store;
    report("crypto.keygen", probe_p50([&](std::size_t i) {
               auto candidate = std::make_unique<crypto::KeyStore>(
                   cfg.fl.seed + i, kProbeKeyBits);
               const double seconds =
                   timed([&] { candidate->register_node(0); });
               if (store == nullptr) store = std::move(candidate);
               return seconds;
           }));
    const chain::Transaction upload = chain::make_gradient_tx(
        chain::TxKind::kLocalGradient, 0, 0, updates.front().weights);
    const chain::Bytes signing = upload.signing_bytes();
    const chain::Bytes wire = upload.encode();
    crypto::RsaSignature signature;
    report("crypto.sign", probe_p50([&](std::size_t) {
               return timed([&] { signature = store->sign(0, signing); });
           }));
    report("crypto.verify", probe_p50([&](std::size_t) {
               return timed([&] {
                   if (!store->verify(0, signing, signature))
                       failures.push_back("crypto.verify rejected");
               });
           }));
    crypto::HybridCiphertext ciphertext;
    report("crypto.encrypt", probe_p50([&](std::size_t i) {
               auto rng = support::Rng::fork(cfg.fl.seed, 0xE2C00000ULL, i);
               return timed([&] {
                   ciphertext =
                       crypto::hybrid_encrypt(store->public_key(0), wire, rng);
               });
           }));
    report("crypto.decrypt", probe_p50([&](std::size_t) {
               return timed([&] {
                   if (crypto::hybrid_decrypt(store->private_key(0),
                                              ciphertext) != wire)
                       failures.push_back("crypto.decrypt mismatch");
               });
           }));

    Json json;
    json.str("mode", "probe")
        .str("workload", w.name)
        .num("seed", static_cast<double>(seed))
        .raw("probes", probes.done())
        .strings("failures", failures);
    host_fields(json);
    std::puts(json.done().c_str());
    return 0;
}

// --- Host calibration -------------------------------------------------------

std::uint64_t spin(std::uint64_t iterations) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

/// Effective parallelism: the same fixed integer spin on one thread and
/// on every hardware thread at once; nproc x t1 / tN is how many cores
/// the host really delivers (nproc on an idle dedicated machine).
int run_calibrate() {
    constexpr std::uint64_t kIterations = 40'000'000;
    constexpr int kRepeats = 5;
    const unsigned threads = std::max(1U, std::thread::hardware_concurrency());
    const auto spin_all = [threads] {
        std::vector<std::uint64_t> results(threads, 0);
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(
                [&results, t] { results[t] = spin(kIterations); });
        for (auto& thread : pool) thread.join();
        for (const auto r : results) g_sink = g_sink + r;
    };
    // Untimed warm-up: right after an idle spell this host's virtual CPUs
    // ran the parallel spin serially for up to a second.
    for (int rep = 0; rep < kRepeats; ++rep) spin_all();
    std::vector<double> ratios;
    std::vector<double> single;
    for (int rep = 0; rep < kRepeats; ++rep) {
        const double t1 = timed([] { g_sink = g_sink + spin(kIterations); });
        const double tn = timed(spin_all);
        single.push_back(t1);
        ratios.push_back(static_cast<double>(threads) * t1 / tn);
    }
    Json json;
    json.str("mode", "calibrate")
        .num("effective_parallelism", median_of(ratios))
        .num("spin_one_thread_s", median_of(single));
    host_fields(json);
    std::puts(json.done().c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    support::CliArgs args(argc, argv);
    if (args.help_requested()) {
        std::puts(
            "bench_suite: one pass of one FAIR-BFL benchmark workload (JSON)\n"
            "  --workload=NAME  train_heavy|cluster_heavy|secure_upload|\n"
            "                   async_adversarial\n"
            "  --seed=42        workload seed (dataset, partition and\n"
            "                   fault plan)\n"
            "  --rounds=103     rounds in the pass (0: set up only)\n"
            "  --trace          keep telemetry on; report per-round layers\n"
            "  --probe          time direct layer calls instead of a pass\n"
            "  --calibrate      measure the host's effective parallelism");
        return 0;
    }
    const std::string name = args.get_string("workload", "");
    const std::int64_t seed = args.get_int("seed", 42);
    const std::int64_t rounds = args.get_int("rounds", 103);
    const bool trace = args.get_flag("trace");
    const bool probe = args.get_flag("probe");
    const bool calibrate = args.get_flag("calibrate");
    if (!args.finish("bench_suite")) return 2;
    if (calibrate) return run_calibrate();

    const Workload* workload = find_workload(name);
    if (workload == nullptr || seed < 0 || rounds < 0) {
        std::fprintf(stderr,
                     "bench_suite: need a known --workload (train_heavy, "
                     "cluster_heavy, secure_upload, async_adversarial), "
                     "--seed >= 0 and --rounds >= 0\n");
        return 2;
    }
    try {
        return probe ? run_probe(*workload, static_cast<std::uint64_t>(seed))
                     : run_pass(*workload, static_cast<std::uint64_t>(seed),
                                static_cast<std::size_t>(rounds), trace);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_suite: %s\n", e.what());
        return 1;
    }
}
