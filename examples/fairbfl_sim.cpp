// fairbfl_sim: the whole experiment harness behind one CLI.
//
// Runs any of the four systems on a configurable world and prints the
// per-round series as CSV -- the tool an adopter scripts parameter studies
// with.
//
//   ./examples/fairbfl_sim --system=fair --clients=100 --miners=2 \
//       --rounds=30 --eta=0.05 --ratio=0.1 --partition=shards \
//       [--discard] [--attack=signflip --attackers=3] [--encrypt] \
//       [--save-chain=chain.bin] [--csv=out.csv]

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>

#include "chain/storage.hpp"
#include "core/system.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "telemetry/decode.hpp"
#include "telemetry/telemetry.hpp"

using namespace fairbfl;

namespace {

std::optional<ml::PartitionScheme> parse_partition(const std::string& name) {
    if (name == "iid") return ml::PartitionScheme::kIid;
    if (name == "shards") return ml::PartitionScheme::kLabelShards;
    if (name == "dirichlet") return ml::PartitionScheme::kDirichlet;
    return std::nullopt;
}

std::optional<core::AttackKind> parse_attack(const std::string& name) {
    if (name == "none") return core::AttackKind::kNone;
    if (name == "signflip") return core::AttackKind::kSignFlip;
    if (name == "gaussian") return core::AttackKind::kGaussian;
    if (name == "scale") return core::AttackKind::kScale;
    return std::nullopt;
}

std::optional<core::ModelKind> parse_model(const std::string& name) {
    if (name == "logistic") return core::ModelKind::kLogistic;
    if (name == "mlp") return core::ModelKind::kMlp;
    return std::nullopt;
}

/// Historic CLI aliases for registry keys.
std::string registry_key(const std::string& system) {
    if (system == "fair") return "fairbfl";
    if (system == "vanilla") return "vanilla_bfl";
    return system;
}

int run(int argc, char** argv) {
    support::CliArgs args(argc, argv);
    if (args.help_requested()) {
        std::puts(
            "fairbfl_sim: run one BFL/FL system and print the round series\n"
            "  --system=fair|vanilla|fedavg|fedprox|blockchain (default\n"
            "           fair); any name --list prints under systems\n"
            "  --clients=N --miners=N --rounds=N --seed=N\n"
            "  --eta=F --ratio=F --epochs=N --batch=N\n"
            "  --samples=N --dim=N --partition=iid|shards|dirichlet\n"
            "  --model=logistic|mlp --hidden=N\n"
            "  --discard            discard low-contribution clients\n"
            "  --clustering=NAME    Algorithm 2 clustering backend (dbscan|\n"
            "                       kmeans)\n"
            "  --index=NAME         neighborhood index backend (auto|\n"
            "                       exact|lazy|random_projection; auto\n"
            "                       defers to the clustering algorithm)\n"
            "  --shards=N           hierarchical shard-tree fan-out for\n"
            "                       Algorithm 2 (1 = flat single pass)\n"
            "  --aggregator=NAME    combine rule (simple|sample_weighted|\n"
            "                       fair|trimmed_mean|median)\n"
            "  --list               print every backend's names and exit\n"
            "  --quorum=F           aggregate once this fraction of the\n"
            "                       round's uploads arrived (1.0 = wait\n"
            "                       for all, the lockstep default)\n"
            "  --deadline-ms=F      virtual-time round deadline (0 = none)\n"
            "  --late=next_round|retroactive   late-gradient policy\n"
            "  --attack=none|signflip|gaussian|scale --attackers=N\n"
            "  --encrypt --keybits=N   sign (and encrypt) uploads\n"
            "  --prox-mu=F --drop=F    (fedprox)\n"
            "  --save-chain=PATH       export the ledger after the run\n"
            "  --csv=PATH              mirror the series to a file\n"
            "  --trace=PATH            dump the run's telemetry event log\n"
            "  --trace-format=binary|text|json   (default binary)");
        return 0;
    }

    if (args.get_flag("list")) {
        const auto print_names = [](const char* title, const auto& names) {
            std::printf("%s:", title);
            for (const auto& name : names) {
                std::printf(" %.*s", static_cast<int>(std::size(name)),
                            std::data(name));
            }
            std::printf("\n");
        };
        print_names("systems", core::SystemRegistry::global().names());
        print_names("clustering", cluster::ClusteringRegistry::global().names());
        print_names("index", cluster::IndexRegistry::global().names());
        print_names("aggregators", core::aggregator_names());
        std::printf("trace formats: binary text json (--trace=PATH "
                    "--trace-format=...)\n");
        return 0;
    }

    const std::string system = args.get_string("system", "fair");
    const auto clients = static_cast<std::size_t>(args.get_int("clients", 100));
    const auto miners = static_cast<std::size_t>(args.get_int("miners", 2));
    const auto rounds = static_cast<std::size_t>(args.get_int("rounds", 30));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

    core::EnvironmentConfig env_config;
    env_config.data.samples =
        static_cast<std::size_t>(args.get_int("samples", 3000));
    env_config.data.feature_dim =
        static_cast<std::size_t>(args.get_int("dim", 64));
    env_config.data.seed = seed;
    const std::string partition = args.get_string("partition", "shards");
    env_config.partition.num_clients = clients;
    env_config.partition.seed = seed;
    const std::string model = args.get_string("model", "logistic");
    env_config.mlp_hidden =
        static_cast<std::size_t>(args.get_int("hidden", 32));

    fl::FlConfig fl_config;
    fl_config.client_ratio = args.get_double("ratio", 0.1);
    fl_config.rounds = rounds;
    fl_config.sgd.learning_rate = args.get_double("eta", 0.05);
    fl_config.sgd.epochs = static_cast<std::size_t>(args.get_int("epochs", 5));
    fl_config.sgd.batch_size =
        static_cast<std::size_t>(args.get_int("batch", 10));
    fl_config.seed = seed;

    const std::string attack_name = args.get_string("attack", "none");
    core::AttackConfig attack;
    attack.max_attackers =
        static_cast<std::size_t>(args.get_int("attackers", 3));

    const double quorum = args.get_double("quorum", 1.0);
    const double deadline_ms = args.get_double("deadline-ms", 0.0);
    const std::string late = args.get_string("late", "next_round");
    const bool discard = args.get_flag("discard");
    const std::string clustering = args.get_string("clustering", "dbscan");
    const std::string index = args.get_string("index", "auto");
    const auto shards = static_cast<std::size_t>(args.get_int("shards", 1));
    const std::string aggregator = args.get_string("aggregator", "");
    const bool encrypt = args.get_flag("encrypt");
    const auto key_bits = static_cast<std::size_t>(
        args.get_int("keybits", encrypt ? 384 : 0));
    const double prox_mu = args.get_double("prox-mu", 0.1);
    const double drop = args.get_double("drop", 0.0);
    const std::string save_chain_path = args.get_string("save-chain", "");
    const std::string csv_path = args.get_string("csv", "");
    const std::string trace_path = args.get_string("trace", "");
    const std::string trace_format =
        args.get_string("trace-format", "binary");
    if (!args.finish("fairbfl_sim")) return 1;
    const auto partition_scheme = parse_partition(partition);
    if (!partition_scheme) {
        std::fprintf(stderr,
                     "--partition: unknown scheme '%s' (known: iid shards "
                     "dirichlet)\n",
                     partition.c_str());
        return 1;
    }
    env_config.partition.scheme = *partition_scheme;
    const auto model_kind = parse_model(model);
    if (!model_kind) {
        std::fprintf(stderr,
                     "--model: unknown model '%s' (known: logistic mlp)\n",
                     model.c_str());
        return 1;
    }
    env_config.model = *model_kind;
    const auto attack_kind = parse_attack(attack_name);
    if (!attack_kind) {
        std::fprintf(stderr,
                     "--attack: unknown attack '%s' (known: none signflip "
                     "gaussian scale)\n",
                     attack_name.c_str());
        return 1;
    }
    attack.kind = *attack_kind;
    const auto late_policy = core::parse_late_policy(late);
    if (!late_policy) {
        std::fprintf(stderr,
                     "--late: unknown policy '%s' (known: next_round "
                     "retroactive)\n",
                     late.c_str());
        return 1;
    }
    if (quorum <= 0.0 || deadline_ms < 0.0) {
        std::fprintf(stderr,
                     "need --quorum > 0 and --deadline-ms >= 0\n");
        return 1;
    }
    if (trace_format != "binary" && trace_format != "text" &&
        trace_format != "json") {
        std::fprintf(stderr,
                     "--trace-format: unknown format '%s' (known: binary "
                     "text json)\n",
                     trace_format.c_str());
        return 1;
    }

    const core::Environment env = core::build_environment(env_config);

    // One spec covers every system: the CLI name is a registry key, so
    // every row of SystemRegistry::global() is reachable from this tool
    // by name.
    core::SystemSpec spec;
    spec.system = registry_key(system);
    spec.rounds = rounds;
    spec.fl = fl_config;
    spec.delay = core::DelayParams{};

    spec.fair.fl = fl_config;
    spec.fair.miners = miners;
    spec.fair.attack = attack;
    spec.fair.key_bits = key_bits;
    spec.fair.encrypt_gradients = encrypt;
    spec.fair.round.quorum_fraction = quorum;
    spec.fair.round.deadline_ns =
        static_cast<std::uint64_t>(deadline_ms * 1e6);
    spec.fair.round.late_policy = *late_policy;
    if (discard)
        spec.fair.incentive.strategy =
            incentive::LowContributionStrategy::kDiscard;
    // Backends resolve by registry key; fail fast with the known names
    // instead of handing a bad key to the first round.
    if (!cluster::ClusteringRegistry::global().contains(clustering)) {
        std::fprintf(stderr,
                     "--clustering: unknown backend '%s' (known: %s)\n",
                     clustering.c_str(),
                     support::join_names(
                         cluster::ClusteringRegistry::global().names())
                         .c_str());
        return 1;
    }
    if (index != "auto" &&
        !cluster::IndexRegistry::global().contains(index)) {
        std::fprintf(
            stderr, "--index: unknown backend '%s' (known: %s)\n",
            index.c_str(),
            support::join_names(cluster::IndexRegistry::global().names())
                .c_str());
        return 1;
    }
    spec.fair.incentive.clustering = clustering;
    spec.fair.incentive.index = index;
    spec.fair.incentive.sharding.shards = shards;
    if (!aggregator.empty()) {
        if (spec.system != "fairbfl" && spec.system != "fairbfl_discard" &&
            spec.system != "pure_fl") {
            std::fprintf(stderr,
                         "--aggregator: system '%s' has no pluggable combine "
                         "rule; the flag is ignored\n",
                         spec.system.c_str());
        }
        try {
            spec.fair.aggregator = core::make_aggregator(aggregator);
        } catch (const std::invalid_argument& error) {
            std::fprintf(stderr, "%s\n", error.what());
            return 1;
        }
    }

    spec.vanilla.fl = fl_config;
    spec.vanilla.miners = miners;
    spec.vanilla.attack = attack;
    spec.vanilla.key_bits = key_bits;

    spec.fedprox.base = fl_config;
    spec.fedprox.prox_mu = prox_mu;
    spec.fedprox.drop_percent = drop;

    spec.blockchain.workers = clients;
    spec.blockchain.miners = miners;
    spec.blockchain.rounds = rounds;
    spec.blockchain.seed = seed;

    // wall_s: host seconds from building the system to its last round.
    const auto build_start = std::chrono::steady_clock::now();
    std::unique_ptr<core::System> runner;
    try {
        runner = core::SystemRegistry::global().make(env, spec);
    } catch (const std::out_of_range& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
    }

    support::CsvWriter csv(std::cout);
    if (!csv_path.empty() && !csv.tee_to_file(csv_path))
        std::fprintf(stderr, "warning: cannot write %s\n", csv_path.c_str());
    csv.header({"round", "delay_s", "elapsed_s", "accuracy"});

    // The capture retains every record the round loop emits (all sessions
    // plus ambient streams); without --trace, records are dropped as they
    // drain.
    if (!trace_path.empty()) telemetry::capture_begin();
    for (std::size_t r = 0; r < spec.rounds; ++r) (void)runner->run_round();
    const double wall_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    build_start)
                                    .count();
    core::SystemRun run = runner->finalize();
    if (!trace_path.empty()) {
        const telemetry::Dump dump = telemetry::capture_end();
        bool written = false;
        if (trace_format == "binary") {
            written = dump.save(trace_path);
        } else {
            std::ofstream file(trace_path);
            if (file) {
                file << (trace_format == "text" ? telemetry::to_text(dump)
                                                : telemetry::to_json(dump));
                written = file.good();
            }
        }
        if (written) {
            std::fprintf(stderr, "# trace: %zu records -> %s (%s)\n",
                         dump.records.size(), trace_path.c_str(),
                         trace_format.c_str());
        } else {
            std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        }
    }
    const chain::Blockchain* ledger = runner->blockchain();
    for (const auto& point : run.series) {
        csv.row()
            .col(static_cast<std::size_t>(point.round))
            .col(point.delay_seconds)
            .col(point.elapsed_seconds)
            .col(point.accuracy)
            .end();
    }
    std::printf(
        "# %s: avg_delay=%.3fs avg_acc=%.4f final_acc=%.4f wall_s=%.6f\n",
        run.name.c_str(), run.average_delay, run.average_accuracy,
        run.final_accuracy, wall_seconds);

    if (!save_chain_path.empty()) {
        if (ledger == nullptr) {
            std::fprintf(stderr,
                         "--save-chain: system '%s' keeps no ledger\n",
                         system.c_str());
        } else if (chain::save_chain(*ledger, save_chain_path)) {
            std::printf("# chain exported to %s (%zu blocks)\n",
                        save_chain_path.c_str(), ledger->height());
        } else {
            std::fprintf(stderr, "cannot write %s\n", save_chain_path.c_str());
        }
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    // Invalid settings the flag checks above cannot see (zero clients, an
    // unreadable dataset, ...) surface as exceptions from the library:
    // report them and fail instead of aborting.
    try {
        return run(argc, argv);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "fairbfl_sim: %s\n", error.what());
        return 1;
    }
}
