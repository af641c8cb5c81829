// Table 2 -- "Detecting malicious attacks using our contribution-based
// incentive mechanism".
//
// 10 indexed clients; each round 1-3 random clients forge their gradients;
// DBSCAN-based Algorithm 2 flags low-contribution clients ("Drop Index");
// detection rate = |attackers ∩ dropped| / |attackers|.  Run for non-IID
// and IID (paper: averages 64.96% and 75%).  The two `# shape-check`
// lines gate: the process exits 1 when either prints FAIL (few --rounds
// can make that happen legitimately).
//
//   ./bench/bench_table2_attacks [--rounds=10] [--seed=42]

#include <string>

#include "cluster/index.hpp"

#include "bench_common.hpp"

using namespace fairbfl;

namespace {

std::string ids_to_string(const std::vector<fl::NodeId>& ids) {
    std::string out = "[";
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i) out += ", ";
        out += std::to_string(ids[i]);
    }
    return out + "]";
}

// Table 2 needs per-round attacker/drop-index records (BflRoundRecord),
// which the SystemRun series does not carry, so this bench drives the
// FairBfl class directly; its clustering/reward knobs are the
// FairBflConfig::incentive fields that Algorithm 2 and Eq. 1 read.
double run_distribution(bool iid, std::size_t rounds, std::uint64_t seed,
                        double eps_scale, double magnitude, bool quiet,
                        bool euclidean = false,
                        const std::string& index = "exact") {
    core::EnvironmentConfig env_config;
    env_config.data.samples = 1500;
    env_config.data.seed = seed;
    env_config.partition.scheme = iid ? ml::PartitionScheme::kIid
                                      : ml::PartitionScheme::kLabelShards;
    env_config.partition.num_clients = 10;
    env_config.partition.seed = seed;
    const core::Environment env = core::build_environment(env_config);

    core::FairBflConfig config;
    config.fl.client_ratio = 1.0;  // all 10 clients participate
    config.fl.rounds = rounds;
    config.fl.sgd.learning_rate = 0.05;
    config.fl.sgd.epochs = 5;
    config.fl.sgd.batch_size = 10;
    config.fl.seed = seed;
    config.attack.kind = core::AttackKind::kSignFlip;
    config.attack.magnitude = magnitude;
    config.attack.min_attackers = 1;
    config.attack.max_attackers = 3;
    config.incentive.dbscan.adaptive_eps_scale = eps_scale;
    config.incentive.dbscan.metric =
        euclidean ? fairbfl::cluster::Metric::kEuclidean
                  : fairbfl::cluster::Metric::kCosine;
    // Keep-all so benching never shrinks the attack surface between rounds
    // (Table 2 re-randomizes attackers over all 10 clients each round).
    config.incentive.strategy = incentive::LowContributionStrategy::kKeepAll;
    config.incentive.index = index;

    core::FairBfl system(*env.model, env.make_clients(), env.test, config);

    if (!quiet) {
        std::printf("%-13s %-6s %-18s %-18s %s\n", iid ? "IID" : "Non-IID",
                    "Round", "Attacker Index", "Drop Index", "Detection Rate");
    }
    double mean_rate = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
        const auto record = system.run_round();
        mean_rate += record.detection_rate;
        if (quiet) continue;
        std::printf("%-13s %-6llu %-18s %-18s %.2f%%\n", "",
                    static_cast<unsigned long long>(record.fl.round + 1),
                    ids_to_string(record.attacker_clients).c_str(),
                    ids_to_string(record.low_contribution_clients).c_str(),
                    100.0 * record.detection_rate);
    }
    mean_rate /= static_cast<double>(rounds);
    if (!quiet)
        std::printf("%-13s Average Detection Rate: %.2f%%\n\n", "",
                    100.0 * mean_rate);
    return mean_rate;
}

}  // namespace

int main(int argc, char** argv) {
    support::CliArgs args(argc, argv);
    if (args.help_requested()) {
        std::puts("bench_table2_attacks: Table 2 attack-detection rates\n"
                  "flags: --rounds (default 10) --seed --index=exact|\n"
                  "       random_projection (neighborhood backend)\n"
                  "exits 1 when a # shape-check line prints FAIL");
        return 0;
    }
    const auto rounds = static_cast<std::size_t>(args.get_int("rounds", 10));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    const double eps_scale = args.get_double("eps-scale", 2.0);
    const double magnitude = args.get_double("magnitude", 3.0);
    const bool sweep = args.get_flag("sweep");
    const std::string index = args.get_string("index", "exact");
    if (!args.finish("bench_table2_attacks")) return 1;
    if (!fairbfl::cluster::IndexRegistry::global().contains(index)) {
        std::fprintf(stderr, "bench_table2_attacks: bad --index '%s'\n",
                     index.c_str());
        return 1;
    }

    if (sweep) {
        std::printf("metric,eps_scale,noniid_rate,iid_rate\n");
        for (const bool euclid : {false, true}) {
            for (const double s : {0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5}) {
                std::printf("%s,%.1f,%.3f,%.3f\n",
                            euclid ? "euclidean" : "cosine", s,
                            run_distribution(false, rounds, seed, s,
                                             magnitude, true, euclid),
                            run_distribution(true, rounds, seed, s, magnitude,
                                             true, euclid));
            }
        }
        return 0;
    }

    std::printf("## Table 2: malicious-attack detection "
                "(paper averages: non-IID 64.96%%, IID 75%%; index=%s)\n\n",
                index.c_str());
    const double noniid = run_distribution(false, rounds, seed, eps_scale,
                                           magnitude, false,
                                           /*euclidean=*/true, index);
    const double iid = run_distribution(true, rounds, seed, eps_scale,
                                        magnitude, false, /*euclidean=*/true,
                                        index);

    const bool ordered = iid >= noniid - 0.05;
    const bool in_range = noniid > 0.40 && iid > 0.40;
    std::printf("# shape-check IID detection >= non-IID detection: %s\n",
                ordered ? "PASS" : "FAIL");
    std::printf("# shape-check both averages in [40%%, 100%%]: %s\n",
                in_range ? "PASS" : "FAIL");
    return ordered && in_range ? 0 : 1;
}
