// bench_perf_round: the end-to-end round perf harness.
//
// Registry-driven: builds an environment per sweep point, runs the chosen
// system (default "fairbfl") through run_system, and reports the *measured
// host wall time* of each pipeline stage (local learning, the Algorithm-2
// cluster+contribution stage, aggregation combines, mining/consensus) as
// machine-readable JSON on stdout -- the perf trajectory every PR appends
// to.  Human-readable progress goes to stderr so stdout stays parseable.
//
//   ./bench_perf_round                          # sweep 16,64,128,256
//   ./bench_perf_round --sweep=16 --rounds=3    # CI smoke sweep
//   ./bench_perf_round --out=perf.json          # also write to a file
//
// Every client participates every round (ratio 1.0) so the clustering
// stage sees the full n+1 points, and the model dimension defaults to the
// paper's 784 features (7850 logistic parameters) to keep the distance
// kernels honest.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/index.hpp"
#include "core/system.hpp"
#include "fl/sharding.hpp"
#include "support/cli.hpp"
#include "support/fault_plan.hpp"
#include "support/simd.hpp"
#include "telemetry/telemetry.hpp"

using namespace fairbfl;

namespace {

/// Parses "16,64,128"; returns empty (a usage error) on any malformed
/// entry -- same discipline as CliArgs' numeric getters.
std::vector<std::size_t> parse_sweep(const std::string& csv) {
    std::vector<std::size_t> sweep;
    std::stringstream stream(csv);
    std::string token;
    while (std::getline(stream, token, ',')) {
        char* end = nullptr;
        const long long n = std::strtoll(token.c_str(), &end, 10);
        if (end == token.c_str() || *end != '\0' || n <= 0) {
            std::fprintf(stderr, "bench_perf_round: bad sweep entry '%s'\n",
                         token.c_str());
            return {};
        }
        sweep.push_back(static_cast<std::size_t>(n));
    }
    return sweep;
}

/// Per-stage wall-clock totals summed over a sweep point's rounds (peak
/// for the bytes).  The JSON schema below is pinned to these fields.
struct StageTotals {
    double local = 0.0;
    double cluster = 0.0;
    double aggregate = 0.0;
    double mine = 0.0;
    double index_build = 0.0;
    double cluster_shards = 0.0;
    double cluster_root = 0.0;
    std::size_t index_peak_bytes = 0;
    /// Virtual seconds waiting for quorum (async round engine); simulated
    /// time, so never part of total().
    double wait_quorum = 0.0;
    std::size_t late_updates = 0;

    [[nodiscard]] double total() const noexcept {
        return local + cluster + aggregate + mine;
    }

    /// Adds one round's telemetry harvest.  The label -> field mapping is
    /// the one telemetry::to_json applies to a decoded dump:
    ///   local, cluster, aggregate, mine <- spans "round.local",
    ///       "round.cluster", "round.aggregate", "round.mine"
    ///   index_build      <- span "cluster.index_build"
    ///   cluster_shards   <- span "cluster.shard_pass"
    ///   cluster_root     <- span "cluster.root_pass"
    ///   index_peak_bytes <- max counter "cluster.index_bytes"
    ///   wait_quorum      <- sum counter "round.wait_quorum_ns" (virtual
    ///                       ns, converted to seconds per round)
    ///   late_updates     <- sum counter "round.late_updates"
    void add(const telemetry::RoundStats& stats) {
        local += stats.seconds_of("round.local");
        cluster += stats.seconds_of("round.cluster");
        aggregate += stats.seconds_of("round.aggregate");
        mine += stats.seconds_of("round.mine");
        index_build += stats.seconds_of("cluster.index_build");
        cluster_shards += stats.seconds_of("cluster.shard_pass");
        cluster_root += stats.seconds_of("cluster.root_pass");
        index_peak_bytes = std::max(
            index_peak_bytes,
            static_cast<std::size_t>(stats.max_of("cluster.index_bytes")));
        wait_quorum +=
            static_cast<double>(stats.sum_of("round.wait_quorum_ns")) * 1e-9;
        late_updates +=
            static_cast<std::size_t>(stats.sum_of("round.late_updates"));
    }
};

struct SweepPoint {
    std::size_t clients = 0;
    std::size_t rounds = 0;
    /// Effective shard-tree fan-out at this point: the requested
    /// --shards after fl::ShardTree's min-shard-size clamp (small sweep
    /// points may run fewer shards than the header requests).
    std::size_t shards_effective = 1;
    StageTotals total;
    double run_seconds = 0.0;
    double final_accuracy = 0.0;
};

void append_json(std::string& out, const SweepPoint& p) {
    char buf[640];
    std::snprintf(
        buf, sizeof buf,
        "    {\"clients\": %zu, \"rounds\": %zu, "
        "\"shards_effective\": %zu,\n"
        "     \"seconds\": {\"local\": %.6f, \"cluster\": %.6f, "
        "\"index_build\": %.6f, "
        "\"shard_cluster\": %.6f, \"root_cluster\": %.6f, "
        "\"aggregate\": %.6f, \"mine\": %.6f, \"wait_quorum\": %.6f, "
        "\"total\": %.6f},\n"
        "     \"index_peak_bytes\": %zu,\n"
        "     \"late_updates\": %zu,\n"
        "     \"run_seconds\": %.6f, \"final_accuracy\": %.4f}",
        p.clients, p.rounds, p.shards_effective, p.total.local, p.total.cluster,
        p.total.index_build, p.total.cluster_shards, p.total.cluster_root,
        p.total.aggregate, p.total.mine, p.total.wait_quorum,
        p.total.total(), p.total.index_peak_bytes, p.total.late_updates,
        p.run_seconds, p.final_accuracy);
    out += buf;
}

}  // namespace

int main(int argc, char** argv) {
    support::CliArgs args(argc, argv);
    if (args.help_requested()) {
        std::puts(
            "bench_perf_round: per-stage wall-time trajectory (JSON)\n"
            "  --sweep=16,64,128,256  client counts to sweep\n"
            "  --rounds=5             rounds per sweep point\n"
            "  --dim=784              feature dimension\n"
            "  --system=fairbfl       registry key to benchmark\n"
            "  --engine=batched       Procedure-I engine: batched|reference\n"
            "  --index=exact          Algorithm-2 neighborhood backend\n"
            "                         (auto|exact|lazy|random_projection|\n"
            "                         sampled)\n"
            "  --shards=1             hierarchical shard-tree fan-out\n"
            "                         (1 = flat single-pass Algorithm 2)\n"
            "  --kernels=scalar       vector-kernel table: scalar|simd|auto\n"
            "                         (scalar = the bit-pinned default)\n"
            "  --quorum=1.0           aggregate once this fraction arrived\n"
            "  --deadline-ms=0        virtual round deadline (0 = none)\n"
            "  --late=next_round      late-gradient policy:\n"
            "                         next_round|retroactive\n"
            "  --churn=0.0            per-round client dropout rate\n"
            "                         (fault-injection churn sweep)\n"
            "  --seed=42 --miners=2 --out=FILE");
        return 0;
    }
    const auto sweep =
        parse_sweep(args.get_string("sweep", "16,64,128,256"));
    const auto rounds =
        static_cast<std::size_t>(args.get_int("rounds", 5));
    const auto dim = static_cast<std::size_t>(args.get_int("dim", 784));
    const auto miners = static_cast<std::size_t>(args.get_int("miners", 2));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    const std::string system = args.get_string("system", "fairbfl");
    const std::string engine = args.get_string("engine", "batched");
    const std::string index = args.get_string("index", "exact");
    const auto shards = static_cast<std::size_t>(args.get_int("shards", 1));
    const std::string kernels = args.get_string("kernels", "scalar");
    const double quorum = args.get_double("quorum", 1.0);
    const double deadline_ms = args.get_double("deadline-ms", 0.0);
    const std::string late = args.get_string("late", "next_round");
    const double churn = args.get_double("churn", 0.0);
    const std::string out_path = args.get_string("out", "");
    if (!args.finish("bench_perf_round") || sweep.empty()) return 1;
    const auto late_policy = core::parse_late_policy(late);
    if (!late_policy) {
        std::fprintf(stderr, "bench_perf_round: bad --late '%s'\n",
                     late.c_str());
        return 1;
    }
    if (quorum <= 0.0 || deadline_ms < 0.0 || churn < 0.0 || churn >= 1.0) {
        std::fprintf(stderr,
                     "bench_perf_round: need --quorum > 0, "
                     "--deadline-ms >= 0, 0 <= --churn < 1\n");
        return 1;
    }
    if (!support::simd::set_mode_name(kernels.c_str())) {
        std::fprintf(stderr, "bench_perf_round: bad --kernels '%s'\n",
                     kernels.c_str());
        return 1;
    }
    if (engine != "batched" && engine != "reference") {
        std::fprintf(stderr, "bench_perf_round: bad --engine '%s'\n",
                     engine.c_str());
        return 1;
    }
    if (index != "auto" &&
        !cluster::IndexRegistry::global().contains(index)) {
        std::fprintf(stderr, "bench_perf_round: bad --index '%s'\n",
                     index.c_str());
        return 1;
    }

    std::vector<SweepPoint> points;
    for (const std::size_t clients : sweep) {
        core::EnvironmentConfig env_cfg;
        env_cfg.data.samples = 25 * clients;  // fixed per-client shard size
        env_cfg.data.feature_dim = dim;
        env_cfg.data.seed = seed;
        env_cfg.partition.num_clients = clients;
        env_cfg.partition.seed = seed;
        const core::Environment env = core::build_environment(env_cfg);

        core::SystemSpec spec;
        spec.system = system;
        spec.rounds = rounds;
        spec.fair.fl.rounds = rounds;
        spec.fair.fl.client_ratio = 1.0;  // full round: n+1 clustered points
        spec.fair.fl.seed = seed;
        spec.fair.fl.batched_training = engine == "batched";
        spec.fair.incentive.index = index;
        spec.fair.incentive.sharding.shards = shards;
        spec.fair.miners = miners;
        spec.fair.round.quorum_fraction = quorum;
        spec.fair.round.deadline_ns =
            static_cast<std::uint64_t>(deadline_ms * 1e6);
        spec.fair.round.late_policy = *late_policy;
        if (churn > 0.0) {
            // Churn sweep: dropout-only fault plan, seeded from the run
            // seed so a point is reproducible in isolation.
            support::FaultSpec fault_spec;
            fault_spec.churn_rate = churn;
            spec.fair.fault_plan = std::make_shared<support::FaultPlan>(
                support::FaultPlan::sampled(fault_spec, seed, rounds,
                                            clients));
        }
        spec.fl.batched_training = spec.fair.fl.batched_training;
        spec.fedprox.base.batched_training = spec.fair.fl.batched_training;
        spec.vanilla.fl.batched_training = spec.fair.fl.batched_training;

        const auto t0 = std::chrono::steady_clock::now();
        const core::SystemRun run = core::run_system(env, spec);
        const auto t1 = std::chrono::steady_clock::now();

        SweepPoint point;
        point.clients = clients;
        point.rounds = run.series.size();
        // Full participation (ratio 1.0): every round clusters `clients`
        // updates, so the effective fan-out is the tree's clamp at n.
        point.shards_effective =
            fl::ShardTree(spec.fair.incentive.sharding).shard_count(clients);
        point.run_seconds = std::chrono::duration<double>(t1 - t0).count();
        point.final_accuracy = run.final_accuracy;
        for (const auto& p : run.series) point.total.add(p.stats);
        points.push_back(point);
        std::fprintf(stderr,
                     "# n=%-4zu local=%.4fs cluster=%.4fs (index=%.4fs, "
                     "shards=%.4fs, root=%.4fs) "
                     "aggregate=%.4fs mine=%.4fs peak_index=%zuB run=%.4fs\n",
                     clients, point.total.local, point.total.cluster,
                     point.total.index_build, point.total.cluster_shards,
                     point.total.cluster_root, point.total.aggregate,
                     point.total.mine, point.total.index_peak_bytes,
                     point.run_seconds);
    }

    std::string json;
    json += "{\n  \"bench\": \"bench_perf_round\",\n";
    // Bumped when keys change shape; compare_perf.py warns (never crashes)
    // on artifacts from another version.  2 = telemetry-derived stages.
    json += "  \"schema_version\": 2,\n";
    json += "  \"system\": \"" + system + "\",\n";
    json += "  \"engine\": \"" + engine + "\",\n";
    json += "  \"index\": \"" + index + "\",\n";
    // Requested mode plus the table that actually served (auto on a
    // non-AVX2 host degrades to scalar; A/B consumers must see which).
    json += "  \"kernels\": \"" + kernels + "\",\n";
    json += "  \"kernels_active\": \"" +
            std::string(support::simd::active_name()) + "\",\n";
    json += "  \"late\": \"" + late + "\",\n";
    char header[320];
    std::snprintf(header, sizeof header,
                  "  \"shards\": %zu,\n"
                  "  \"quorum\": %.4f,\n  \"deadline_ms\": %.4f,\n"
                  "  \"churn\": %.4f,\n"
                  "  \"rounds\": %zu,\n  \"feature_dim\": %zu,\n"
                  "  \"miners\": %zu,\n  \"seed\": %llu,\n  \"sweep\": [\n",
                  shards, quorum, deadline_ms, churn, rounds, dim, miners,
                  static_cast<unsigned long long>(seed));
    json += header;
    for (std::size_t i = 0; i < points.size(); ++i) {
        append_json(json, points[i]);
        json += i + 1 < points.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";

    std::fputs(json.c_str(), stdout);
    if (!out_path.empty()) {
        std::ofstream file(out_path);
        if (!file) {
            std::fprintf(stderr, "bench_perf_round: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        file << json;
    }
    return 0;
}
