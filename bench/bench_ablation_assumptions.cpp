// Ablation (beyond the paper's figures, supporting its §3.1 claims):
// what do Assumptions 1 and 2 individually buy?
//
//   A1 (tight coupling)      off -> asynchronous mining: forks + idle waste.
//   A2 (bounded block scope) off -> local gradients on-chain: block-size
//                                   queuing, multiple blocks per round.
//
//   ./bench/bench_ablation_assumptions [--rounds=15] [--csv=prefix]

#include "bench_common.hpp"
#include "core/vanilla_bfl.hpp"

using namespace fairbfl;

namespace {

// The variants need per-round block/fork counts, which the SystemRun
// series does not carry, so this bench drives the FairBfl class directly.
struct AblationResult {
    std::string name;
    double avg_delay = 0.0;
    double final_acc = 0.0;
    std::size_t total_blocks = 0;
    std::size_t total_forks = 0;
};

AblationResult run_variant(const core::Environment& env,
                           core::FairBflConfig config, std::string name,
                           std::size_t rounds) {
    core::FairBfl system(*env.model, env.make_clients(), env.test, config);
    AblationResult result;
    result.name = std::move(name);
    double delay_sum = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
        const auto record = system.run_round();
        delay_sum += record.delay.total();
        result.total_blocks += record.blocks_this_round;
        result.total_forks += record.forks_this_round;
        result.final_acc = record.fl.test_accuracy;
    }
    result.avg_delay = delay_sum / static_cast<double>(rounds);
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    support::CliArgs args(argc, argv);
    if (args.help_requested()) {
        std::puts("bench_ablation_assumptions: toggle Assumption 1 (sync) "
                  "and 2 (block scope)\nflags: --rounds --clients --samples "
                  "--seed --csv=prefix");
        return 0;
    }
    auto setting = benchx::BenchSetting::from_args(args);
    if (args.get_int("rounds", -1) < 0) setting.rounds = 15;
    const std::string csv_prefix = args.get_string("csv", "");
    if (!args.finish("bench_ablation_assumptions")) return 1;

    const core::Environment env =
        core::build_environment(setting.environment());

    auto base = setting.fair_config();
    // More miners make the A1 ablation's forking visible.
    base.miners = 6;
    // A block that holds ~3 gradient transactions: FAIR's global-only block
    // still fits in one, but recording local gradients (no-A2) forces
    // multi-block rounds -- the queuing Assumption 2 eliminates.
    base.delay.max_block_bytes = 8192;

    // Assumption 1 off = consensus "async_pow": FairBfl prices forking and
    // idle-block waste (DelayModel::t_bl_vanilla) where "sync_pow" models
    // the tightly-coupled race (DelayModel::t_bl_fair).
    auto no_a1 = base;
    no_a1.consensus = "async_pow";

    auto no_a2 = base;
    no_a2.record_local_gradients = true;

    auto no_both = base;
    no_both.consensus = "async_pow";
    no_both.record_local_gradients = true;

    std::printf("## Ablation of Assumptions 1 (tight coupling) and 2 "
                "(bounded block scope), m=%zu\n",
                base.miners);
    support::CsvWriter csv(std::cout);
    if (!csv_prefix.empty()) csv.tee_to_file(csv_prefix + "_ablation.csv");
    csv.header({"variant", "avg_delay_s", "final_accuracy", "blocks",
                "forks"});

    const auto full = run_variant(env, base, "FAIR (A1+A2)", setting.rounds);
    const auto a1_off =
        run_variant(env, no_a1, "no-A1 (async mining)", setting.rounds);
    const auto a2_off = run_variant(env, no_a2, "no-A2 (gradients on-chain)",
                                    setting.rounds);
    const auto both_off =
        run_variant(env, no_both, "no-A1+no-A2 (vanilla BFL)", setting.rounds);

    // Cross-check: the stand-alone vanilla-BFL protocol (gradients really
    // on-chain, workers aggregating from chain data) should price like the
    // double ablation.
    const AblationResult protocol = [&] {
        AblationResult result;
        core::VanillaBflConfig vcfg;
        vcfg.fl = base.fl;
        vcfg.miners = base.miners;
        vcfg.delay = base.delay;
        core::VanillaBfl vanilla(*env.model, env.make_clients(), env.test,
                                 vcfg);
        result.name = "vanilla protocol (cross-check)";
        double delay_sum = 0.0;
        for (std::size_t r = 0; r < setting.rounds; ++r) {
            const auto record = vanilla.run_round();
            delay_sum += record.delay.total();
            result.total_blocks += record.blocks_this_round;
            result.total_forks += record.forks_this_round;
            result.final_acc = record.fl.test_accuracy;
        }
        result.avg_delay = delay_sum / static_cast<double>(setting.rounds);
        return result;
    }();

    for (const auto* r : {&full, &a1_off, &a2_off, &both_off, &protocol}) {
        csv.row()
            .col(r->name)
            .col(r->avg_delay)
            .col(r->final_acc)
            .col(r->total_blocks)
            .col(r->total_forks)
            .end();
    }

    std::printf("\n# shape-check dropping A1 costs delay: %s\n",
                a1_off.avg_delay > full.avg_delay ? "PASS" : "FAIL");
    std::printf("# shape-check dropping A2 multiplies blocks: %s\n",
                a2_off.total_blocks > full.total_blocks ? "PASS" : "FAIL");
    std::printf("# shape-check vanilla BFL is the slowest variant: %s\n",
                both_off.avg_delay >= full.avg_delay &&
                        both_off.avg_delay >= a2_off.avg_delay * 0.9
                    ? "PASS"
                    : "FAIL");
    std::printf("# shape-check stand-alone vanilla protocol prices like the "
                "double ablation (within 35%%): %s\n",
                protocol.avg_delay > 0.65 * both_off.avg_delay &&
                        protocol.avg_delay < 1.35 * both_off.avg_delay
                    ? "PASS"
                    : "FAIL");
    return 0;
}
