// Consensus demo: watch miner replicas fork and reconcile in simulated
// time -- the mechanics behind the paper's "forking is inevitable" critique
// of vanilla BFL, and why FAIR-BFL's tight coupling avoids it.
//
//   ./examples/consensus_demo [--miners=4] [--rounds=12] [--race-prob=0.5]

#include <cstdio>

#include "chain/consensus.hpp"
#include "core/delay_model.hpp"
#include "support/cli.hpp"

namespace ch = fairbfl::chain;
namespace core = fairbfl::core;

int main(int argc, char** argv) {
    fairbfl::support::CliArgs args(argc, argv);
    if (args.help_requested()) {
        std::puts("consensus_demo: replicas forking and reconciling\n"
                  "  --miners=N     replicas (default 4)\n"
                  "  --rounds=N     mining rounds (default 12)\n"
                  "  --race-prob=P  chance of a simultaneous competitor "
                  "(default 0.5)");
        return 0;
    }
    const auto miners = static_cast<std::size_t>(args.get_int("miners", 4));
    const auto rounds = static_cast<std::size_t>(args.get_int("rounds", 12));
    const double race_prob = args.get_double("race-prob", 0.5);
    if (!args.finish("consensus_demo")) return 1;

    ch::NetworkParams net;
    net.miner_base_latency_s = 0.2;  // slow gossip: wide fork window
    ch::ConsensusSim sim(miners, 0xDE30, ch::NetworkModel(net), 7);
    fairbfl::support::Rng rng(7);

    std::printf("%-6s %-8s %-14s %-12s %s\n", "round", "winner",
                "competitor", "tips(before)", "tips(after gossip)");
    double now = 0.0;
    std::size_t fork_events = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        const auto winner = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(miners) - 1));
        const ch::Block block = sim.make_child_block(
            winner, {}, r * 10 + 1);
        (void)sim.broadcast(winner, block, now);

        std::string competitor = "-";
        if (rng.bernoulli(race_prob)) {
            // Another miner solves before hearing the winner's block.
            auto rival = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(miners) - 1));
            if (rival == winner) rival = (rival + 1) % miners;
            const ch::Block rival_block = sim.make_child_block(
                rival, {}, r * 10 + 2);
            (void)sim.broadcast(rival, rival_block, now + 0.01);
            competitor = "miner " + std::to_string(rival);
        }

        const std::size_t before = sim.distinct_tips();
        now += 2.0;
        sim.advance_to(now);
        const std::size_t after = sim.distinct_tips();
        if (after > 1) ++fork_events;
        std::printf("%-6zu miner %-2zu %-14s %-12zu %zu%s\n", r, winner,
                    competitor.c_str(), before, after,
                    after > 1 ? "   <- fork!" : "");
    }

    // A final uncontested block resolves any remaining tie.
    const ch::Block closer = sim.make_child_block(0, {}, 9999);
    (void)sim.broadcast(0, closer, now);
    sim.drain();

    std::printf("\nafter settlement: %zu distinct tip(s); all replicas "
                "valid: %s\n",
                sim.distinct_tips(), [&] {
                    for (std::size_t m = 0; m < miners; ++m)
                        if (!sim.replica(m).validate_full_chain()) return "NO";
                    return "yes";
                }());
    std::printf("fork rounds observed: %zu / %zu -- FAIR-BFL's Assumption 1 "
                "(one synchronized competition per round) makes this 0 by "
                "construction.\n",
                fork_events, rounds);
    std::printf("replica 0: height=%zu, orphaned side-branch blocks=%zu, "
                "reorgs=%zu\n",
                sim.replica(0).height(), sim.replica(0).orphaned_blocks(),
                sim.replica(0).reorg_count());

    // The same story, priced: the delay model charges this fork behaviour
    // in simulated seconds, with Assumption 1 (sync_pow) and without it
    // (async_pow).
    const core::DelayModel delays;
    fairbfl::support::Rng price_rng(7);
    double sync_s = 0.0;
    double async_s = 0.0;
    std::size_t async_forks = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        sync_s += delays.t_bl_fair(miners, 4096, price_rng);
        std::size_t forks = 0;
        async_s += delays.t_bl_vanilla(miners, 1, 4096, price_rng, &forks);
        async_forks += forks;
    }
    std::printf("\nengine pricing over %zu blocks, m=%zu: sync_pow %.1f s "
                "(0 forks by construction), async_pow %.1f s (%zu forks)\n",
                rounds, miners, sync_s, async_s, async_forks);
    return 0;
}
