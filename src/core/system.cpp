#include "core/system.hpp"

#include <atomic>
#include <utility>

namespace fairbfl::core {

namespace {

/// Shared bookkeeping: accumulates the series under the run's name so
/// concrete systems only implement one round (`step`).
class RecordedSystem : public System {
public:
    RecordedSystem(std::string name, std::size_t default_rounds)
        : default_rounds_(default_rounds) {
        run_.name = std::move(name);
    }

    [[nodiscard]] std::string_view name() const noexcept override {
        return run_.name;
    }
    [[nodiscard]] std::size_t default_rounds() const noexcept override {
        return default_rounds_;
    }

    SeriesPoint run_round() override {
        const SeriesPoint point = step();
        run_.series.push_back(point);
        return point;
    }

    [[nodiscard]] SystemRun finalize() const override {
        SystemRun out = run_;
        out.finalize();
        return out;
    }

protected:
    virtual SeriesPoint step() = 0;

private:
    SystemRun run_;
    std::size_t default_rounds_;
};

/// FedAvg under the shared delay model (delay = T_local + T_up + T_gl).
class FedAvgSystem final : public RecordedSystem {
public:
    FedAvgSystem(const Environment& env, const fl::FlConfig& config,
                 const DelayParams& delay, std::string name)
        : RecordedSystem(std::move(name), config.rounds),
          env_(&env),
          config_(config),
          delays_(delay),
          trainer_(*env.model, env.make_clients(), env.test, config) {}

    SeriesPoint step() override {
        const fl::RoundRecord record = trainer_.run_round();
        SeriesPoint point;
        point.round = record.round;
        point.accuracy = record.test_accuracy;
        point.delay_seconds =
            fl_round_delay(delays_, *env_, record.participant_ids,
                           config_.sgd, record.round, config_.seed);
        return point;
    }

private:
    const Environment* env_;
    fl::FlConfig config_;
    DelayModel delays_;
    fl::FedAvg trainer_;
};

class FedProxSystem final : public RecordedSystem {
public:
    FedProxSystem(const Environment& env, const fl::FedProxConfig& config,
                  const DelayParams& delay, std::string name)
        : RecordedSystem(std::move(name), config.base.rounds),
          env_(&env),
          config_(config),
          delays_(delay),
          trainer_(*env.model, env.make_clients(), env.test, config) {}

    SeriesPoint step() override {
        const fl::RoundRecord record = trainer_.run_round();
        SeriesPoint point;
        point.round = record.round;
        point.accuracy = record.test_accuracy;
        point.delay_seconds =
            fl_round_delay(delays_, *env_, record.participant_ids,
                           config_.base.sgd, record.round, config_.base.seed);
        return point;
    }

private:
    const Environment* env_;
    fl::FedProxConfig config_;
    DelayModel delays_;
    fl::FedProx trainer_;
};

/// FAIR-BFL and its degraded / ablated variants (delays come from the
/// orchestrator's own records).
class FairBflSystem final : public RecordedSystem {
public:
    FairBflSystem(const Environment& env, const FairBflConfig& config,
                  std::string name)
        : RecordedSystem(std::move(name), config.fl.rounds),
          system_(*env.model, env.make_clients(), env.test, config) {}

    SeriesPoint step() override {
        const BflRoundRecord record = system_.run_round();
        SeriesPoint point;
        point.round = record.fl.round;
        point.accuracy = record.fl.test_accuracy;
        point.delay_seconds = record.delay.total();
        return point;
    }

    [[nodiscard]] const chain::Blockchain* blockchain()
        const noexcept override {
        return &system_.blockchain();
    }
    [[nodiscard]] const incentive::RewardLedger* reward_ledger()
        const noexcept override {
        return &system_.ledger();
    }

private:
    FairBfl system_;
};

class VanillaBflSystem final : public RecordedSystem {
public:
    VanillaBflSystem(const Environment& env, const VanillaBflConfig& config,
                     std::string name)
        : RecordedSystem(std::move(name), config.fl.rounds),
          system_(*env.model, env.make_clients(), env.test, config) {}

    SeriesPoint step() override {
        const VanillaRoundRecord record = system_.run_round();
        SeriesPoint point;
        point.round = record.fl.round;
        point.accuracy = record.fl.test_accuracy;
        point.delay_seconds = record.delay.total();
        return point;
    }

    [[nodiscard]] const chain::Blockchain* blockchain()
        const noexcept override {
        return &system_.blockchain();
    }

private:
    VanillaBfl system_;
};

/// Pure blockchain: a ledger learns nothing, so accuracy stays 0.
class BlockchainSystem final : public RecordedSystem {
public:
    BlockchainSystem(const BlockchainBaselineConfig& config, std::string name)
        : RecordedSystem(std::move(name), config.rounds), system_(config) {}

    SeriesPoint step() override {
        const BlockchainRoundRecord record = system_.run_round();
        SeriesPoint point;
        point.round = record.round;
        point.accuracy = 0.0;
        point.delay_seconds = record.delay.total();
        return point;
    }

    [[nodiscard]] const chain::Blockchain* blockchain()
        const noexcept override {
        return &system_.blockchain();
    }

private:
    BlockchainBaseline system_;
};

std::string label_or(const SystemSpec& spec, const char* fallback) {
    return spec.label.empty() ? fallback : spec.label;
}

void register_builtins(SystemRegistry& registry) {
    registry.add("fedavg", [](const Environment& env, const SystemSpec& spec) {
        return std::make_unique<FedAvgSystem>(env, spec.fl, spec.delay,
                                              label_or(spec, "FedAvg"));
    });
    registry.add("fedprox",
                 [](const Environment& env, const SystemSpec& spec) {
                     return std::make_unique<FedProxSystem>(
                         env, spec.fedprox, spec.delay,
                         label_or(spec, "FedProx"));
                 });
    registry.add("fairbfl",
                 [](const Environment& env, const SystemSpec& spec) {
                     return std::make_unique<FairBflSystem>(
                         env, spec.fair, label_or(spec, "FAIR"));
                 });
    registry.add("fairbfl_discard",
                 [](const Environment& env, const SystemSpec& spec) {
                     FairBflConfig config = spec.fair;
                     // An explicit reward override wins, like every other
                     // strategy field; only the derived default changes.
                     config.incentive.strategy =
                         incentive::LowContributionStrategy::kDiscard;
                     return std::make_unique<FairBflSystem>(
                         env, config, label_or(spec, "FAIR-Discard"));
                 });
    registry.add("pure_fl",
                 [](const Environment& env, const SystemSpec& spec) {
                     FairBflConfig config = spec.fair;
                     config.stage_exchange = false;  // Procedure III off
                     config.stage_mining = false;    // Procedure V off
                     return std::make_unique<FairBflSystem>(
                         env, config, label_or(spec, "pure-FL"));
                 });
    registry.add("vanilla_bfl",
                 [](const Environment& env, const SystemSpec& spec) {
                     return std::make_unique<VanillaBflSystem>(
                         env, spec.vanilla, label_or(spec, "vanilla-BFL"));
                 });
    registry.add("blockchain",
                 [](const Environment&, const SystemSpec& spec) {
                     return std::make_unique<BlockchainSystem>(
                         spec.blockchain, label_or(spec, "Blockchain"));
                 });
}

}  // namespace

SystemSpec fedavg_spec(const fl::FlConfig& config, const DelayParams& delay,
                       std::string label) {
    SystemSpec spec;
    spec.system = "fedavg";
    spec.label = std::move(label);
    spec.fl = config;
    spec.delay = delay;
    return spec;
}

SystemSpec fedprox_spec(const fl::FedProxConfig& config,
                        const DelayParams& delay, std::string label) {
    SystemSpec spec;
    spec.system = "fedprox";
    spec.label = std::move(label);
    spec.fedprox = config;
    spec.delay = delay;
    return spec;
}

SystemSpec fairbfl_spec(const FairBflConfig& config, std::string label) {
    SystemSpec spec;
    spec.system = "fairbfl";
    spec.label = std::move(label);
    spec.fair = config;
    return spec;
}

SystemSpec pure_fl_spec(const FairBflConfig& config, std::string label) {
    SystemSpec spec = fairbfl_spec(config, std::move(label));
    spec.system = "pure_fl";
    return spec;
}

SystemSpec fairbfl_discard_spec(const FairBflConfig& config,
                                std::string label) {
    SystemSpec spec = fairbfl_spec(config, std::move(label));
    spec.system = "fairbfl_discard";
    return spec;
}

SystemSpec vanilla_bfl_spec(const VanillaBflConfig& config,
                            std::string label) {
    SystemSpec spec;
    spec.system = "vanilla_bfl";
    spec.label = std::move(label);
    spec.vanilla = config;
    return spec;
}

SystemSpec blockchain_spec(const BlockchainBaselineConfig& config,
                           std::string label) {
    SystemSpec spec;
    spec.system = "blockchain";
    spec.label = std::move(label);
    spec.blockchain = config;
    return spec;
}

std::unique_ptr<System> SystemRegistry::make(const Environment& env,
                                             const SystemSpec& spec) const {
    return find(spec.system)(env, spec);
}

SystemRegistry& SystemRegistry::global() {
    static SystemRegistry* registry = [] {
        auto* r = new SystemRegistry;
        register_builtins(*r);
        return r;
    }();
    return *registry;
}

SystemRun run_system(const Environment& env, const SystemSpec& spec,
                     const SystemRegistry& registry) {
    const std::unique_ptr<System> system = registry.make(env, spec);
    const std::size_t rounds =
        spec.rounds != 0 ? spec.rounds : system->default_rounds();
    for (std::size_t r = 0; r < rounds; ++r) (void)system->run_round();
    SystemRun run = system->finalize();
    // Defensive normalization applied by *both* entry points (so run_suite
    // and run_system stay interchangeable): SystemRun::finalize() is
    // idempotent, and re-running it keeps custom System implementations
    // honest about the §5.2 aggregate protocol.
    run.finalize();
    return run;
}

std::vector<SystemRun> run_suite(const Environment& env,
                                 std::span<const SystemSpec> specs,
                                 support::ThreadPool& pool,
                                 const SystemRegistry& registry) {
    std::vector<SystemRun> results(specs.size());
    // A degenerate suite gains nothing from forking: run it serially.  A
    // real suite forks one task per worker; each system's inner
    // parallel_for then fans out across whichever workers are idle (the
    // work-stealing scheduler composes under nesting -- see
    // ThreadPool::run), so suite- and client-level parallelism share the
    // same pool.
    if (specs.size() <= 1 || pool.size() <= 1) {
        for (std::size_t i = 0; i < specs.size(); ++i)
            results[i] = run_system(env, specs[i], registry);
        return results;
    }

    std::vector<std::exception_ptr> errors(specs.size());
    std::atomic<std::size_t> next{0};
    pool.run([&](unsigned) {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= specs.size()) return;
            try {
                results[i] = run_system(env, specs[i], registry);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    });
    for (const auto& error : errors) {
        if (error) std::rethrow_exception(error);
    }
    return results;
}

}  // namespace fairbfl::core
