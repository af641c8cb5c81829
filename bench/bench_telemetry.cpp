// bench_telemetry: per-event overhead of the telemetry hot path.
//
// Measures the cost of one span (begin+end record pair), one counter_add,
// and the disabled-switch path, single-threaded and across a thread
// fan-out.  Plain binary (no Google Benchmark dependency) so it always
// builds; CI runs it to keep the per-event cost visible next to the
// end-to-end <=2% gate on a traced fairbfl_sim run's wall_s.
//
//   ./bench_telemetry [--events=2000000] [--threads=8]

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "support/cli.hpp"
#include "telemetry/telemetry.hpp"

using namespace fairbfl;

namespace {

using Clock = std::chrono::steady_clock;

double ns_per_event(Clock::time_point start, Clock::time_point stop,
                    std::size_t events) {
    return std::chrono::duration<double, std::nano>(stop - start).count() /
           static_cast<double>(events);
}

}  // namespace

int main(int argc, char** argv) {
    support::CliArgs args(argc, argv);
    if (args.help_requested()) {
        std::puts(
            "bench_telemetry: per-event cost of the telemetry hot path\n"
            "  --events=2000000   events per timed loop\n"
            "  --threads=8        writer threads in the contention loop");
        return 0;
    }
    const auto events =
        static_cast<std::size_t>(args.get_int("events", 2'000'000));
    const auto threads =
        static_cast<unsigned>(args.get_int("threads", 8));
    if (!args.finish("bench_telemetry")) return 1;

    const telemetry::Label span_label = telemetry::intern("bench.span");
    const telemetry::Label counter_label = telemetry::intern("bench.counter");

    // Warm up: adopt this thread's ring, fault the pages.
    for (int i = 0; i < 10'000; ++i) {
        telemetry::Span span(span_label);
    }
    telemetry::flush_all();

    telemetry::set_enabled(true);
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < events; ++i) {
        telemetry::Span span(span_label);
    }
    auto t1 = Clock::now();
    // One span = two records (begin + end).
    std::printf("span_enabled        %8.2f ns/span  (%zu spans)\n",
                ns_per_event(t0, t1, events), events);

    t0 = Clock::now();
    for (std::size_t i = 0; i < events; ++i) {
        telemetry::counter_add(counter_label, i);
    }
    t1 = Clock::now();
    std::printf("counter_enabled     %8.2f ns/event (%zu events)\n",
                ns_per_event(t0, t1, events), events);

    telemetry::set_enabled(false);
    t0 = Clock::now();
    for (std::size_t i = 0; i < events; ++i) {
        telemetry::Span span(span_label);
    }
    t1 = Clock::now();
    std::printf("span_disabled       %8.2f ns/span\n",
                ns_per_event(t0, t1, events));
    telemetry::set_enabled(true);

    // Thread fan-out: per-thread rings mean no shared cache line on the
    // write path; per-thread throughput should hold near the
    // single-thread number.
    const std::size_t per_thread = events / std::max(threads, 1U);
    t0 = Clock::now();
    {
        std::vector<std::thread> workers;
        workers.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) {
            workers.emplace_back([per_thread, span_label] {
                for (std::size_t i = 0; i < per_thread; ++i) {
                    telemetry::Span span(span_label);
                }
            });
        }
        for (auto& worker : workers) worker.join();
    }
    t1 = Clock::now();
    std::printf("span_%u_threads      %8.2f ns/span  (wall per event)\n",
                threads,
                ns_per_event(t0, t1, per_thread * threads));

    telemetry::flush_all();
    std::printf("dropped_records     %llu\n",
                static_cast<unsigned long long>(telemetry::dropped_records()));
    return 0;
}
