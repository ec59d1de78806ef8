// Scenario matrix bench: every registered scenario at a reduced round
// count, one JSON point per scenario — the coarse "is every workload
// still healthy" check CI gates against bench/baseline_scenario_matrix.json
// (full per-round series come from the netscatter_sim CLI; round-loop
// timing comes from benchmark/ns_bench).
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>

#include "apps/alloc_hook.hpp"
#include "bench_report.hpp"
#include "netscatter/scenario/scenario_registry.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/util/table.hpp"

namespace {

/// Mean heap allocations per post-warmup round (alloc.* counters of the
/// merged metrics snapshot; 0 when no steady rounds ran).
double steady_allocs_per_round(const ns::scenario::scenario_result& result) {
    const std::uint64_t steady_rounds =
        result.sim.metrics.counter_value("alloc.steady_rounds");
    if (steady_rounds == 0) return 0.0;
    return static_cast<double>(
               result.sim.metrics.counter_value("alloc.steady_count")) /
           static_cast<double>(steady_rounds);
}

/// Rounds per replica from NS_BENCH_SCENARIO_ROUNDS (default 6); empty
/// when the variable is set to anything but a positive integer.
std::optional<std::size_t> scenario_rounds() {
    const char* text = std::getenv("NS_BENCH_SCENARIO_ROUNDS");
    if (text == nullptr) return 6;
    const char* const end = text + std::strlen(text);
    std::size_t rounds = 0;
    const auto [ptr, ec] = std::from_chars(text, end, rounds);
    if (ec != std::errc{} || ptr != end || rounds == 0) return std::nullopt;
    return rounds;
}

}  // namespace

int main() {
    const std::optional<std::size_t> parsed_rounds = scenario_rounds();
    if (!parsed_rounds) {
        std::cerr << "NS_BENCH_SCENARIO_ROUNDS must be a positive integer, got '"
                  << std::getenv("NS_BENCH_SCENARIO_ROUNDS") << "'\n";
        return 2;
    }
    const std::size_t rounds = *parsed_rounds;

    bench::bench_report report("scenario_matrix");
    bench::stopwatch clock;

    ns::util::text_table table(
        "Scenario matrix (" + std::to_string(rounds) + " rounds/replica)",
        {"scenario", "devices", "groups", "delivery", "skip", "idle", "joins"});

    for (auto spec : ns::scenario::registry()) {
        spec.sim.rounds = rounds;
        const auto result = ns::scenario::run_scenario(spec);
        table.add_row({spec.name, std::to_string(spec.geometry.num_devices),
                       result.num_groups == 0 ? "-" : std::to_string(result.num_groups),
                       ns::util::format_double(100.0 * result.sim.delivery_rate(), 1) + " %",
                       ns::util::format_double(100.0 * result.sim.skip_rate(), 1) + " %",
                       ns::util::format_double(100.0 * result.sim.idle_rate(), 1) + " %",
                       std::to_string(result.sim.total_joins)});
        report.add_point(
            {{"scenario", spec.name},
             {"num_devices", static_cast<double>(spec.geometry.num_devices)},
             {"num_groups", static_cast<double>(result.num_groups)},
             {"delivery_rate", result.sim.delivery_rate()},
             {"throughput_bps", result.throughput_bps()},
             {"skip_rate", result.sim.skip_rate()},
             {"idle_rate", result.sim.idle_rate()},
             {"joins", static_cast<double>(result.sim.total_joins)},
             {"leaves", static_cast<double>(result.sim.total_leaves)},
             {"realloc_events", static_cast<double>(result.sim.total_realloc_events)},
             {"regroups", static_cast<double>(result.sim.total_regroups)},
             {"control_overhead_s", result.control_overhead_s},
             {"association_collisions",
              static_cast<double>(result.stats.association_collisions)},
             {"mean_reassoc_latency_rounds", result.stats.mean_join_latency_rounds()},
             {"cross_tx", static_cast<double>(result.sim.total_cross_tx)},
             {"cross_collisions",
              static_cast<double>(result.sim.total_cross_collisions)},
             {"fast_path_rounds", static_cast<double>(result.sim.fast_path_rounds)},
             {"steady_allocs_per_round", steady_allocs_per_round(result)}});
    }

    table.print(std::cout);

    // --- field-100k: full single replica, intra-round fan-out ----------
    // The flagship scale point at its real spec (not the reduced matrix
    // round count): one replica of 100k devices at SF12, symbol blocks
    // fanned across 8 intra-round threads. CI gates replica_wall_s
    // against a 100 ms budget (bench/baseline_field100k_wall.json).
    {
        auto spec = *ns::scenario::find_scenario("field-100k");
        spec.sim.intra_round_threads = 8;
        const auto result = ns::scenario::run_scenario(spec);
        const double replica_wall_s =
            result.sim.metrics.histogram_sum("replica.wall_s");
        std::cout << "\nfield-100k full replica (" << spec.sim.rounds
                  << " rounds, 8 intra-round threads): "
                  << ns::util::format_double(replica_wall_s * 1e3, 1)
                  << " ms\n";
        report.add_point(
            {{"scenario", "field-100k-full-replica"},
             {"num_devices", static_cast<double>(spec.geometry.num_devices)},
             {"delivery_rate", result.sim.delivery_rate()},
             {"fast_path_rounds",
              static_cast<double>(result.sim.fast_path_rounds)},
             {"steady_allocs_per_round", steady_allocs_per_round(result)},
             {"replica_wall_s", replica_wall_s}});
        report.set_scalar("field_100k_replica_wall_s", replica_wall_s);
    }

    report.set_scalar("rounds_per_replica", static_cast<double>(rounds));
    report.set_scalar("wall_clock_s", clock.seconds());
    report.write();
    return 0;
}
