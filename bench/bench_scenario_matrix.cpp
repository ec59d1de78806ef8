// Scenario matrix bench: every registered scenario at a reduced round
// count, one JSON point per scenario — the coarse "is every workload
// still healthy, and what does it cost" trajectory tracked across PRs
// (full per-round series come from the netscatter_sim CLI).
//
// On top of the per-scenario sweep, the matrix runs a fidelity A/B on
// the grouped 1k-device workload: the same spec under
// phy_fidelity::sample and ::symbol at equal thread count, recording
// both round throughputs and their ratio — the measured (not asserted)
// speedup of the symbol-domain fast path.
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <optional>

#include "bench_report.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/scenario/scenario_registry.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/util/table.hpp"

// Allocation hook feeding the thread-local obs counters, so the matrix
// can report steady-state allocations per round for every workload.
// -Wmismatched-new-delete false-positives when GCC inlines only one side
// of the replaced malloc/free pair (see apps/netscatter_sim.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
    ns::obs::record_allocation(size);
    if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

/// Rounds decoded per second of round-loop host time (synthesis +
/// decode, association and deployment construction excluded).
double rounds_per_second(const ns::scenario::scenario_result& result) {
    const ns::sim::round_wall_split wall = ns::sim::wall_split(result.sim.metrics);
    const double loop_s = wall.synth_s + wall.decode_s;
    if (loop_s <= 0.0) return 0.0;
    return static_cast<double>(result.sim.rounds.size()) / loop_s;
}

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
        {"scenario", "devices", "groups", "delivery", "skip", "idle", "joins",
         "synth [ms/rd]", "decode [ms/rd]", "wall [s]"});

    for (auto spec : ns::scenario::registry()) {
        spec.sim.rounds = rounds;
        const auto result = ns::scenario::run_scenario(spec);
        const double n_rounds =
            std::max<double>(1.0, static_cast<double>(result.sim.rounds.size()));
        const ns::sim::round_wall_split wall = ns::sim::wall_split(result.sim.metrics);
        table.add_row({spec.name, std::to_string(spec.geometry.num_devices),
                       result.num_groups == 0 ? "-" : std::to_string(result.num_groups),
                       ns::util::format_double(100.0 * result.sim.delivery_rate(), 1) + " %",
                       ns::util::format_double(100.0 * result.sim.skip_rate(), 1) + " %",
                       ns::util::format_double(100.0 * result.sim.idle_rate(), 1) + " %",
                       std::to_string(result.sim.total_joins),
                       ns::util::format_double(wall.synth_s * 1e3 / n_rounds, 2),
                       ns::util::format_double(wall.decode_s * 1e3 / n_rounds, 2),
                       ns::util::format_double(result.wall_clock_s, 2)});
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
             {"steady_allocs_per_round", steady_allocs_per_round(result)},
             {"synth_ms_per_round", wall.synth_s * 1e3 / n_rounds},
             {"decode_ms_per_round", wall.decode_s * 1e3 / n_rounds},
             {"wall_clock_s", result.wall_clock_s}});
    }

    table.print(std::cout);

    // --- Fidelity A/B: warehouse-1k-grouped, sample vs symbol ----------
    // Equal thread count (the scenario runner's default policy for both
    // runs); round throughput counts only the round loop, so the shared
    // association/deployment setup does not dilute the comparison.
    {
        auto spec = *ns::scenario::find_scenario("warehouse-1k-grouped");
        spec.sim.rounds = std::max<std::size_t>(rounds, 12);
        spec.sim.fidelity = ns::sim::phy_fidelity::sample;
        const auto sample = ns::scenario::run_scenario(spec);
        spec.sim.fidelity = ns::sim::phy_fidelity::symbol;
        const auto symbol = ns::scenario::run_scenario(spec);
        const double sample_rps = rounds_per_second(sample);
        const double symbol_rps = rounds_per_second(symbol);
        const double speedup = sample_rps > 0.0 ? symbol_rps / sample_rps : 0.0;
        std::cout << "\nwarehouse-1k-grouped round throughput: sample "
                  << ns::util::format_double(sample_rps, 1) << " rounds/s, symbol "
                  << ns::util::format_double(symbol_rps, 1) << " rounds/s ("
                  << ns::util::format_double(speedup, 1) << "x)\n";
        report.set_scalar("warehouse_1k_sample_rounds_per_s", sample_rps);
        report.set_scalar("warehouse_1k_symbol_rounds_per_s", symbol_rps);
        report.set_scalar("warehouse_1k_fast_path_speedup", speedup);
        report.set_scalar("warehouse_1k_sample_delivery", sample.sim.delivery_rate());
        report.set_scalar("warehouse_1k_symbol_delivery", symbol.sim.delivery_rate());
    }

    // --- field-100k: full single replica, intra-round fan-out ----------
    // The flagship scale point at its real spec (not the reduced matrix
    // round count): one replica of 100k devices at SF12, symbol blocks
    // fanned across 8 intra-round threads. replica_wall_s is the
    // CI-gated wall-clock budget of ROADMAP item 1 ("a full field-100k
    // replica well under 100 ms").
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
