#include "netscatter/scenario/scenario_runner.hpp"

#include <chrono>
#include <utility>

#include "netscatter/obs/metrics.hpp"
#include "netscatter/sim/timeline.hpp"
#include "netscatter/util/error.hpp"

namespace ns::scenario {

double scenario_result::throughput_bps() const {
    if (sim.rounds.empty() || round_time_s <= 0.0) return 0.0;
    const double payload_bits =
        static_cast<double>(sim.total_delivered) *
        static_cast<double>(spec.sim.frame.payload_bits);
    return payload_bits /
           (static_cast<double>(sim.rounds.size()) * round_time_s);
}

double scenario_result::loss_rate() const {
    if (sim.total_transmitting == 0) return 0.0;
    return 1.0 - sim.delivery_rate();
}

double scenario_result::network_latency_s() const {
    return round_time_s * static_cast<double>(num_groups == 0 ? 1 : num_groups);
}

bool carries_config2_query(const ns::sim::round_outcome& round) {
    return round.full_reassignments > 0 || round.regroups > 0;
}

replica_result run_scenario_replica(const scenario_spec& spec, std::size_t r) {
    // Every replica rebuilds the (identical) deployment rather than
    // sharing one: replica tasks stay pure functions of their index
    // with no cross-thread reads.
    const ns::sim::deployment_params dep_params = resolve_geometry(spec.geometry);
    const ns::sim::deployment dep(dep_params, spec.geometry.num_devices,
                                  spec.sim.seed);
    scenario_driver driver(spec, dep,
                           ns::engine::split_seed(spec.sim.seed, 0xd21f, r));
    ns::sim::sim_config config = spec.sim;
    config.seed = ns::engine::split_seed(spec.sim.seed, 0x51a1, r);
    // Spec-level fault processes ride into the simulator; with both
    // all-zero (the default) nothing changes downstream.
    if (spec.faults.enabled()) config.faults = spec.faults;
    // Each replica's spans land on their own Perfetto track, so a
    // parallel run renders as stacked per-replica timelines.
    config.obs.trace_track = static_cast<std::uint32_t>(r);
    ns::sim::network_simulator sim(dep, config, &driver);
    const std::uint64_t replica_start_ns = ns::obs::now_ns();
    replica_result out{sim.run(), driver.stats()};
    if (config.obs.metrics) {
        // Per-replica wall clock as a host histogram observation: the
        // merged snapshot then reports replica-wall min/max/mean across
        // the whole run.
        out.sim.metrics.record_value(
            "replica.wall_s",
            static_cast<double>(ns::obs::now_ns() - replica_start_ns) * 1e-9,
            ns::obs::origin::host);
    }
    return out;
}

scenario_result run_scenario(const scenario_spec& spec,
                             ns::engine::mc_options options) {
    ns::util::require(spec.replicas >= 1, "scenario: replicas must be >= 1");
    spec.sim.validate();
    spec.faults.validate();
    const auto start = std::chrono::steady_clock::now();

    std::vector<replica_result> replicas = ns::engine::run_indexed(
        spec.replicas, options,
        [&](std::size_t r) { return run_scenario_replica(spec, r); });
    const double wall_clock_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return merge_scenario_replicas(spec, std::move(replicas), wall_clock_s);
}

scenario_result merge_scenario_replicas(const scenario_spec& spec,
                                        std::vector<replica_result> replicas,
                                        double wall_clock_s) {
    scenario_result result;
    result.spec = spec;
    result.replicas = spec.replicas;
    for (auto& replica : replicas) {
        result.sim.merge(replica.sim);
        result.stats.merge(replica.stats);
    }
    const ns::sim::round_timing config1_timing = ns::sim::netscatter_round(
        spec.sim.frame, spec.sim.phy, ns::sim::query_config::config1);
    const ns::sim::round_timing config2_timing = ns::sim::netscatter_round(
        spec.sim.frame, spec.sim.phy, ns::sim::query_config::config2);
    result.round_time_s = config1_timing.total_time_s;
    result.config1_query_time_s = config1_timing.query_time_s;
    result.config2_query_time_s = config2_timing.query_time_s;
    result.num_groups = result.sim.num_groups;
    // Control-plane cost on the query-overhead timeline (§3.3.3): see
    // carries_config2_query for the rule.
    const double config2_extra_s =
        config2_timing.query_time_s - config1_timing.query_time_s;
    std::size_t config2_rounds = 0;
    for (const auto& round : result.sim.rounds) {
        if (carries_config2_query(round)) ++config2_rounds;
    }
    result.control_overhead_s = static_cast<double>(config2_rounds) * config2_extra_s;
    result.wall_clock_s = wall_clock_s;
    return result;
}

}  // namespace ns::scenario
