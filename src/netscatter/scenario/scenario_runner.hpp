// Deterministic scenario execution at scale.
//
// A scenario runs as `spec.replicas` independent Monte-Carlo replicas.
// Each replica is a pure function of (spec, replica index): it builds
// the deployment, a scenario_driver on a split seed, and a simulator,
// and runs the full round sequence — cross-round state (fading memory,
// churn queues, waypoint positions, power-adaptation baselines) stays
// inside its replica. Replicas fan out through ns::engine::run_indexed
// and merge in replica order, so a run is bit-identical on any thread
// count — the contract tests/test_scenario.cpp enforces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netscatter/engine/mc_runner.hpp"
#include "netscatter/scenario/scenario_driver.hpp"
#include "netscatter/scenario/scenario_spec.hpp"
#include "netscatter/sim/network_sim.hpp"

namespace ns::scenario {

/// Outcome of one scenario run.
struct scenario_result {
    scenario_spec spec;        ///< the spec as executed
    ns::sim::sim_result sim;   ///< per-round outcomes, replicas concatenated
    driver_stats stats;        ///< control-plane stats, replicas merged
    std::size_t replicas = 0;
    double round_time_s = 0.0;   ///< airtime of one query-response round
    /// §3.3.3: scheduled-group count (0 when grouping is off). Serving
    /// the whole population once takes num_groups rounds.
    std::size_t num_groups = 0;
    /// Extra airtime the control plane spent on full-reassignment /
    /// regroup queries (the config-2 1760-bit ordering message instead
    /// of the 32-bit config-1 query), summed over the run.
    double control_overhead_s = 0.0;
    /// Query airtimes of the two query configurations for this spec's
    /// PHY/frame — the values the per-round query_time_s timeline and
    /// control_overhead_s are derived from (computed once here so the
    /// costing rule cannot drift between the runner and its consumers).
    double config1_query_time_s = 0.0;
    double config2_query_time_s = 0.0;
    double wall_clock_s = 0.0;   ///< host time (excluded from determinism)

    /// Mean delivered goodput in bit/s over the simulated airtime.
    double throughput_bps() const;
    /// 1 - delivery_rate over transmitted packets.
    double loss_rate() const;
    /// Time to serve every device once: one round per scheduled group.
    double network_latency_s() const;
};

/// Whether a round's query carried a config-2 ordering message (a full
/// reassignment or regroup rode it): that round pays the 1760-bit query
/// airtime instead of the 32-bit query. One query per round, however
/// many events it carried — control_overhead_s and the per-round
/// query_time_s series both follow this rule.
bool carries_config2_query(const ns::sim::round_outcome& round);

/// Outcome of one Monte-Carlo replica — the task run_scenario and the
/// sweep engine both fan out through ns::engine::run_indexed.
struct replica_result {
    ns::sim::sim_result sim;
    driver_stats stats;
};

/// Runs replica `r` of `spec`: a pure function of (spec, r) — it builds
/// its own deployment, driver and simulator on split seeds, so replicas
/// of different specs can interleave freely on one worker pool.
replica_result run_scenario_replica(const scenario_spec& spec, std::size_t r);

/// Merges per-replica outcomes (must be in replica order) into a
/// scenario_result, deriving the timing/overhead summary fields.
/// `wall_clock_s` is the caller-measured host time (excluded from
/// determinism).
scenario_result merge_scenario_replicas(const scenario_spec& spec,
                                        std::vector<replica_result> replicas,
                                        double wall_clock_s);

/// Runs `spec` and returns the merged result. Deterministic in spec
/// alone: every options.num_threads gives bit-identical results.
scenario_result run_scenario(const scenario_spec& spec,
                             ns::engine::mc_options options = {});

}  // namespace ns::scenario
