// Unit tests for the scenario subsystem: registry, traffic/churn/
// mobility/interference models, hook integration with the simulator,
// and — the load-bearing contract — bit-identical results on any
// thread count for every registered scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/scenario_report.hpp"
#include "netscatter/engine/mc_runner.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/scenario/churn.hpp"
#include "netscatter/scenario/interference.hpp"
#include "netscatter/scenario/mobility.hpp"
#include "netscatter/scenario/scenario_driver.hpp"
#include "netscatter/scenario/scenario_registry.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/scenario/traffic.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/sim/network_sim.hpp"
#include "netscatter/spec/spec_codec.hpp"
#include "tests/outcome_digest.hpp"

namespace {

using namespace ns::scenario;

// ------------------------------------------------------------ registry --

TEST(registry, ships_at_least_eight_unique_runnable_scenarios) {
    const auto& scenarios = registry();
    EXPECT_GE(scenarios.size(), 8u);
    std::set<std::string> names;
    for (const auto& spec : scenarios) {
        EXPECT_FALSE(spec.name.empty());
        EXPECT_FALSE(spec.description.empty());
        EXPECT_GT(spec.geometry.num_devices, 0u);
        EXPECT_GT(spec.sim.rounds, 0u);
        EXPECT_GE(spec.replicas, 1u);
        names.insert(spec.name);
        EXPECT_TRUE(find_scenario(spec.name).has_value());
    }
    EXPECT_EQ(names.size(), scenarios.size());
    EXPECT_FALSE(find_scenario("no-such-scenario").has_value());
}

TEST(registry, geometry_presets_resolve_distinctly) {
    geometry_spec office{};
    geometry_spec warehouse{};
    warehouse.preset = geometry_preset::warehouse_aisle;
    geometry_spec field{};
    field.preset = geometry_preset::open_field;
    const auto o = resolve_geometry(office);
    const auto w = resolve_geometry(warehouse);
    const auto f = resolve_geometry(field);
    EXPECT_NE(o.floor_width_m, w.floor_width_m);
    EXPECT_EQ(f.rooms_x * f.rooms_y, 1u);  // no interior walls in the field
    // Overrides win over the preset.
    field.ap_tx_dbm = 12.5;
    EXPECT_DOUBLE_EQ(resolve_geometry(field).ap_tx_dbm, 12.5);
}

// --------------------------------------------------------- determinism --

/// Everything determinism guarantees, as a comparable string (wall clock
/// excluded on purpose).
std::string fingerprint(const scenario_result& result) {
    std::ostringstream out;
    out.precision(17);
    ns::test::write_outcome_digest(out, result.sim);
    out << '\n' << result.stats.join_requests << ' ' << result.stats.joins << ' '
        << result.stats.total_join_wait_rounds << ' ' << result.stats.offered
        << ' ' << result.stats.gated;
    for (const double latency : result.stats.join_latency_series) {
        out << ' ' << latency;
    }
    return out.str();
}

/// Shrinks a spec so the all-scenarios sweep stays fast while still
/// walking every model's code path.
scenario_spec shrink(scenario_spec spec, std::size_t rounds,
                     std::size_t max_devices) {
    spec.sim.rounds = rounds;
    spec.replicas = 2;
    if (spec.geometry.num_devices > max_devices) {
        spec.geometry.num_devices = max_devices;
        spec.churn.initial_active =
            std::min(spec.churn.initial_active, max_devices / 2);
        if (spec.sim.grouping.enabled) {
            // Keep the shrunk population multi-group so the sweep still
            // exercises the scheduled-group path.
            spec.sim.grouping.group_capacity =
                std::max<std::size_t>(1, max_devices / 4);
        }
    }
    return spec;
}

TEST(scenario_runner, every_registered_scenario_is_bit_identical_serial_vs_8_threads) {
    for (const auto& registered : registry()) {
        const scenario_spec spec = shrink(registered, 3, 96);
        const auto serial = run_scenario(spec, {.num_threads = 1});
        const auto threaded = run_scenario(spec, {.num_threads = 8});
        EXPECT_EQ(fingerprint(serial), fingerprint(threaded)) << registered.name;

        // Conservation invariants of every round and of the merged run.
        const ns::sim::sim_result& sim = serial.sim;
        const std::size_t frame_bits = spec.sim.frame.payload_plus_crc_bits();
        for (const ns::sim::round_outcome& round : sim.rounds) {
            EXPECT_LE(round.delivered, round.detected) << registered.name;
            EXPECT_LE(round.detected, round.transmitting) << registered.name;
            EXPECT_EQ(round.bits_sent, round.transmitting * frame_bits)
                << registered.name;
        }
        for (std::size_t i = 0; i < ns::sim::outcome_counters.size(); ++i) {
            const ns::sim::outcome_counter& counter = ns::sim::outcome_counters[i];
            std::size_t sum = 0;
            for (const ns::sim::round_outcome& round : sim.rounds) {
                sum += round.*counter.round;
            }
            EXPECT_EQ(sim.*counter.total, sum)
                << registered.name << ", outcome_counters[" << i << "]";
        }
        EXPECT_EQ(sim.total_down_events,
                  sim.total_recoveries + sim.devices_down_at_end)
            << registered.name;
    }
}

TEST(scenario_runner, churn_and_mobility_identical_across_1_2_8_threads) {
    for (const char* name : {"churn-heavy", "commute-mobility"}) {
        const auto registered = find_scenario(name);
        ASSERT_TRUE(registered.has_value());
        scenario_spec spec = *registered;
        spec.sim.rounds = 4;
        spec.replicas = 3;  // more tasks than some thread counts
        const auto t1 = run_scenario(spec, {.num_threads = 1});
        const auto t2 = run_scenario(spec, {.num_threads = 2});
        const auto t8 = run_scenario(spec, {.num_threads = 8});
        EXPECT_EQ(fingerprint(t1), fingerprint(t2)) << name;
        EXPECT_EQ(fingerprint(t2), fingerprint(t8)) << name;
    }
}

TEST(scenario_runner, nested_round_threads_identical_across_replica_threads) {
    // The caller claims replicas alongside the outer runner's workers
    // while every replica owns an inner runner for its symbol sweep.
    scenario_spec spec = shrink(*find_scenario("office-256"), 3, 256);
    spec.replicas = 4;
    spec.sim.intra_round_threads = 4;
    const auto t1 = run_scenario(spec, {.num_threads = 1});
    const auto t4 = run_scenario(spec, {.num_threads = 4});
    EXPECT_EQ(fingerprint(t1), fingerprint(t4));
    EXPECT_GT(t1.sim.total_delivered, 0u);
}

TEST(scenario_runner, churn_heavy_drives_reassociation_end_to_end) {
    auto spec = *find_scenario("churn-heavy");
    spec.sim.rounds = 10;
    const auto result = run_scenario(spec);
    EXPECT_GT(result.sim.total_joins, 0u);
    EXPECT_GT(result.sim.total_leaves, 0u);
    EXPECT_GT(result.sim.total_realloc_events, 0u);
    EXPECT_GE(result.stats.mean_join_latency_rounds(), 1.0);
    EXPECT_EQ(result.sim.total_joins, result.stats.joins);
    // The per-round latency series aligns with the concatenated rounds.
    EXPECT_EQ(result.stats.join_latency_series.size(), result.sim.rounds.size());
}

// ---------------------------------------------------- group scheduling --

TEST(scenario_runner, warehouse_grouped_runs_population_as_scheduled_groups) {
    auto spec = *find_scenario("warehouse-1k-grouped");
    spec.sim.rounds = 8;
    spec.replicas = 1;
    const auto result = run_scenario(spec);

    // The acceptance bar: >= 4 scheduled groups, not a join queue — the
    // whole 1k population holds (group, slot) assignments at once.
    EXPECT_GE(result.num_groups, 4u);
    const std::size_t one_round_capacity = concurrency_capacity(spec);
    bool any_round_beyond_one_group = false;
    for (const auto& round : result.sim.rounds) {
        EXPECT_GE(round.scheduled_group, 0);
        EXPECT_LT(static_cast<std::size_t>(round.scheduled_group), result.num_groups);
        EXPECT_LE(round.scheduled, one_round_capacity);
        if (round.active > one_round_capacity) any_round_beyond_one_group = true;
    }
    EXPECT_TRUE(any_round_beyond_one_group);

    // Round-robin: consecutive rounds address consecutive groups.
    ASSERT_GE(result.sim.rounds.size(), 2u);
    EXPECT_NE(result.sim.rounds[0].scheduled_group,
              result.sim.rounds[1].scheduled_group);

    // Per-group metrics decompose the network totals. (groups may hold
    // retired rows beyond num_groups after a shrinking regroup.)
    ASSERT_GE(result.sim.groups.size(), result.num_groups);
    std::size_t delivered = 0, transmitting = 0, members = 0, scheduled_rounds = 0;
    for (const auto& group : result.sim.groups) {
        delivered += group.delivered;
        transmitting += group.transmitting;
        members += group.members;
        scheduled_rounds += group.scheduled_rounds;
        EXPECT_LE(group.max_power_dbm - group.min_power_dbm,
                  spec.sim.grouping.max_dynamic_range_db + 1e-9);
    }
    EXPECT_EQ(delivered, result.sim.total_delivered);
    EXPECT_EQ(transmitting, result.sim.total_transmitting);
    EXPECT_EQ(scheduled_rounds, result.sim.rounds.size());
    // Every active device sits in exactly one group.
    EXPECT_EQ(members, result.sim.rounds.back().active);
}

TEST(scenario_runner, periodic_regroup_keeps_group_ids_stable_and_pays_overhead) {
    // A grouped population without churn: the periodic policy recomputes
    // the partition mid-run; the same population must land in the same
    // number of contiguously-numbered groups, and the regroup's config-2
    // query must show up as control overhead.
    scenario_spec spec;
    spec.name = "regroup-test";
    spec.geometry.preset = geometry_preset::warehouse_aisle;
    spec.geometry.num_devices = 96;
    spec.sim.rounds = 9;
    spec.sim.seed = 21;
    spec.sim.zero_padding = 4;
    spec.sim.grouping.enabled = true;
    spec.sim.grouping.group_capacity = 24;
    spec.sim.grouping.policy = ns::sim::regroup_policy::periodic;
    spec.sim.grouping.regroup_period_rounds = 4;
    spec.replicas = 1;

    const auto result = run_scenario(spec);
    EXPECT_EQ(result.num_groups, 4u);  // 96 / 24, stable across regroups
    EXPECT_EQ(result.sim.groups.size(), 4u);
    EXPECT_EQ(result.sim.total_regroups, 2u);  // rounds 4 and 8
    EXPECT_GT(result.control_overhead_s, 0.0);
    EXPECT_GT(result.sim.total_realloc_events, 0u);
    // Group ids stay contiguous and every device stays grouped.
    std::size_t members = 0;
    for (const auto& group : result.sim.groups) {
        EXPECT_EQ(group.members, 24u);
        members += group.members;
    }
    EXPECT_EQ(members, 96u);
    // Rounds that carried a regroup are marked on the timeline.
    std::size_t regroup_rounds = 0;
    for (const auto& round : result.sim.rounds) regroup_rounds += round.regroups;
    EXPECT_EQ(regroup_rounds, 2u);
}

TEST(scenario_runner, grouped_network_latency_scales_with_group_count) {
    auto spec = shrink(*find_scenario("warehouse-1k-grouped"), 4, 96);
    spec.replicas = 1;
    const auto result = run_scenario(spec);
    ASSERT_GE(result.num_groups, 2u);
    EXPECT_NEAR(result.network_latency_s(),
                result.round_time_s * static_cast<double>(result.num_groups), 1e-12);
}

// --------------------------------------------------- aloha association --

TEST(scenario_runner, aloha_churn_shapes_reassociation_latency) {
    auto spec = *find_scenario("churn-aloha");
    spec.sim.rounds = 25;
    spec.replicas = 2;
    const auto result = run_scenario(spec);

    // Joins happened through contention: requests were transmitted,
    // simultaneous ones collided, and backoff stretched the waits.
    EXPECT_GT(result.sim.total_joins, 0u);
    EXPECT_GT(result.stats.association_tx, 0u);
    EXPECT_GT(result.stats.association_collisions, 0u);
    EXPECT_GE(result.stats.mean_join_latency_rounds(), 1.0);
    // The latency distribution exists and is ordered.
    ASSERT_EQ(result.stats.join_waits.size(), result.sim.total_joins);
    EXPECT_LE(result.stats.join_wait_percentile(50.0),
              result.stats.join_wait_percentile(95.0) + 1e-12);
    // With one grant per query, admissions are serialized.
    for (const auto& round : result.sim.rounds) {
        EXPECT_LE(round.joins, spec.churn.association_grants_per_round);
    }
}

TEST(scenario_runner, aloha_latency_tail_exceeds_queue_under_same_load) {
    // Same churn load through both admission paths, sized so the FIFO
    // queue keeps up (service rate above arrival rate — waits stay near
    // one round). Contention adds collisions and backoff on top, so the
    // Aloha tail must be at least as long.
    scenario_spec base;
    base.name = "admission-compare";
    base.geometry.num_devices = 128;
    base.sim.rounds = 24;
    base.sim.seed = 31;
    base.sim.zero_padding = 4;
    base.churn.join_rate_per_round = 1.5;
    base.churn.leave_rate_per_round = 1.5;
    base.churn.initial_active = 64;
    base.churn.max_joins_per_round = 4;
    base.churn.association_grants_per_round = 4;
    base.replicas = 2;

    scenario_spec queue = base;
    queue.churn.association = association_mode::bounded_queue;
    scenario_spec aloha = base;
    aloha.churn.association = association_mode::slotted_aloha;

    const auto queue_result = run_scenario(queue);
    const auto aloha_result = run_scenario(aloha);
    ASSERT_GT(queue_result.sim.total_joins, 0u);
    ASSERT_GT(aloha_result.sim.total_joins, 0u);
    EXPECT_EQ(queue_result.stats.association_collisions, 0u);
    EXPECT_GT(aloha_result.stats.association_collisions, 0u);
    EXPECT_GE(aloha_result.stats.join_wait_percentile(95.0),
              queue_result.stats.join_wait_percentile(95.0));
    EXPECT_GE(aloha_result.stats.mean_join_latency_rounds(),
              queue_result.stats.mean_join_latency_rounds());
}

TEST(scenario_runner, aloha_cold_start_admits_every_device_on_distinct_shifts) {
    // The association phase of §3.3.2 (Fig. 10): every device starts
    // unassociated and contends through slotted Aloha for the two
    // reserved shifts, one grant per query.
    scenario_spec spec = *find_scenario("office-256");
    const std::pair<const char*, const char*> overrides[] = {
        {"geometry.num_devices", "64"},
        {"churn.initial_active", "0"},
        {"churn.join_rate_per_round", "100"},
        {"churn.association", "slotted_aloha"},
        {"sim.rounds", "300"},
        {"replicas", "1"},
    };
    for (const auto& [key, value] : overrides) {
        ns::spec::apply_spec_override(spec, key, value, "cold start");
    }

    // Replica 0 by hand, as run_scenario_replica builds it, so the
    // simulator's final membership stays inspectable.
    const ns::sim::deployment dep(resolve_geometry(spec.geometry),
                                  spec.geometry.num_devices, spec.sim.seed);
    scenario_driver driver(spec, dep,
                           ns::engine::split_seed(spec.sim.seed, 0xd21f, 0));
    ns::sim::sim_config config = spec.sim;
    config.seed = ns::engine::split_seed(spec.sim.seed, 0x51a1, 0);
    ns::sim::network_simulator sim(dep, config, &driver);
    const ns::sim::sim_result result = sim.run();

    EXPECT_EQ(sim.ap().active_count(), 64u);
    const std::vector<std::uint32_t> shifts = sim.ap().active_shifts();
    EXPECT_EQ(std::set<std::uint32_t>(shifts.begin(), shifts.end()).size(),
              shifts.size());
    const driver_stats& stats = driver.stats();
    EXPECT_GT(stats.association_collisions, 0u);
    EXPECT_GT(stats.association_tx, 64u);  // collided requests were retried
    for (const auto& round : result.rounds) EXPECT_LE(round.joins, 1u);
    for (const double wait : stats.join_waits) {
        EXPECT_GE(wait, 1.0);
        EXPECT_LE(wait, 300.0);
    }
}

TEST(scenario_runner, oversubscribed_universe_respects_capacity) {
    auto spec = *find_scenario("warehouse-1k");
    spec.sim.rounds = 3;
    spec.replicas = 1;
    const auto result = run_scenario(spec);
    const std::size_t capacity = concurrency_capacity(spec);
    ASSERT_LT(capacity, spec.geometry.num_devices);  // genuinely oversubscribed
    for (const auto& round : result.sim.rounds) {
        EXPECT_LE(round.active, capacity);
    }
    EXPECT_GT(result.sim.total_joins, 0u);
}

// ------------------------------------------------------ report origin --

/// Every JSON key of a report file, in document order.
std::vector<std::string> json_keys(const std::string& path) {
    std::ifstream in(path);
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    const std::regex key("\"([^\"]+)\": ");
    std::vector<std::string> keys;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), key);
         it != std::sregex_iterator(); ++it) {
        keys.push_back((*it)[1]);
    }
    return keys;
}

/// Four rounds of warehouse-1k-grouped (no --perf).
scenario_result grouped_four_rounds() {
    scenario_spec spec = *find_scenario("warehouse-1k-grouped");
    spec.sim.rounds = 4;
    return run_scenario(spec);
}

TEST(report_origin, only_host_timers_are_host_instruments) {
    const scenario_result result = grouped_four_rounds();
    std::set<std::string> host;
    const ns::obs::metrics_snapshot& metrics = result.sim.metrics;
    const auto collect = [&](const auto& samples) {
        for (const auto& sample : samples) {
            if (sample.origin == ns::obs::origin::host) host.insert(sample.name);
        }
    };
    collect(metrics.counters);
    collect(metrics.gauges);
    collect(metrics.histograms);
    const std::set<std::string> expected = {
        "round.total_s",     "round.plan_s",     "round.grouping_s",
        "round.synth_s",     "round.superpose_s", "round.decode_s",
        "phy.kernel_plan_s", "phy.kernel_sum_s", "phy.noise_s",
        "rx.preamble_s",     "rx.payload_power_s", "rx.slice_s",
        "rx.crc_s",          "replica.wall_s",
        "sim.ctor.slots_s",  "sim.ctor.partition_s", "sim.ctor.associate_s",
        // Warm-up growth follows the round-thread count.
        "alloc.warmup_count"};
    EXPECT_EQ(host, expected);
}

TEST(instrumentation, never_changes_outcomes) {
    // Metrics and trace only observe: switching both off at run time
    // must leave every outcome bit-identical at either fidelity, and the
    // bare run must publish no metric at all.
    for (const auto fidelity :
         {ns::sim::phy_fidelity::symbol, ns::sim::phy_fidelity::sample}) {
        scenario_spec spec = *find_scenario("warehouse-1k-grouped");
        spec.sim.rounds = 4;
        spec.sim.fidelity = fidelity;
        spec.sim.obs.metrics = true;
        spec.sim.obs.trace = true;
        const scenario_result instrumented = run_scenario(spec);
        spec.sim.obs.metrics = false;
        spec.sim.obs.trace = false;
        const scenario_result bare = run_scenario(spec);

        EXPECT_FALSE(instrumented.sim.metrics.empty());
        EXPECT_FALSE(instrumented.sim.trace.empty());
        EXPECT_TRUE(bare.sim.metrics.empty());
        EXPECT_TRUE(bare.sim.trace.empty());
        std::ostringstream with_obs, without_obs;
        ns::test::write_outcome_digest(with_obs, instrumented.sim);
        ns::test::write_outcome_digest(without_obs, bare.sim);
        EXPECT_EQ(with_obs.str(), without_obs.str())
            << "fidelity " << static_cast<int>(fidelity);
    }
}

TEST(report_origin, strip_drops_exactly_the_wall_clock_scalars) {
    const scenario_result result = grouped_four_rounds();
    const std::filesystem::path dir = std::filesystem::temp_directory_path();
    const std::string full = (dir / "ns_report_origin_full.json").string();
    const std::string stripped = (dir / "ns_report_origin_strip.json").string();
    ns::apps::write_scenario_json(result, full, false);
    ns::apps::write_scenario_json(result, stripped, true);

    std::vector<std::string> expected = json_keys(full);
    std::erase_if(expected, [](const std::string& key) {
        return key == "wall_clock_s" || key == "synth_wall_s" ||
               key == "decode_wall_s";
    });
    ASSERT_EQ(json_keys(full).size(), expected.size() + 3);
    EXPECT_EQ(json_keys(stripped), expected);
    std::filesystem::remove(full);
    std::filesystem::remove(stripped);
}

TEST(report_perf, phases_read_all_five_counters_and_skip_idle_ones) {
    // Hosts that deny perf_event_open never fill perf.<phase>.*, so the
    // reader behind the --perf table and the metrics "perf" section is
    // pinned on a hand-built snapshot.
    ns::obs::metrics_registry registry;
    const auto put = [&](const std::string& phase, std::uint64_t base) {
        for (const char* field : {"cycles", "instructions", "llc_loads",
                                  "llc_misses", "branch_misses"}) {
            registry.get_counter("perf." + phase + "." + field)->add(base++);
        }
    };
    put("decode", 10);
    put("plan", 20);
    registry.get_counter("perf.synth.cycles")->add(0);
    registry.get_counter("perf.synth.llc_loads")->add(5);  // idle: skipped
    const ns::obs::metrics_snapshot snapshot = registry.snapshot();

    std::vector<std::string> phases;
    std::vector<std::uint64_t> values;
    ns::apps::for_each_perf_phase(snapshot, [&](const char* phase,
                                                const ns::obs::perf_readings& r) {
        phases.emplace_back(phase);
        values.insert(values.end(), {r.cycles, r.instructions, r.llc_loads,
                                     r.llc_misses, r.branch_misses});
    });
    EXPECT_EQ(phases, (std::vector<std::string>{"plan", "decode"}));
    EXPECT_EQ(values, (std::vector<std::uint64_t>{20, 21, 22, 23, 24,
                                                  10, 11, 12, 13, 14}));
}

// ------------------------------------------------------------- traffic --

TEST(traffic, saturated_always_offers) {
    traffic_model model({}, 16, 1);
    for (std::size_t round = 0; round < 8; ++round) {
        for (std::uint32_t id = 0; id < 16; ++id) {
            EXPECT_TRUE(model.offers(round, id));
        }
    }
    EXPECT_DOUBLE_EQ(model.expected_offered_load(), 1.0);
}

TEST(traffic, periodic_duty_cycle_is_exact_over_full_periods) {
    traffic_spec spec;
    spec.kind = traffic_kind::periodic;
    spec.duty_cycle = 0.25;
    spec.period_rounds = 8;
    traffic_model model(spec, 32, 7);
    std::size_t offered = 0;
    const std::size_t rounds = 64;  // 8 full periods
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::uint32_t id = 0; id < 32; ++id) {
            offered += model.offers(round, id) ? 1 : 0;
        }
    }
    EXPECT_DOUBLE_EQ(model.expected_offered_load(), 0.25);
    EXPECT_EQ(offered, static_cast<std::size_t>(0.25 * 32 * rounds));
}

TEST(traffic, poisson_offered_load_within_tolerance) {
    traffic_spec spec;
    spec.kind = traffic_kind::poisson;
    spec.arrivals_per_round = 0.3;
    traffic_model model(spec, 64, 11);
    std::size_t offered = 0;
    const std::size_t rounds = 400;
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::uint32_t id = 0; id < 64; ++id) {
            offered += model.offers(round, id) ? 1 : 0;
        }
    }
    const double load = static_cast<double>(offered) / (64.0 * rounds);
    EXPECT_NEAR(load, model.expected_offered_load(), 0.02);
}

TEST(traffic, bursty_offered_load_within_tolerance) {
    traffic_spec spec;
    spec.kind = traffic_kind::bursty;
    spec.burst_probability = 0.05;
    spec.burst_length = 6;
    traffic_model model(spec, 64, 13);
    std::size_t offered = 0;
    const std::size_t rounds = 1500;
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::uint32_t id = 0; id < 64; ++id) {
            offered += model.offers(round, id) ? 1 : 0;
        }
    }
    const double load = static_cast<double>(offered) / (64.0 * rounds);
    // Renewal argument: busy L rounds, idle 1/p rounds on average.
    EXPECT_NEAR(model.expected_offered_load(), 6.0 / (6.0 + 20.0), 1e-12);
    EXPECT_NEAR(load, model.expected_offered_load(), 0.03);
}

// --------------------------------------------------------------- churn --

TEST(churn, admission_respects_rate_and_capacity) {
    churn_spec spec;
    spec.join_rate_per_round = 5.0;
    spec.leave_rate_per_round = 0.0;
    spec.initial_active = 0;
    spec.max_joins_per_round = 2;
    churn_process churn(spec, 20, 10, 3);
    EXPECT_TRUE(churn.initial_active().empty());
    std::size_t active = 0;
    for (std::size_t round = 0; round < 30; ++round) {
        const churn_events events = churn.step(round);
        EXPECT_LE(events.joins.size(), 2u);
        active += events.joins.size();
        EXPECT_LE(active, 10u);  // never past the allocator capacity
        if (!events.joins.empty()) {
            EXPECT_GE(events.mean_join_latency_rounds, 1.0);
        }
    }
    EXPECT_EQ(active, 10u);  // filled to capacity
    EXPECT_EQ(churn.total_joins(), 10u);
    EXPECT_GT(churn.total_join_requests(), churn.total_joins());
    EXPECT_GT(churn.pending_joins(), 0u);
}

// ------------------------------------------------------------ mobility --

TEST(mobility, movers_stay_in_bounds_with_bounded_doppler) {
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 32, 5);
    mobility_spec spec;
    spec.mobile_fraction = 1.0;
    spec.speed_mps = 2.0;
    spec.round_period_s = 0.5;  // 1 m per round
    mobility_process mobility(spec, dep, 9);
    ASSERT_EQ(mobility.mobile_count(), 32u);
    const double max_doppler =
        2.0 * spec.speed_mps / 299792458.0 * spec.carrier_hz + 1e-9;
    for (std::size_t round = 0; round < 60; ++round) {
        const auto updates = mobility.step(round);
        ASSERT_EQ(updates.size(), 32u);
        for (const auto& update : updates) {
            EXPECT_TRUE(std::isfinite(update.query_rssi_dbm));
            EXPECT_TRUE(std::isfinite(update.uplink_rx_dbm));
            EXPECT_LT(update.uplink_rx_dbm, update.query_rssi_dbm);
            EXPECT_LE(std::abs(update.doppler_hz), max_doppler);
            EXPECT_GT(update.tof_s, 0.0);
        }
        for (std::size_t i = 0; i < mobility.mobile_count(); ++i) {
            const auto [x, y] = mobility.position(i);
            EXPECT_GE(x, 0.0);
            EXPECT_LE(x, dep.params().floor_width_m);
            EXPECT_GE(y, 0.0);
            EXPECT_LE(y, dep.params().floor_depth_m);
        }
    }
}

TEST(mobility, budgets_actually_move) {
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 8, 6);
    mobility_spec spec;
    spec.mobile_fraction = 1.0;
    spec.speed_mps = 2.0;
    spec.round_period_s = 1.0;
    mobility_process mobility(spec, dep, 21);
    const auto first = mobility.step(0);
    std::vector<ns::sim::link_update> last;
    for (std::size_t round = 1; round < 20; ++round) last = mobility.step(round);
    bool changed = false;
    for (std::size_t i = 0; i < first.size(); ++i) {
        if (std::abs(first[i].uplink_rx_dbm - last[i].uplink_rx_dbm) > 0.1) {
            changed = true;
        }
    }
    EXPECT_TRUE(changed);
}

TEST(mobility, shadowing_decorrelates_along_the_walk) {
    // Gudmundson model: a mover's shadowing offset must evolve (not stay
    // frozen), with one-step correlation ~ exp(-moved/d_corr) and the
    // stationary variance of the placement's sigma.
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 256, 7);
    mobility_spec spec;
    spec.mobile_fraction = 1.0;
    spec.speed_mps = 2.0;
    spec.round_period_s = 1.0;  // 2 m per round
    mobility_process mobility(spec, dep, 31);
    const std::size_t movers = mobility.mobile_count();
    ASSERT_GT(movers, 200u);

    const double sigma = dep.params().pathloss.shadowing_sigma_db;
    const double d_corr = dep.params().pathloss.shadowing_decorrelation_m;
    const double step_m = spec.speed_mps * spec.round_period_s;
    const double expected_rho = std::exp(-step_m / d_corr);

    // Warm past the (non-stationary) placement offsets, then measure the
    // ensemble one-step correlation and the stationary spread.
    for (std::size_t round = 0; round < 30; ++round) mobility.step(round);
    double num = 0.0;
    double den = 0.0;
    double spread = 0.0;
    std::size_t frozen = 0;
    for (std::size_t round = 0; round < 40; ++round) {
        std::vector<double> before(movers);
        for (std::size_t i = 0; i < movers; ++i) before[i] = mobility.shadow_db(i);
        mobility.step(30 + round);
        for (std::size_t i = 0; i < movers; ++i) {
            const double after = mobility.shadow_db(i);
            num += before[i] * after;
            den += before[i] * before[i];
            spread += after * after;
            if (after == before[i]) ++frozen;
        }
    }
    EXPECT_EQ(frozen, 0u);  // the ROADMAP bug: shadowing froze per device
    EXPECT_NEAR(num / den, expected_rho, 0.05);
    const double measured_sigma =
        std::sqrt(spread / (40.0 * static_cast<double>(movers)));
    EXPECT_NEAR(measured_sigma, sigma, 0.3 * sigma);
}

// -------------------------------------------------------- interference --

TEST(interference, periodic_tone_cadence_and_shape) {
    interference_spec spec;
    spec.kind = interference_kind::periodic_tone;
    spec.period_rounds = 3;
    spec.snr_db = 17.0;
    interference_source source(spec, ns::phy::deployed_params(), 4096, 1);
    std::size_t events = 0;
    for (std::size_t round = 0; round < 9; ++round) {
        const auto contributions = source.step(round);
        if (round % 3 == 0) {
            ASSERT_EQ(contributions.size(), 1u);
            EXPECT_EQ(contributions[0].type, ns::channel::interferer_contribution::kind::tone);
            EXPECT_DOUBLE_EQ(contributions[0].tone_hz, spec.tone_hz);
            EXPECT_DOUBLE_EQ(contributions[0].snr_db, 17.0);
            ++events;
        } else {
            EXPECT_TRUE(contributions.empty());
        }
    }
    EXPECT_EQ(source.total_events(), events);
}

TEST(interference, lora_frame_covers_window_and_misaligns) {
    interference_spec spec;
    spec.kind = interference_kind::lora_frame;
    spec.burst_probability = 1.0;
    interference_source source(spec, ns::phy::deployed_params(), 10000, 2);
    const auto contributions = source.step(0);
    ASSERT_EQ(contributions.size(), 1u);
    const ns::phy::css_params phy = ns::phy::deployed_params();
    EXPECT_GE(contributions[0].symbols.size() * phy.samples_per_symbol(), 10000u);
    EXPECT_LT(contributions[0].sample_delay, phy.samples_per_symbol());
    EXPECT_GT(contributions[0].timing_offset_s, 0.0);
}

// ----------------------------------------------------------- cochannel --

TEST(cochannel, source_runs_a_grouped_foreign_schedule) {
    cochannel_spec spec;
    spec.enabled = true;
    spec.num_devices = 300;       // > one group at capacity 256
    spec.group_capacity = 128;    // forces >= 3 groups
    spec.duty_cycle = 1.0;
    const ns::phy::css_params phy = ns::phy::deployed_params();
    cochannel_source source(spec, phy, 2, ns::phy::phy_format(),
                            ns::channel::crystal_model{},
                            ns::channel::hardware_delay_model{}, 77);
    EXPECT_GE(source.num_groups(), 3u);
    EXPECT_EQ(source.network_id(), 1u);

    const std::size_t frame_bits = ns::phy::phy_format().payload_plus_crc_bits();
    std::size_t total = 0;
    for (std::size_t round = 0; round < 2 * source.num_groups(); ++round) {
        const auto packets = source.step(round);
        // One group per round: never the whole population at once.
        EXPECT_LE(packets.size(), 128u);
        EXPECT_FALSE(packets.empty());
        for (const auto& packet : packets) {
            EXPECT_LT(packet.cyclic_shift, phy.num_bins());
            EXPECT_EQ(packet.cyclic_shift % 2, 0u);  // skip-spaced slots
            EXPECT_EQ(packet.frame_bits.size(), frame_bits);
            EXPECT_GE(packet.timing_offset_s, 0.0);
        }
        total += packets.size();
    }
    EXPECT_EQ(source.total_tx(), total);
    // Round-robin over the groups covers the full population twice.
    EXPECT_EQ(total, 2 * spec.num_devices);
}

/// Injects one co-channel packet per round at a fixed displacement from
/// victim shift 0 (always-ON payload so the raid has teeth).
class cochannel_probe_hooks final : public ns::sim::round_hooks {
public:
    explicit cochannel_probe_hooks(double offset_bins, double snr_db)
        : offset_bins_(offset_bins), snr_db_(snr_db) {
        bits_.assign(64, 1);
    }
    ns::sim::round_plan plan_round(std::size_t) override {
        ns::sim::round_plan plan;
        ns::channel::packet_contribution packet;
        packet.cyclic_shift = 0;
        // Express the displacement as a pure timing offset: dt·BW bins.
        packet.timing_offset_s = offset_bins_ * 2e-6;  // 1 bin = 2 us at 500 kHz
        packet.snr_db = snr_db_;
        packet.frame_bits = std::span<const std::uint8_t>(bits_.data(), 40);
        plan.cochannel.push_back(packet);
        return plan;
    }

private:
    double offset_bins_;
    double snr_db_;
    std::vector<std::uint8_t> bits_;
};

TEST(cochannel, collision_accounting_and_fast_path_in_simulator) {
    // A foreign packet inside victim slot 0's guard region counts as a
    // cross-network collision; one displaced to the slot midpoint's far
    // side does not. Either way the round stays symbol-domain.
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 16, 21);
    ns::sim::sim_config config;
    config.rounds = 4;
    config.seed = 9;
    config.zero_padding = 4;

    cochannel_probe_hooks on_slot(0.4, 25.0);   // inside the +-1-bin guard
    ns::sim::network_simulator hit_sim(dep, config, &on_slot);
    const auto hit = hit_sim.run();
    EXPECT_EQ(hit.fast_path_rounds, 4u);
    EXPECT_EQ(hit.total_cross_tx, 4u);
    // Shift 0 transmits every round (saturated static sim) and is raided
    // every round.
    EXPECT_EQ(hit.total_cross_collisions, 4u);

    cochannel_probe_hooks off_slot(+1.4, 25.0);  // past the slot midpoint
    ns::sim::network_simulator miss_sim(dep, config, &off_slot);
    const auto miss = miss_sim.run();
    EXPECT_EQ(miss.total_cross_tx, 4u);
    EXPECT_EQ(miss.total_cross_collisions, 0u);

    // The in-guard raid costs the victim network delivery relative to
    // the clean run.
    ns::sim::network_simulator clean_sim(dep, config);
    const auto clean = clean_sim.run();
    EXPECT_LE(hit.total_delivered, clean.total_delivered);
}

TEST(cochannel, registered_scenario_keeps_fast_path_and_counts_raids) {
    auto spec = *find_scenario("cochannel-2ap");
    spec.sim.rounds = 5;
    spec.replicas = 1;
    const auto result = run_scenario(spec);
    EXPECT_EQ(result.sim.fast_path_rounds, 5u);
    EXPECT_GT(result.sim.total_cross_tx, 0u);
    EXPECT_GT(result.sim.total_cross_collisions, 0u);
    // The two populations are both 128 strong at 50-75% duty: raids must
    // actually intersect the victim's transmissions.
    EXPECT_GT(result.sim.delivery_rate(), 0.3);
}

// ---------------------------------------------------- sample-path pins --

/// FNV-1a over the bytes of a run's outcome digest.
std::uint64_t outcome_hash(const ns::sim::sim_result& sim) {
    std::ostringstream out;
    ns::test::write_outcome_digest(out, sim);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : out.str()) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/// Replica 0 of `name` with its spec rounds replaced and, when set, its
/// fidelity.
ns::sim::sim_result pinned_run(const char* name, std::size_t rounds,
                               std::optional<ns::sim::phy_fidelity> fidelity) {
    scenario_spec spec = *find_scenario(name);
    spec.sim.rounds = rounds;
    if (fidelity) spec.sim.fidelity = *fidelity;
    return run_scenario_replica(spec, 0).sim;
}

// Golden digests of runs whose rounds are rendered as time-domain
// waveforms, so any change to how the sample path turns a transmission
// into samples must keep every outcome of these runs.

TEST(sample_path, cochannel_packets_are_pinned) {
    const auto sim = pinned_run("cochannel-2ap", 8, ns::sim::phy_fidelity::sample);
    EXPECT_EQ(sim.fast_path_rounds, 0u);
    EXPECT_EQ(sim.total_cross_tx, 774u);
    EXPECT_EQ(outcome_hash(sim), 0x0fcb13f359b897e2ULL);
}

TEST(sample_path, stale_shift_transmitters_are_pinned) {
    const auto sim = pinned_run("lossy-control-1k", 20, ns::sim::phy_fidelity::sample);
    EXPECT_EQ(sim.fast_path_rounds, 0u);
    EXPECT_EQ(sim.total_desyncs, 108u);
    EXPECT_EQ(outcome_hash(sim), 0x3af4f05166d4162fULL);
}

// Every device carries a tap delay line, so each row takes the sample
// path's filtered branch: shifted, then convolved with its taps.
TEST(sample_path, multipath_rows_are_pinned) {
    const auto sim = pinned_run("office-multipath", 8, ns::sim::phy_fidelity::sample);
    EXPECT_EQ(sim.fast_path_rounds, 0u);
    EXPECT_EQ(outcome_hash(sim), 0x40a7bc4f7c2fd424ULL);
}

// The oracle runs of the two interferer kinds: every round is rendered,
// a LoRa frame or a tone included, so any change to how an interferer is
// described or rendered must keep every outcome of these runs.

TEST(sample_path, lora_frame_interferers_are_pinned) {
    const auto sim = pinned_run("interference-lora", 20, ns::sim::phy_fidelity::sample);
    EXPECT_EQ(sim.fast_path_rounds, 0u);
    EXPECT_EQ(outcome_hash(sim), 0xcc781ce8397cc93aULL);
}

TEST(sample_path, tone_interferers_are_pinned) {
    const auto sim = pinned_run("interference-tone", 20, ns::sim::phy_fidelity::sample);
    EXPECT_EQ(sim.fast_path_rounds, 0u);
    EXPECT_EQ(outcome_hash(sim), 0x31ac9b4685ea01ceULL);
}

// The same runs at the spec's own fidelity: every round, interfered or
// not, synthesizes spectra, so any change to how an interferer's windows
// are built or placed must keep every outcome of these runs.

TEST(symbol_path, lora_frame_interferers_are_pinned) {
    const auto sim = pinned_run("interference-lora", 20, std::nullopt);
    EXPECT_EQ(sim.fast_path_rounds, sim.rounds.size());
    EXPECT_EQ(outcome_hash(sim), 0x822d32162837384ULL);
}

TEST(symbol_path, tone_interferers_are_pinned) {
    const auto sim = pinned_run("interference-tone", 20, std::nullopt);
    EXPECT_EQ(sim.fast_path_rounds, sim.rounds.size());
    EXPECT_EQ(outcome_hash(sim), 0x6d13b3760a1c3973ULL);
}

// ------------------------------------------ interference vs the oracle --

TEST(interference_sweep, fast_path_tracks_the_sample_path_over_interferer_power) {
    // Delivery and BER against the interferer's power, the symbol path
    // against the sample path, for both interferer kinds: every round
    // carries an interferer, swept from below the noise floor to 30 dB
    // above it. The paths are different noise realizations of the same
    // physics, so they must agree within the fidelity_equivalence
    // tolerances at every point, and the interferer must bite.
    for (const char* name : {"interference-lora", "interference-tone"}) {
        double weakest_delivery = 0.0;
        double strongest_delivery = 0.0;
        for (const double snr_db : {0.0, 10.0, 20.0, 30.0}) {
            scenario_spec spec = *find_scenario(name);
            spec.sim.rounds = 6;
            spec.interference.snr_db = snr_db;
            spec.interference.period_rounds = 1;
            spec.interference.burst_probability = 1.0;
            spec.sim.fidelity = ns::sim::phy_fidelity::sample;
            const ns::sim::sim_result sample = run_scenario_replica(spec, 0).sim;
            spec.sim.fidelity = ns::sim::phy_fidelity::symbol;
            const ns::sim::sim_result symbol = run_scenario_replica(spec, 0).sim;
            ASSERT_EQ(symbol.fast_path_rounds, symbol.rounds.size());
            EXPECT_NEAR(symbol.delivery_rate(), sample.delivery_rate(), 0.08)
                << name << " at " << snr_db << " dB";
            EXPECT_NEAR(symbol.ber(), sample.ber(), 0.02) << name << " at " << snr_db << " dB";
            if (snr_db == 0.0) weakest_delivery = symbol.delivery_rate();
            strongest_delivery = symbol.delivery_rate();
        }
        EXPECT_LT(strongest_delivery, weakest_delivery - 0.05) << name;
    }
}

// Golden digests of grouped runs (§3.3.3), so any change to how the
// simulator stores its devices or walks a group's members must keep
// every outcome. Each also checks the counts that show the run really
// exercises group membership changes.

TEST(grouped_schedule, churn_mobility_and_regroups_are_pinned) {
    const auto sim = pinned_run("warehouse-1k-grouped", 16, std::nullopt);
    EXPECT_GE(sim.total_regroups, 1u);
    EXPECT_GT(sim.total_joins, 0u);
    EXPECT_GT(sim.total_leaves, 0u);
    EXPECT_EQ(outcome_hash(sim), 0x13dac9b637d09148ULL);
}

TEST(grouped_schedule, round_robin_over_forty_groups_is_pinned) {
    const auto sim = pinned_run("field-10k", 6, std::nullopt);
    EXPECT_GT(sim.num_groups, 1u);
    EXPECT_EQ(sim.num_groups, 40u);
    EXPECT_EQ(outcome_hash(sim), 0x127ca0c346b834b2ULL);
}

TEST(grouped_schedule, late_first_scheduling_over_forty_groups_is_pinned) {
    // Long enough that the round robin addresses every group at least
    // twice, so most devices are scheduled for the first time long after
    // set-up and again after that.
    const auto sim = pinned_run("field-10k", 90, std::nullopt);
    ASSERT_EQ(sim.num_groups, 40u);
    std::size_t least_scheduled = sim.rounds.size();
    for (std::size_t g = 0; g < sim.num_groups; ++g) {
        least_scheduled = std::min(least_scheduled, sim.groups[g].scheduled_rounds);
    }
    EXPECT_GE(least_scheduled, 2u);
    EXPECT_EQ(outcome_hash(sim), 0xd6c241e261410971ULL);
}

TEST(grouped_schedule, lease_evictions_and_desyncs_are_pinned) {
    const auto sim = pinned_run("lossy-control-1k", 20, std::nullopt);
    EXPECT_EQ(sim.total_lease_evictions, 101u);
    EXPECT_EQ(sim.total_desyncs, 108u);
    EXPECT_GT(sim.total_reboots, 0u);
    EXPECT_GT(sim.total_ack_losses, 0u);
    EXPECT_GT(sim.total_regroups, 0u);
    EXPECT_EQ(outcome_hash(sim), 0x44d0f4a64defcf56ULL);
}

// Golden digest of a multipath run: every device carries a tap delay
// line whose taps envelope its fast-path window, so any change to how
// tap lines hold their power-delay profile or how windows are built
// must keep every outcome.

TEST(multipath, tap_lines_on_the_fast_path_are_pinned) {
    const auto sim = pinned_run("warehouse-1k-multipath", 16, std::nullopt);
    EXPECT_EQ(sim.fast_path_rounds, 16u);
    EXPECT_GE(sim.total_regroups, 1u);
    EXPECT_EQ(outcome_hash(sim), 0xf2a2b14edbf14c45ULL);
}

// Golden digest of the ungrouped churn run: every join is placed by the
// incremental allocator or, when no free slot fits its power, by a full
// reassignment, so any change to how a joiner is placed must keep every
// outcome of this run.

TEST(churn, warehouse_joins_and_full_reassignments_are_pinned) {
    const auto sim = pinned_run("warehouse-1k", 15, std::nullopt);
    EXPECT_EQ(sim.num_groups, 0u);
    EXPECT_EQ(sim.total_joins, 52u);
    EXPECT_EQ(sim.total_full_reassignments, 21u);
    EXPECT_EQ(outcome_hash(sim), 0x141abb936b981d7cULL);
}

// -------------------------------------------- hooks/simulator coupling --

/// Minimal hooks: devices with odd ids never have data; device 0 leaves
/// in round 1 and rejoins in round 2.
class toy_hooks final : public ns::sim::round_hooks {
public:
    ns::sim::round_plan plan_round(std::size_t round) override {
        ns::sim::round_plan plan;
        if (round == 1) plan.leaves.push_back(0);
        if (round == 2) plan.joins.push_back(0);
        return plan;
    }
    bool offers_traffic(std::size_t, std::uint32_t device_id) override {
        return device_id % 2 == 0;
    }
};

TEST(round_hooks, gating_churn_and_counters_flow_through_simulator) {
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 8, 12);
    ns::sim::sim_config config;
    config.rounds = 3;
    config.seed = 5;
    config.zero_padding = 4;
    toy_hooks hooks;
    ns::sim::network_simulator sim(dep, config, &hooks);
    const auto result = sim.run();

    ASSERT_EQ(result.rounds.size(), 3u);
    // Odd-id devices are gated every round they are active.
    EXPECT_EQ(result.rounds[0].idle, 4u);
    EXPECT_EQ(result.rounds[0].active, 8u);
    // Round 1: device 0 left before the queries.
    EXPECT_EQ(result.rounds[1].leaves, 1u);
    EXPECT_EQ(result.rounds[1].active, 7u);
    // Round 2: it re-joined through the incremental allocator.
    EXPECT_EQ(result.rounds[2].joins, 1u);
    EXPECT_EQ(result.rounds[2].active, 8u);
    EXPECT_GE(result.total_realloc_events, 1u);
    EXPECT_EQ(sim.ap().active_count(), 8u);
    EXPECT_EQ(sim.ap().active_shifts().size(), 8u);
}

/// Starts the first 30 devices and asks every other one to join in each
/// round.
class crowding_hooks final : public ns::sim::round_hooks {
public:
    std::optional<std::vector<std::uint32_t>> initial_active() override {
        std::vector<std::uint32_t> ids(30);
        for (std::uint32_t id = 0; id < ids.size(); ++id) ids[id] = id;
        return ids;
    }
    ns::sim::round_plan plan_round(std::size_t) override {
        ns::sim::round_plan plan;
        for (std::uint32_t id = 30; id < 40; ++id) plan.joins.push_back(id);
        return plan;
    }
};

TEST(round_hooks, ungrouped_joins_past_the_data_slots_are_refused) {
    // SKIP 16 leaves 512 / 16 = 32 data slots: two of the ten joiners
    // fit, the other eight are refused and counted, and the membership
    // never grows past the slots.
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 40, 14);
    ns::sim::sim_config config;
    config.rounds = 2;
    config.skip = 16;
    config.zero_padding = 4;
    crowding_hooks hooks;
    ns::sim::network_simulator sim(dep, config, &hooks);
    const auto result = sim.run();

    ASSERT_EQ(result.rounds.size(), 2u);
    EXPECT_EQ(result.rounds[0].joins, 2u);
    EXPECT_EQ(result.rounds[0].rejected_joins, 8u);
    EXPECT_EQ(result.rounds[0].active, 32u);
    EXPECT_EQ(result.rounds[1].joins, 0u);
    EXPECT_EQ(result.rounds[1].rejected_joins, 8u);
    EXPECT_EQ(result.rounds[1].active, 32u);
    EXPECT_EQ(result.total_rejected_joins, 16u);
}

TEST(round_hooks, default_hooks_match_hookless_simulator) {
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 12, 13);
    ns::sim::sim_config config;
    config.rounds = 3;
    config.seed = 6;
    config.zero_padding = 4;
    ns::sim::network_simulator bare(dep, config);
    ns::sim::round_hooks neutral;
    ns::sim::network_simulator hooked(dep, config, &neutral);
    std::ostringstream expected, actual;
    ns::test::write_outcome_digest(expected, bare.run());
    ns::test::write_outcome_digest(actual, hooked.run());
    EXPECT_EQ(expected.str(), actual.str());
}

/// Names ids outside a 4-device deployment in every hook.
struct stray_id_hooks final : ns::sim::round_hooks {
    std::optional<std::vector<std::uint32_t>> initial_active() override {
        return std::vector<std::uint32_t>{0, 1, 2, 3, 4, 1000};
    }
    ns::sim::round_plan plan_round(std::size_t) override {
        ns::sim::round_plan plan;
        plan.joins = plan.leaves = {4, 1000};
        plan.link_updates = {{.device_id = 4, .query_rssi_dbm = -20.0}};
        return plan;
    }
};

TEST(round_hooks, ids_outside_the_deployment_are_ignored) {
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 4, 13);
    ns::sim::sim_config config;
    config.rounds = 3;
    config.zero_padding = 4;
    ns::sim::round_hooks neutral;
    stray_id_hooks stray;
    ns::sim::network_simulator reference(dep, config, &neutral);
    ns::sim::network_simulator probed(dep, config, &stray);
    std::ostringstream expected, actual;
    ns::test::write_outcome_digest(expected, reference.run());
    ns::test::write_outcome_digest(actual, probed.run());
    EXPECT_EQ(actual.str(), expected.str());
    EXPECT_FALSE(probed.ap().group_of(4).has_value());
}

}  // namespace
