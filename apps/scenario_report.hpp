// Shared scenario report writers for the CLI tools.
//
// netscatter_sim and netscatter_sweep emit the exact same bench_report
// JSON shapes (scenario report, metrics registry, perf table) through
// these helpers, so a sweep cell's file diffs clean against a single
// run of the same spec and every determinism gate applies identically
// to both binaries. Host-measured values are left out where they are
// added: registry samples by their ns::obs::origin, report scalars by
// the `strip` checks below.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_report.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/obs/perf_counters.hpp"
#include "netscatter/obs/roofline.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/util/table.hpp"
#include "netscatter/util/units.hpp"

namespace ns::apps {

inline const char* fidelity_name(ns::sim::phy_fidelity fidelity) {
    switch (fidelity) {
        case ns::sim::phy_fidelity::sample: return "sample";
        case ns::sim::phy_fidelity::symbol: return "symbol";
    }
    return "symbol";
}

/// Adds the scalars of the outcome counters in `block`, in table order
/// (fault-only rows only when the spec injects faults).
inline void add_counter_scalars(bench::bench_report& report,
                                const ns::sim::sim_result& sim,
                                ns::sim::json_block block, bool faults_on) {
    for (const ns::sim::outcome_counter& counter : ns::sim::outcome_counters) {
        if (counter.scalar.block != block || (counter.fault_only && !faults_on)) {
            continue;
        }
        report.set_scalar(counter.scalar.name, static_cast<double>(sim.*counter.total));
    }
}

/// Appends one round's outcome-counter fields of `block` to a point, in
/// table order (fault-only rows only when the spec injects faults).
inline void add_counter_fields(
    std::vector<std::pair<std::string, bench::json_value>>& point,
    const ns::sim::round_outcome& round, ns::sim::json_block block,
    bool faults_on) {
    for (const ns::sim::outcome_counter& counter : ns::sim::outcome_counters) {
        if (counter.point.block != block || (counter.fault_only && !faults_on)) {
            continue;
        }
        point.emplace_back(counter.point.name, static_cast<double>(round.*counter.round));
    }
}

/// Writes the per-scenario report JSON (scalars + per-round "points" +
/// groups/metrics sections). `extra_scalars` lets a sweep prepend its
/// cell coordinates; an empty list reproduces the historic single-run
/// output byte-for-byte.
inline void write_scenario_json(
    const ns::scenario::scenario_result& result, const std::string& path,
    bool strip_wallclock,
    const std::vector<std::pair<std::string, bench::json_value>>&
        extra_scalars = {}) {
    bench::bench_report report("scenario_" + result.spec.name);
    report.set_scalar("scenario", result.spec.name);
    report.set_scalar("description", result.spec.description);
    for (const auto& [key, value] : extra_scalars) {
        report.set_scalar(key, value);
    }
    report.set_scalar("num_devices",
                      static_cast<double>(result.spec.geometry.num_devices));
    report.set_scalar("rounds_per_replica",
                      static_cast<double>(result.spec.sim.rounds));
    report.set_scalar("replicas", static_cast<double>(result.replicas));
    report.set_scalar("seed", static_cast<double>(result.spec.sim.seed));
    report.set_scalar("round_time_s", result.round_time_s);
    report.set_scalar("delivery_rate", result.sim.delivery_rate());
    report.set_scalar("loss_rate", result.loss_rate());
    report.set_scalar("ber", result.sim.ber());
    report.set_scalar("mean_delivered_per_round",
                      result.sim.mean_delivered_per_round());
    report.set_scalar("throughput_bps", result.throughput_bps());
    report.set_scalar("skip_rate", result.sim.skip_rate());
    report.set_scalar("idle_rate", result.sim.idle_rate());
    report.set_scalar("offered_load", result.stats.offered_load());
    report.set_scalar("join_requests", static_cast<double>(result.stats.join_requests));
    // Fault/recovery keys appear only when the spec injects faults: a
    // fault-free run's JSON stays byte-for-byte what it was before the
    // fault layer existed.
    const bool faults_on = result.spec.faults.enabled();
    using ns::sim::json_block;
    add_counter_scalars(report, result.sim, json_block::membership, faults_on);
    report.set_scalar("mean_reassoc_latency_rounds",
                      result.stats.mean_join_latency_rounds());
    report.set_scalar("reassoc_latency_p50_rounds",
                      result.stats.join_wait_percentile(50.0));
    report.set_scalar("reassoc_latency_p95_rounds",
                      result.stats.join_wait_percentile(95.0));
    report.set_scalar("association_tx",
                      static_cast<double>(result.stats.association_tx));
    report.set_scalar("association_collisions",
                      static_cast<double>(result.stats.association_collisions));
    report.set_scalar("interference_events",
                      static_cast<double>(result.stats.interference_events));
    report.set_scalar("network_id",
                      static_cast<double>(result.spec.sim.network_id));
    add_counter_scalars(report, result.sim, json_block::cochannel, faults_on);
    report.set_scalar("num_groups", static_cast<double>(result.num_groups));
    add_counter_scalars(report, result.sim, json_block::grouping, faults_on);
    report.set_scalar("control_overhead_s", result.control_overhead_s);
    report.set_scalar("network_latency_s", result.network_latency_s());
    report.set_scalar("fidelity", fidelity_name(result.spec.sim.fidelity));
    report.set_scalar("fast_path_rounds",
                      static_cast<double>(result.sim.fast_path_rounds));
    if (!strip_wallclock) {
        report.set_scalar("wall_clock_s", result.wall_clock_s);
        // Host-time split of the round loop (transmit-side synthesis vs
        // receiver decode), summed over all replica rounds.
        const ns::sim::round_wall_split wall =
            ns::sim::wall_split(result.sim.metrics);
        report.set_scalar("synth_wall_s", wall.synth_s);
        report.set_scalar("decode_wall_s", wall.decode_s);
    }
    add_counter_scalars(report, result.sim, json_block::faults, faults_on);
    if (faults_on) {
        report.set_scalar("fault_devices_down_at_end",
                          static_cast<double>(result.sim.devices_down_at_end));
        report.set_scalar("fault_recovery_ratio", result.sim.recovery_ratio());
    }

    const double payload_bits =
        static_cast<double>(result.spec.sim.frame.payload_bits);
    const std::size_t rounds_per_replica = result.spec.sim.rounds;
    const double config1_query_s = result.config1_query_time_s;
    const double config2_query_s = result.config2_query_time_s;
    for (std::size_t i = 0; i < result.sim.rounds.size(); ++i) {
        const auto& round = result.sim.rounds[i];
        const double throughput =
            result.round_time_s > 0.0
                ? static_cast<double>(round.delivered) * payload_bits /
                      result.round_time_s
                : 0.0;
        const double loss =
            round.transmitting > 0
                ? 1.0 - static_cast<double>(round.delivered) /
                            static_cast<double>(round.transmitting)
                : 0.0;
        const double reassoc_latency =
            i < result.stats.join_latency_series.size()
                ? result.stats.join_latency_series[i]
                : 0.0;
        // Query-overhead timeline (the same rule control_overhead_s sums).
        const double query_time_s = ns::scenario::carries_config2_query(round)
                                        ? config2_query_s
                                        : config1_query_s;
        // The merged series concatenates replicas; index each point by
        // (replica, round) so consumers never stitch independent
        // timelines together.
        std::vector<std::pair<std::string, bench::json_value>> point = {
            {"replica", static_cast<double>(i / rounds_per_replica)},
            {"round", static_cast<double>(i % rounds_per_replica)}};
        add_counter_fields(point, round, json_block::round_head, faults_on);
        point.emplace_back("scheduled_group", static_cast<double>(round.scheduled_group));
        point.emplace_back("scheduled", static_cast<double>(round.scheduled));
        add_counter_fields(point, round, json_block::round_body, faults_on);
        point.emplace_back("query_time_s", query_time_s);
        point.emplace_back("reassoc_latency_rounds", reassoc_latency);
        point.emplace_back("throughput_bps", throughput);
        point.emplace_back("loss_rate", loss);
        add_counter_fields(point, round, json_block::round_faults, faults_on);
        report.add_point(std::move(point));
    }
    // Per-group breakdown (§3.3.3), keyed by scheduling slot and merged
    // across replicas by group id. Counters span the whole run (all
    // partitions a regroup produced); members and the power span
    // describe the final partition.
    for (std::size_t g = 0; g < result.sim.groups.size(); ++g) {
        const ns::sim::group_metrics& group = result.sim.groups[g];
        report.add_section_point(
            "groups",
            {{"group", static_cast<double>(g)},
             {"members", static_cast<double>(group.members)},
             {"scheduled_rounds", static_cast<double>(group.scheduled_rounds)},
             {"transmitting", static_cast<double>(group.transmitting)},
             {"delivered", static_cast<double>(group.delivered)},
             {"delivery_rate", group.delivery_rate()},
             {"bits_sent", static_cast<double>(group.bits_sent)},
             {"bit_errors", static_cast<double>(group.bit_errors)},
             {"min_power_dbm", group.min_power_dbm},
             {"max_power_dbm", group.max_power_dbm},
             {"dynamic_range_db", group.max_power_dbm - group.min_power_dbm}});
    }
    // Deterministic slice of the metrics registry: its counters and
    // gauges are pure functions of (spec, seed), so they diff clean
    // across thread counts. Host instruments (the perf.* hardware
    // counters) stay out of the scenario report unconditionally, which
    // keeps this JSON bit-identical with and without --perf (use
    // --metrics for the full registry).
    using ns::obs::origin;
    for (const auto& counter : result.sim.metrics.counters) {
        if (counter.origin == origin::host) continue;
        report.add_section_point("metrics",
                                 {{"name", counter.name},
                                  {"value", static_cast<double>(counter.value)}});
    }
    for (const auto& gauge : result.sim.metrics.gauges) {
        if (gauge.origin == origin::host) continue;
        report.add_section_point(
            "metrics_gauges",
            {{"name", gauge.name}, {"last", gauge.last}, {"max", gauge.max}});
    }
    report.write(path);
}

/// Round-loop phases carrying perf.<phase>.* attribution (the five
/// simulator phases plus the kernel-sum batch inside synth/superpose).
inline constexpr const char* perf_phases[] = {"plan",      "grouping",
                                              "synth",     "superpose",
                                              "decode",    "kernel_sum"};

/// True when the merged snapshot says at least one replica opened its
/// hardware counter group.
inline bool perf_available(const ns::obs::metrics_snapshot& metrics) {
    const ns::obs::gauge_sample* available = metrics.find_gauge("perf.available");
    return available != nullptr && available->max > 0.0;
}

/// Calls `visit(phase, readings)` for every phase in perf_phases, with
/// its five perf.<phase>.* counters read from the merged snapshot.
/// Phases that recorded neither cycles nor instructions are skipped.
template <typename Visit>
void for_each_perf_phase(const ns::obs::metrics_snapshot& metrics, Visit&& visit) {
    for (const char* phase : perf_phases) {
        const std::string prefix = std::string("perf.") + phase + ".";
        const ns::obs::perf_readings readings{
            .cycles = metrics.counter_value(prefix + "cycles"),
            .instructions = metrics.counter_value(prefix + "instructions"),
            .llc_loads = metrics.counter_value(prefix + "llc_loads"),
            .llc_misses = metrics.counter_value(prefix + "llc_misses"),
            .branch_misses = metrics.counter_value(prefix + "branch_misses"),
        };
        if (readings.cycles == 0 && readings.instructions == 0) continue;
        visit(phase, readings);
    }
}

/// Prints the per-phase hardware-counter table for --perf, or the clean
/// degradation message when no replica could open perf events.
inline void print_perf_table(const ns::scenario::scenario_result& result) {
    const ns::obs::metrics_snapshot& metrics = result.sim.metrics;
    if (!perf_available(metrics)) {
        std::cout << "perf counters (" << result.spec.name
                  << "): available=false — perf_event_open denied "
                     "(kernel.perf_event_paranoid, seccomp, NS_PERF_DISABLE "
                     "or metrics off); simulation results are unaffected\n";
        return;
    }
    ns::util::text_table table(
        "hardware counters: " + result.spec.name,
        {"phase", "cycles [M]", "instr [M]", "IPC", "LLC miss", "br miss/kI"});
    for_each_perf_phase(metrics, [&](const char* phase,
                                     const ns::obs::perf_readings& r) {
        table.add_row(
            {phase, ns::util::format_double(static_cast<double>(r.cycles) / 1e6, 1),
             ns::util::format_double(static_cast<double>(r.instructions) / 1e6, 1),
             ns::util::format_double(ns::obs::perf_ipc(r.instructions, r.cycles), 2),
             ns::util::format_double(
                 100.0 * ns::obs::perf_miss_rate(r.llc_misses, r.llc_loads), 1) +
                 " %",
             ns::util::format_double(
                 r.instructions == 0
                     ? 0.0
                     : 1e3 * static_cast<double>(r.branch_misses) /
                           static_cast<double>(r.instructions),
                 2)});
    });
    table.print(std::cout);
}

/// Writes the merged metrics registry as JSON. Counters go into the
/// top-level "points" array as {name, value} rows — the exact shape
/// scripts/check_bench_regression.py gates on (--key name --metric
/// value). Gauges, histograms (with log2-bucket percentiles) and the
/// process-wide engine stats follow as sections. With `strip`, every
/// host-origin instrument, the wall clock and the host-execution
/// sections stay out, so two metrics files from different thread counts
/// diff clean.
inline void write_metrics_json(const ns::scenario::scenario_result& result,
                               const std::string& path, bool strip) {
    bench::bench_report report("metrics_" + result.spec.name);
    report.set_scalar("scenario", result.spec.name);
    report.set_scalar("replicas", static_cast<double>(result.replicas));
    report.set_scalar("seed", static_cast<double>(result.spec.sim.seed));
    if (!strip) report.set_scalar("wall_clock_s", result.wall_clock_s);

    const ns::obs::metrics_snapshot& metrics = result.sim.metrics;
    const auto stripped = [strip](const auto& sample) {
        return strip && sample.origin == ns::obs::origin::host;
    };
    for (const auto& counter : metrics.counters) {
        if (stripped(counter)) continue;
        report.add_point({{"name", counter.name},
                          {"value", static_cast<double>(counter.value)}});
    }
    if (result.spec.faults.enabled()) {
        // Derived recovery-quality points in the same {name, value} shape
        // the counters use, so check_bench_regression.py gates them with
        // the one --key name --metric value invocation. Both are pure
        // functions of (spec, seed): safe to pin at --tolerance 0.
        double recovery_p95 = 0.0;
        for (const auto& hist : metrics.histograms) {
            if (hist.name == "fault.recovery_rounds") {
                recovery_p95 = hist.percentile(95.0);
                break;
            }
        }
        report.add_point(
            {{"name", "fault.recovery_rounds.p95"}, {"value", recovery_p95}});
        report.add_point({{"name", "fault.recovery_ratio"},
                          {"value", result.sim.recovery_ratio()}});
    }
    for (const auto& gauge : metrics.gauges) {
        if (stripped(gauge)) continue;
        report.add_section_point(
            "gauges",
            {{"name", gauge.name}, {"last", gauge.last}, {"max", gauge.max}});
    }
    for (const auto& hist : metrics.histograms) {
        if (stripped(hist)) continue;
        // Unsuffixed field names: units follow the histogram (seconds
        // for the *_s phase probes, plain counts for round.allocs).
        report.add_section_point(
            "histograms",
            {{"name", hist.name},
             {"count", static_cast<double>(hist.count)},
             {"sum", hist.sum},
             {"min", hist.min},
             {"max", hist.max},
             {"mean", hist.mean()},
             {"p50", hist.percentile(50.0)},
             {"p95", hist.percentile(95.0)},
             {"p99", hist.percentile(99.0)}});
    }
    // Roofline attribution of the kernel-accumulation loop. The model
    // itself (elements, bytes, flops, intensity) is deterministic —
    // derived from the phy.kernel_window_elems counter — and is emitted
    // even under strip; the time-derived achieved rates are host facts
    // and only appear in unstripped output.
    const ns::obs::kernel_loop_model model =
        ns::obs::kernel_loop_model_from(metrics);
    if (model.window_elems > 0) {
        std::vector<std::pair<std::string, bench::json_value>> roofline = {
            {"window_elems", static_cast<double>(model.window_elems)},
            {"bytes", model.bytes()},
            {"flops", model.flops()},
            {"arithmetic_intensity", model.arithmetic_intensity()},
        };
        if (!strip) {
            const double seconds = metrics.histogram_sum("phy.kernel_sum_s");
            roofline.push_back({"kernel_sum_wall_s", seconds});
            roofline.push_back({"achieved_gbps", model.achieved_gbps(seconds)});
            roofline.push_back(
                {"achieved_gflops", model.achieved_gflops(seconds)});
        }
        report.add_section_point("roofline", roofline);
    }
    if (!strip) {
        // Per-phase hardware counters (--perf). Same availability
        // contract as the stdout table: a denied perf_event_open leaves
        // the section empty apart from the available flag.
        if (metrics.find_gauge("perf.available") != nullptr) {
            report.set_scalar("perf_available",
                              perf_available(metrics) ? 1.0 : 0.0);
        }
        for_each_perf_phase(metrics, [&](const char* phase,
                                         const ns::obs::perf_readings& r) {
            report.add_section_point(
                "perf",
                {{"phase", phase},
                 {"cycles", static_cast<double>(r.cycles)},
                 {"instructions", static_cast<double>(r.instructions)},
                 {"ipc", ns::obs::perf_ipc(r.instructions, r.cycles)},
                 {"llc_loads", static_cast<double>(r.llc_loads)},
                 {"llc_misses", static_cast<double>(r.llc_misses)},
                 {"llc_miss_rate", ns::obs::perf_miss_rate(r.llc_misses, r.llc_loads)},
                 {"branch_misses", static_cast<double>(r.branch_misses)}});
        });
        // Host process usage (getrusage; host-dependent by nature —
        // never part of determinism comparisons).
        const ns::obs::process_usage usage = ns::obs::current_process_usage();
        const std::vector<std::pair<const char*, std::uint64_t>> process = {
            {"peak_rss_bytes", usage.peak_rss_bytes},
            {"minor_page_faults", usage.minor_page_faults},
            {"major_page_faults", usage.major_page_faults},
            {"voluntary_ctx_switches", usage.voluntary_ctx_switches},
            {"involuntary_ctx_switches", usage.involuntary_ctx_switches},
        };
        for (const auto& [name, value] : process) {
            report.add_section_point(
                "process",
                {{"name", name}, {"value", static_cast<double>(value)}});
        }
    }
    report.write(path);
}

}  // namespace ns::apps
