// Ablation — signal-strength grouping (§3.3.3).
//
// A population whose near-far spread exceeds the decoder's ~35 dB
// dynamic range (Fig. 15b) cannot be served in one concurrent round: the
// strongest devices' side lobes bury the weakest. The AP's answer is to
// group devices by signal strength and address one group per query.
// This bench stretches the office deployment well past the dynamic range
// and sweeps the per-group range limit: delivery recovers at the cost of
// one extra round of latency per group. All three points run through the
// scenario engine's grouped path (scenario_runner -> network_simulator
// grouping) — the same code path the grouped scenarios use — so grouped
// numbers come from one place.
#include <iostream>

#include "bench_report.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/util/table.hpp"

int main() {
    // Stretch the deployment: closer minimum distance and a steeper
    // exponent widen the uplink spread to ~50+ dB.
    ns::scenario::scenario_spec base;
    base.name = "ablation-grouping";
    base.description = "stretched office floor past the dynamic range";
    base.geometry.preset = ns::scenario::geometry_preset::office;
    base.geometry.num_devices = 192;
    base.geometry.min_distance_m = 3.0;
    base.geometry.pathloss_exponent = 2.9;
    base.geometry.wall_loss_db = 4.0;
    base.sim.rounds = 2;
    base.sim.seed = 41;
    base.sim.zero_padding = 4;
    base.replicas = 1;

    {
        const ns::sim::deployment dep(ns::scenario::resolve_geometry(base.geometry),
                                      base.geometry.num_devices, base.sim.seed);
        const double floor_dbm = dep.noise_floor_dbm(500e3);
        double min_snr = 1e9, max_snr = -1e9;
        for (const auto& device : dep.devices()) {
            min_snr = std::min(min_snr, device.uplink_rx_dbm - floor_dbm);
            max_snr = std::max(max_snr, device.uplink_rx_dbm - floor_dbm);
        }
        std::cout << "stretched deployment: " << base.geometry.num_devices
                  << " devices, uplink SNR " << ns::util::format_double(min_snr, 1)
                  << " .. " << ns::util::format_double(max_snr, 1) << " dB (spread "
                  << ns::util::format_double(max_snr - min_snr, 1) << " dB)\n\n";
    }

    bench::bench_report report("ablation_grouping");
    bench::stopwatch clock;

    ns::util::text_table table(
        "Ablation: grouping by signal strength (SS3.3.3)",
        {"scheme", "groups", "delivery rate", "latency [ms]", "link rate [kbps]"});

    for (const double range_db : {200.0, 35.0, 20.0}) {
        ns::scenario::scenario_spec spec = base;
        spec.sim.grouping.enabled = true;
        spec.sim.grouping.group_capacity = 256;
        spec.sim.grouping.max_dynamic_range_db = range_db;
        // Each group must be scheduled the same number of rounds for a
        // fair delivery comparison: one full schedule per group count.
        // A short probe reads the partition size; single-group points
        // reuse it directly (same spec, same rounds).
        auto result = ns::scenario::run_scenario(spec, {.num_threads = 1});
        if (result.num_groups > 1) {
            spec.sim.rounds = base.sim.rounds * result.num_groups;
            result = ns::scenario::run_scenario(spec, {.num_threads = 1});
        }

        const double latency_ms = result.network_latency_s() * 1e3;
        const double rate_kbps = result.throughput_bps() / 1e3;
        table.add_row({range_db > 100 ? "ungrouped (one round)"
                                      : "grouped @ " +
                                            ns::util::format_double(range_db, 0) + " dB",
                       std::to_string(result.num_groups),
                       ns::util::format_double(result.sim.delivery_rate(), 3),
                       ns::util::format_double(latency_ms, 1),
                       ns::util::format_double(rate_kbps, 1)});
        report.add_point({{"max_dynamic_range_db", range_db},
                          {"num_groups", static_cast<double>(result.num_groups)},
                          {"delivery_rate", result.sim.delivery_rate()},
                          {"network_latency_ms", latency_ms},
                          {"linklayer_rate_kbps", rate_kbps}});
    }
    table.print(std::cout);
    std::cout << "\nexpected: the ungrouped round loses the weak half of the "
                 "population to the near-far problem; grouping restores delivery "
                 "at ~(number of groups)x the latency\n";
    report.set_scalar("wall_clock_s", clock.seconds());
    report.write();
    return 0;
}
