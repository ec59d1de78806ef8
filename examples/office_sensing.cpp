// Office sensing: the paper's motivating deployment (Fig. 1) in
// simulation — 256 backscatter sensors spread over a multi-room office
// floor, all reporting concurrently to one AP.
//
// The example runs the registered `office-256` scenario through the
// scenario engine — the supported entry point for network-scale
// experiments — then reports the Figs. 17-19 style network metrics.
// Overriding the population, round count and seed shows how any
// registered spec can be customized before running.
//
// Usage: ./build/example_office_sensing [num_devices] [rounds] [seed]
#include <cstdlib>
#include <iostream>

#include "netscatter/netscatter.hpp"

int main(int argc, char** argv) {
    const std::size_t num_devices =
        argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 256;
    const std::size_t rounds = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 5;
    const std::uint64_t seed = argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 1;

    std::cout << "Office deployment: " << num_devices << " devices, " << rounds
              << " concurrent rounds (seed " << seed << ")\n\n";

    // Start from the registered office scenario and customize it.
    ns::scenario::scenario_spec spec =
        *ns::scenario::find_scenario("office-256");
    spec.geometry.num_devices = num_devices;
    spec.sim.rounds = rounds;
    spec.sim.seed = seed;
    spec.replicas = 1;

    // The deployment's link budget (regenerate the same floor the runner
    // will simulate — both are pure functions of the spec).
    const ns::sim::deployment dep(ns::scenario::resolve_geometry(spec.geometry),
                                  num_devices, seed);
    const double floor_dbm = dep.noise_floor_dbm(500e3);
    double min_snr = 1e9, max_snr = -1e9;
    for (const auto& device : dep.devices()) {
        min_snr = std::min(min_snr, device.uplink_rx_dbm - floor_dbm);
        max_snr = std::max(max_snr, device.uplink_rx_dbm - floor_dbm);
    }
    std::cout << "uplink SNR across the floor: " << ns::util::format_double(min_snr, 1)
              << " .. " << ns::util::format_double(max_snr, 1)
              << " dB (near-far spread " << ns::util::format_double(max_snr - min_snr, 1)
              << " dB)\n";

    // Run the scenario.
    const ns::scenario::scenario_result result = ns::scenario::run_scenario(spec);

    std::cout << "delivery rate: "
              << ns::util::format_double(100.0 * result.sim.delivery_rate(), 1)
              << " % of transmitted packets (BER "
              << ns::util::format_double(result.sim.ber(), 4) << ", goodput "
              << ns::util::format_double(result.throughput_bps() / 1e3, 1)
              << " kbps)\n\n";

    // Network metrics per round (Fig. 17/18/19 quantities).
    const double delivered = result.sim.mean_delivered_per_round();
    const auto metrics = ns::sim::netscatter_metrics(
        spec.sim.frame, spec.sim.phy, ns::sim::query_config::config1,
        static_cast<std::size_t>(delivered), num_devices);
    const auto lora =
        ns::baseline::fixed_rate_network(spec.sim.frame, num_devices);

    ns::util::text_table table("NetScatter vs LoRa backscatter (query-response TDMA)",
                               {"metric", "NetScatter", "LoRa backscatter", "gain"});
    table.add_row({"network PHY rate [kbps]",
                   ns::util::format_double(metrics.phy_rate_bps / 1e3, 1),
                   ns::util::format_double(lora.phy_rate_bps / 1e3, 1),
                   ns::util::format_double(metrics.phy_rate_bps / lora.phy_rate_bps, 1) + "x"});
    table.add_row({"link-layer rate [kbps]",
                   ns::util::format_double(metrics.linklayer_rate_bps / 1e3, 1),
                   ns::util::format_double(lora.linklayer_rate_bps / 1e3, 1),
                   ns::util::format_double(
                       metrics.linklayer_rate_bps / lora.linklayer_rate_bps, 1) + "x"});
    table.add_row({"network latency [ms]",
                   ns::util::format_double(metrics.latency_s * 1e3, 1),
                   ns::util::format_double(lora.latency_s * 1e3, 1),
                   ns::util::format_double(lora.latency_s / metrics.latency_s, 1) +
                       "x lower"});
    table.print(std::cout);
    return 0;
}
