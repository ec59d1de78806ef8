// Fig. 18 — link-layer data rate vs number of devices: NetScatter
// Config 1 (32-bit query) and Config 2 (1760-bit full-reassignment
// query) against LoRa backscatter without / with rate adaptation.
//
// Paper shape: NetScatter's shared preamble + single query amortize over
// all devices (linear scaling); TDMA baselines stay flat. Gains at 256
// devices: 61.9x / 50.9x over fixed LoRa-BS and 14.1x / 11.6x over
// rate-adapted, for Config 1 / Config 2.
#include <iostream>

#include "netscatter/baseline/lora_link.hpp"
#include "netscatter/sim/timeline.hpp"
#include "netscatter/util/table.hpp"
#include "bench_report.hpp"
#include "paper_sweep.hpp"

int main() {
    const auto cells = ns::spec::expand_sweep(
        bench::office_spec({{"sim.rounds", "3"},
                            {"sim.seed", "18"},
                            {"sim.frame.payload_bits", "32"}}),
        {bench::paper_device_axis});
    const auto frame = cells.front().spec.sim.frame;  // 40-bit payload+CRC (§4.4)
    const auto phy = ns::phy::deployed_params();

    const bench::stopwatch clock;
    const auto sweep = ns::spec::run_sweep(cells);
    const double wall_s = clock.seconds();

    ns::util::text_table table(
        "Fig 18: link-layer data rate [kbps] vs # devices",
        {"# devices", "LoRa-BS fixed", "LoRa-BS rate-adapt", "NetScatter cfg1",
         "NetScatter cfg2"});

    bench::bench_report report("fig18_linklayer");
    report.set_scalar("wall_clock_s", wall_s);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::size_t devices = cells[i].spec.geometry.num_devices;
        const double mean_delivered = sweep[i].sim.mean_delivered_per_round();
        const auto delivered = static_cast<std::size_t>(mean_delivered + 0.5);
        const auto lora = ns::baseline::fixed_rate_network(frame, devices);
        const auto adapted = ns::baseline::rate_adapted_network(
            frame, bench::uplink_rssi_dbm(cells[i].spec));
        const auto cfg1 = ns::sim::netscatter_metrics(
            frame, phy, ns::sim::query_config::config1, delivered, devices);
        const auto cfg2 = ns::sim::netscatter_metrics(
            frame, phy, ns::sim::query_config::config2, delivered, devices);
        table.add_row({std::to_string(devices),
                       ns::util::format_double(lora.linklayer_rate_bps / 1e3, 2),
                       ns::util::format_double(adapted.linklayer_rate_bps / 1e3, 2),
                       ns::util::format_double(cfg1.linklayer_rate_bps / 1e3, 1),
                       ns::util::format_double(cfg2.linklayer_rate_bps / 1e3, 1)});
        report.add_point({{"num_devices", static_cast<double>(devices)},
                          {"mean_delivered", mean_delivered},
                          {"delivery_rate", sweep[i].sim.delivery_rate()},
                          {"linklayer_rate_kbps", cfg1.linklayer_rate_bps / 1e3}});
    }
    table.print(std::cout);

    const auto delivered =
        static_cast<std::size_t>(sweep.back().sim.mean_delivered_per_round() + 0.5);
    const auto lora = ns::baseline::fixed_rate_network(frame, 256);
    const auto adapted = ns::baseline::rate_adapted_network(
        frame, bench::uplink_rssi_dbm(cells.back().spec));
    const auto cfg1 = ns::sim::netscatter_metrics(frame, phy,
                                                  ns::sim::query_config::config1,
                                                  delivered, 256);
    const auto cfg2 = ns::sim::netscatter_metrics(frame, phy,
                                                  ns::sim::query_config::config2,
                                                  delivered, 256);
    std::cout << "\nat 256 devices:"
              << " cfg1 gains: " << ns::util::format_double(
                     cfg1.linklayer_rate_bps / lora.linklayer_rate_bps, 1)
              << "x over fixed (paper 61.9x), " << ns::util::format_double(
                     cfg1.linklayer_rate_bps / adapted.linklayer_rate_bps, 1)
              << "x over rate-adapted (paper 14.1x);"
              << " cfg2 gains: " << ns::util::format_double(
                     cfg2.linklayer_rate_bps / lora.linklayer_rate_bps, 1)
              << "x (paper 50.9x), " << ns::util::format_double(
                     cfg2.linklayer_rate_bps / adapted.linklayer_rate_bps, 1)
              << "x (paper 11.6x)\n";

    report.write();
    return 0;
}
